"""Recipe-driven pipelines: generate, transform, verify, certify.

A recipe is a flat ordered stage list in a line-oriented format::

    rcp 1
    target 6
    stage gen greedy left=630 right=30 deg=21 girth=12 seed=1
    stage nbhd
    stage substitute template=path7 k=3
    stage split r=2
    stage pad to=100
    certify girth=6 p=5 r=3 N=3967295312526

Blank lines and `#` comments are allowed.  ``target`` declares the girth
floor for the final hypergraph; every stage output is girth-verified
(bipartite stages against twice the target) and the pipeline fails fast,
naming the stage, on any regression below it.  Each stage artifact is
written to the output directory in canonical form, and every claim in the
report is backed by a re-runnable command line.

Each generator and transform is one row of ``OPS``, which `gen`,
`transform` and the recipe stages all read: its argument keys and types,
the input kind it needs, the call, the predicted edge count and the
re-runnable command.  Every stage is checked against its row, and its
templates are resolved, before any stage runs, so a bad stage writes
nothing.  ``op_args``, ``plan_args`` and ``read_int`` read the stages,
the ``certify`` line and the CLI flags alike, so a fault reads the same
wherever it is written.  ``run_stage`` is the only writer of a stage
file (of `gen`, `transform` or a recipe) and ``certify`` of a certificate
(of `plan` or a ``certify`` line), so a recorded command reruns the code
that wrote its file.

Wall-clock timings are collected in memory and shown on stdout but are
left out of the serialized report so repeated runs stay bit-identical.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Iterable

from .arith import DECIMAL, int_args, int_to_decimal, parse_decimal_int, record, short_decimal, short_value, show
from .certificate import Certificate, certificate
from .core import BipartiteGraph, Hypergraph, check_vertex_budget, only, validate
from .errors import Error, FormatError, PreconditionError, ResourceBudgetError, VerificationError
from .formats import load, serialize_bipartite, serialize_hypergraph, split_lines
from .geometry import (
    GreedyReport,
    geometry_incidences,
    greedy_high_girth_bipartite,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from .planner import PlanResult, Route, route_for
from .transforms import loose_path, neighborhood_hypergraph, split_edges, substitute_edges


def read_int(where: str, key: str, text: str) -> int:
    """A canonical decimal as every front end reads it; anything else is a
    FormatError naming ``where`` and ``key``."""
    try:
        return parse_decimal_int(text)
    except PreconditionError:
        raise FormatError(f"{where}: {key} must be an integer, got {short_value(text)}") from None
    except ResourceBudgetError as exc:
        raise ResourceBudgetError(f"{where}: {key}: {exc}") from None


def pad_vertices(h: Hypergraph, to: int) -> Hypergraph:
    """Raise the vertex count to exactly ``to`` by adding isolated
    vertices; exists to hit an exact vertex budget, so shrinking is an
    error."""
    int_args(None, to=to)
    if to < h.num_vertices:
        raise PreconditionError(f"cannot pad down: {h.num_vertices} vertices > target {show(to)}")
    return Hypergraph(to, h.edges)


def resolve_template(token: str) -> Hypergraph:
    if token == "path7":
        return loose_path(3, 3)
    if token.startswith("loose-path:"):
        parts, where = token.split(":"), token[:40]
        if len(parts) != 3:
            raise FormatError(f"template spec {short_value(token)} is not loose-path:<edges>:<r>")
        return loose_path(read_int(where, "edges", parts[1]), read_int(where, "r", parts[2]))
    template = load(token)
    check_input(f"template {token}", "hypergraph", kind_of(template))
    return template


def kind_of(obj: BipartiteGraph | Hypergraph) -> str:
    return "bipartite" if isinstance(obj, BipartiteGraph) else "hypergraph"


def check_input(where: str, needs: str, kind: str) -> None:
    if kind != needs:
        raise PreconditionError(f"{where} needs a {needs} input, got a {kind}")


INT, TEMPLATE = "int", "template"  # argument types: an integer, or a spec for resolve_template


@record
class Op:
    """One row of ``OPS``: a generator (no input) or a transform.

    ``run(input, args)`` does the work and ``predict(input, args)``
    predicts the output's edge count (incidences for a bipartite output)
    or gives None; ``args`` maps each key of ``args`` to its value, a
    template spec already resolved to a hypergraph.  The lambdas look the
    layer functions up as module globals at call time.
    """

    command: str  # the CLI words before the flags, e.g. `gen plane` or `transform split`
    args: tuple[tuple[str, str], ...]  # (key, INT | TEMPLATE), in the command's flag order
    needs: str | None  # input kind: None, "bipartite" or "hypergraph"
    run: Callable
    predict: Callable

    def render(self, values: dict, source: str | None, out: str) -> str:
        """The re-runnable command line that writes this op's output to ``out``."""
        flags = [f"--{key} {values[key]}" for key, _ in self.args]
        return " ".join(["hypergirth", self.command, *flags, *([source] if self.needs else []), out])


OPS: dict[str, Op] = {
    "plane": Op("gen plane", (("q", INT),), None,
                lambda _, a: projective_plane(a["q"]),
                lambda _, a: geometry_incidences("plane", a["q"])),
    "quadrangle": Op("gen quadrangle", (("q", INT),), None,
                     lambda _, a: symplectic_quadrangle(a["q"]),
                     lambda _, a: geometry_incidences("quadrangle", a["q"])),
    "hexagon": Op("gen hexagon", (("q", INT),), None,
                  lambda _, a: split_cayley_hexagon(a["q"]),
                  lambda _, a: geometry_incidences("hexagon", a["q"])),
    "greedy": Op("gen greedy", tuple((key, INT) for key in ("left", "right", "deg", "girth", "seed")), None,
                 lambda _, a: greedy_high_girth_bipartite(a["left"], a["right"], a["deg"], a["girth"], a["seed"]),
                 lambda _, a: None),
    "nbhd": Op("transform nbhd", (), "bipartite",
               lambda g, a: neighborhood_hypergraph(g),
               lambda g, a: sum(1 for nb in g.right_neighbors if nb)),
    "substitute": Op("transform substitute", (("template", TEMPLATE), ("k", INT)), "hypergraph",
                     lambda h, a: substitute_edges(h, a["template"], a["k"]),
                     lambda h, a: a["k"] * a["template"].num_edges * h.num_edges),
    "split": Op("transform split", (("r", INT),), "hypergraph",
                lambda h, a: split_edges(h, a["r"]),  # rejects r < 2 before predict divides by r
                lambda h, a: sum(len(e) // a["r"] for e in h.edges)),
    "pad": Op("transform pad", (("to", INT),), "hypergraph",
              lambda h, a: pad_vertices(h, a["to"]),
              lambda h, a: h.num_edges),
}


def run_stage(
    name: str, source: BipartiteGraph | Hypergraph | None, args: dict, out: str
) -> tuple[BipartiteGraph | Hypergraph, int | None, GreedyReport | None]:
    """Run ``OPS[name]`` on ``source`` (None for a generator) with
    ``args`` as ``Op.run`` takes them and write the output to ``out``, a
    generator's as ``.bgt`` and a transform's as ``.hgt``; returns the
    output, its predicted edge count and, for ``greedy``, its report."""
    op = OPS[name]
    if op.needs is not None:
        check_input(op.command, op.needs, kind_of(source))
    value = op.run(source, args)
    greedy = None
    if isinstance(value, tuple):  # the greedy generator also returns its report
        value, greedy = value
    write_text_file(out, serialize_hypergraph(value) if op.needs else serialize_bipartite(value))
    return value, op.predict(source, args), greedy


def summary(obj: BipartiteGraph | Hypergraph) -> tuple[tuple[str, str], ...]:
    """The lines `report` prints, as (key, value) pairs, from the kind to
    the girth; report.txt records the same lines per stage."""

    def shown(value: int | None) -> str:
        return "-" if value is None else str(value)

    girth = (("girth", obj.girth_report.girth_str()),)
    if isinstance(obj, BipartiteGraph):
        return (
            ("kind", "bipartite"),
            ("left", str(obj.n_left)),
            ("right", str(obj.n_right)),
            ("incidences", str(obj.num_incidences)),
            ("left-degree", shown(only(obj.left_degrees))),
            ("right-degree", shown(only(obj.right_degrees))),
        ) + girth
    rep = validate(obj)
    return (
        ("kind", "hypergraph"),
        ("vertices", str(obj.num_vertices)),
        ("edges", str(obj.num_edges)),
        ("incidences", str(obj.incidence_count)),
        ("uniformity", "vacuous" if rep.uniformity_vacuous else shown(rep.uniformity)),
        ("regularity", shown(rep.regularity)),
        ("isolated", str(rep.isolated)),
    ) + girth


@record
class Stage:
    op: str
    args: tuple[tuple[str, str], ...]

    def render(self, value: Callable[[str], str] = str) -> str:
        """The stage line, each value shown by ``value``."""
        return " ".join([self.op] + [f"{k}={value(v)}" for k, v in self.args])


@record
class Recipe:
    target: int
    stages: tuple[Stage, ...]
    certify: tuple[tuple[str, str], ...] | None


def _parse_kv(tokens: list[str], lineno: int) -> tuple[tuple[str, str], ...]:
    pairs: dict[str, str] = {}
    for tok in tokens:
        key, _, value = tok.partition("=")
        if not key or not value:
            raise FormatError(f"line {lineno}: expected key=value, got {short_value(tok)}")
        if key in pairs:
            raise FormatError(f"line {lineno}: key {short_value(key)} given twice")
        pairs[key] = value
    return tuple(pairs.items())


def parse_recipe(text: str) -> Recipe:
    target: int | None = None
    magic_seen = False
    stages: list[Stage] = []
    certify: tuple[tuple[str, str], ...] | None = None
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not magic_seen:
            if line != "rcp 1":
                raise FormatError(f"line {lineno}: expected `rcp 1` header, got {short_value(line)}")
            magic_seen = True
        elif tokens[0] == "target":
            if target is not None or len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected a single `target <girth>` line")
            target = read_int(f"line {lineno}", "target girth", tokens[1])
            if target < 2:
                raise FormatError(f"line {lineno}: target girth must be >= 2")
        elif tokens[0] == "stage":
            if len(tokens) < 2:
                raise FormatError(f"line {lineno}: `stage` needs an operation")
            op = tokens[1]
            if op == "gen":
                kinds = sorted(name for name, row in OPS.items() if row.needs is None)
                if len(tokens) < 3 or tokens[2] not in kinds:
                    raise FormatError(f"line {lineno}: `stage gen` needs a kind in {kinds}")
                args = (("kind", tokens[2]),) + _parse_kv(tokens[3:], lineno)
                stages.append(Stage("gen", args))
            elif op in OPS and OPS[op].needs is not None:
                stages.append(Stage(op, _parse_kv(tokens[2:], lineno)))
            else:
                raise FormatError(f"line {lineno}: unknown stage op {short_value(op)}")
        elif tokens[0] == "certify":
            if certify is not None:
                raise FormatError(f"line {lineno}: only one `certify` line allowed")
            certify = _parse_kv(tokens[1:], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown directive {short_value(tokens[0])}")
    if not magic_seen:
        raise FormatError("line 1: empty recipe")
    if target is None:
        raise FormatError("line 1: recipe declares no target girth")
    if not stages:
        raise FormatError("line 1: recipe has no stages")
    return Recipe(target, tuple(stages), certify)


@record
class StageRecord:
    index: int
    op: str
    command: str
    check_command: str
    output_file: str
    summary: tuple[tuple[str, str], ...]  # kind first and girth last, as `report` prints it
    predicted_edges: int | None
    actual_edges: int
    wall_clock: float  # stdout only; omitted from the serialized report

    @property
    def kind(self) -> str:
        return self.summary[0][1]

    @property
    def girth(self) -> str:
        return self.summary[-1][1]


@record
class PipelineReport:
    target: int
    stages: tuple[StageRecord, ...]
    certificate_file: str | None
    certificate_status: str | None

    def serialize(self) -> str:
        lines = ["pipeline-report 1", f"target {int_to_decimal(self.target)}", f"stages {len(self.stages)}"]
        for s in self.stages:
            pe = "-" if s.predicted_edges is None else str(s.predicted_edges)
            lines += [
                f"stage {s.index} op {s.op}",
                f"stage {s.index} command {s.command}",
                f"stage {s.index} check {s.check_command}",
                f"stage {s.index} output {s.output_file}",
            ]
            lines += [f"stage {s.index} {k} {v}" for k, v in s.summary]
            lines += [
                f"stage {s.index} predicted-edges {pe}",
                f"stage {s.index} actual-edges {s.actual_edges}",
            ]
        if self.certificate_file is None:
            lines.append("certificate none")
        else:
            lines.append(f"certificate {self.certificate_file} {self.certificate_status}")
        return "\n".join(lines) + "\n"


def write_text_file(path: str, text: str) -> None:
    """Atomic write via a temp file: concurrent invocations never interleave.
    A failure is reported against ``path``, never the temp file."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _stage_template(where: str, spec: str) -> Hypergraph:
    """``resolve_template(spec)``, with any error naming ``where``."""
    try:
        return resolve_template(spec)
    except (Error, OSError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def op_args(name: str, raw: dict[str, str], where: str) -> dict:
    """``OPS[name]``'s ``Op.run`` arguments from their strings: a pad target
    over core.VERTEX_BUDGET is refused unconverted, then the integers are
    read and the templates resolved; every error names ``where``."""
    args = OPS[name].args
    if name == "pad" and DECIMAL.fullmatch(raw["to"]):
        check_vertex_budget(raw["to"], f"{where}: pad output hypergraph")
    values = {key: read_int(where, key, raw[key]) for key, kind in args if kind == INT}
    values.update((key, _stage_template(where, raw[key])) for key, kind in args if kind == TEMPLATE)
    return values


_SHOWN_KEYS = 5  # unknown keys a message shows before it counts the rest


def _check_keys(given: Iterable[str], wanted: Iterable[str], optional: Iterable[str], head: str) -> None:
    """Refuse a missing ``wanted`` key or a key in neither ``wanted`` nor
    ``optional``; ``head`` starts the message, which shows the first
    ``_SHOWN_KEYS`` unknown keys and counts the rest."""
    missing, unknown = sorted(set(wanted) - set(given)), sorted(set(given) - set(wanted) - set(optional))
    if missing or unknown:
        more = f" and {len(unknown) - _SHOWN_KEYS} more" if len(unknown) > _SHOWN_KEYS else ""
        shown = short_value(unknown[:_SHOWN_KEYS])
        raise PreconditionError(f"{head}, missing {short_value(missing)}, unknown {shown}{more}")


def _check_stages(stages: tuple[Stage, ...]) -> list[tuple[str, dict]]:
    """Check every stage against ``OPS`` before any stage runs: its keys
    and the kind of its input, then its values by ``op_args``; returns
    each stage's op name and ``Op.run`` arguments."""
    checked = []
    kind: str | None = None  # what the previous stage outputs
    for index, stage in enumerate(stages, start=1):
        where = f"stage {index}"
        name, label, pairs = stage.op, stage.op, dict(stage.args)
        if stage.op == "gen":
            name = stage.args[0][1]
            label, pairs = f"gen {name}", dict(stage.args[1:])
        op = OPS[name]
        wanted = [key for key, _ in op.args]
        _check_keys(pairs, wanted, (), f"{where}: {label} takes {wanted}")
        if op.needs is not None:
            if kind is None:
                raise PreconditionError(f"{where}: {name} needs a previous stage output")
            check_input(f"{where}: {name}", op.needs, kind)
        checked.append((name, op_args(name, pairs, where)))
        kind = "bipartite" if op.needs is None else "hypergraph"
    return checked


def plan_args(pairs: Iterable[tuple[str, str]], where: str) -> tuple[Route, int, int, int]:
    """The route, p, r and N of a plan request (the recipe `certify` line or
    the `plan` flags) from their strings; every error names ``where``."""
    values = dict(pairs)
    _check_keys(values, ("girth", "r", "N"), ("p",), f"{where} takes girth= r= N= and optional p=")
    girth = read_int(where, "girth", values["girth"])
    route = route_for(girth)
    p = read_int(where, "p", values["p"]) if "p" in values else None
    p = route.base_for(p, f"{where} girth={girth}")
    return route, p, read_int(where, "r", values["r"]), read_int(where, "N", values["N"])


def certify(route: Route, p: int, r: int, n_value: int, path: str) -> tuple[PlanResult, Certificate]:
    """Plan (m, n) for the vertex budget ``n_value``, build the certificate
    of the planned parameters and write it to ``path``; returns both."""
    plan = route.plan(p, r, n_value)
    cert = certificate(route.girth, p, plan.m, plan.n, r)
    write_text_file(path, cert.serialize())
    return plan, cert


def run_pipeline(recipe: Recipe, out_dir: str) -> tuple[PipelineReport, GreedyReport | None]:
    """Execute a recipe, writing one canonical artifact per stage plus a
    deterministic report; returns the report and the last greedy report."""
    if not out_dir.isascii():
        raise PreconditionError(f"output directory must be ASCII, got {ascii(out_dir)}")
    checked = _check_stages(recipe.stages)
    certify_args = None if recipe.certify is None else plan_args(recipe.certify, "certify")
    os.makedirs(out_dir, exist_ok=True)
    state: BipartiteGraph | Hypergraph | None = None
    records: list[StageRecord] = []
    last_greedy: GreedyReport | None = None
    prev_path: str | None = None

    for index, (stage, (name, args)) in enumerate(zip(recipe.stages, checked), start=1):
        t0 = time.monotonic()
        generator = OPS[name].needs is None
        out_name = f"stage_{index:02d}_{stage.op}.{'bgt' if generator else 'hgt'}"
        out_path = os.path.join(out_dir, out_name)
        state, predicted, greedy = run_stage(name, state, args, out_path)
        if greedy is not None:
            last_greedy = greedy
        girth, floor = state.girth_report.girth, (2 if generator else 1) * recipe.target
        if girth is not None and girth < floor:
            raise VerificationError(
                f"stage {index} ({stage.render(lambda v: short_decimal(v) if DECIMAL.fullmatch(v) else v)}): "
                f"girth {girth} fell below the declared floor {short_decimal(floor)}"
            )
        records.append(
            StageRecord(
                index,
                stage.render(),
                OPS[name].render(dict(stage.args), prev_path, out_path),  # its integers are canonical
                f"hypergirth report {out_path}",
                out_name,
                summary(state),
                predicted,
                state.num_incidences if generator else state.num_edges,
                time.monotonic() - t0,
            )
        )
        prev_path = out_path

    cert_file = cert_status = None
    if certify_args is not None:
        cert_file = "certificate.txt"
        cert_status = certify(*certify_args, os.path.join(out_dir, cert_file))[1].status

    report = PipelineReport(recipe.target, tuple(records), cert_file, cert_status)
    write_text_file(os.path.join(out_dir, "report.txt"), report.serialize())
    return report, last_greedy
