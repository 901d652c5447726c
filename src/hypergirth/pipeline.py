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
re-runnable command.  Every stage is checked against its row before any
stage runs.

Wall-clock timings are collected in memory and shown on stdout but are
left out of the serialized report so repeated runs stay bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from .arith import parse_decimal_int
from .certificate import certificate
from .core import BipartiteGraph, Hypergraph, validate
from .errors import Error, FormatError, PreconditionError, VerificationError
from .formats import load, serialize_bipartite, serialize_hypergraph
from .geometry import (
    PER_SIDE,
    GreedyReport,
    greedy_high_girth_bipartite,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)
from .girth import GirthReport, girth_bipartite, girth_hypergraph
from .planner import Route, route_for
from .transforms import SubstitutionPlan, loose_path, neighborhood_hypergraph, split_edges, substitute_edges


def _int_value(where: str, key: str, value: str) -> int:
    try:
        return parse_decimal_int(value)
    except PreconditionError:
        raise PreconditionError(f"{where}: {key} must be an integer, got {value!r}") from None


def pad_vertices(h: Hypergraph, to: int) -> Hypergraph:
    """Raise the vertex count to exactly ``to`` by adding isolated
    vertices; exists to hit an exact vertex budget, so shrinking is an
    error."""
    if to < h.num_vertices:
        raise PreconditionError(f"cannot pad down: {h.num_vertices} vertices > target {to}")
    return Hypergraph(to, h.edges)


def resolve_template(token: str) -> Hypergraph:
    if token == "path7":
        return loose_path(3, 3)
    if token.startswith("loose-path:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise PreconditionError(f"template spec {token!r} is not loose-path:<edges>:<r>")
        return loose_path(_int_value(token, "edges", parts[1]), _int_value(token, "r", parts[2]))
    template = load(token)
    check_input(f"template {token}", "hypergraph", kind_of(template))
    return template


def kind_of(obj: BipartiteGraph | Hypergraph) -> str:
    return "bipartite" if isinstance(obj, BipartiteGraph) else "hypergraph"


def check_input(where: str, needs: str, kind: str) -> None:
    if kind != needs:
        raise PreconditionError(f"{where} needs a {needs} input, got a {kind}")


INT, TEMPLATE = "int", "template"  # argument types: an integer, or a spec for resolve_template


@dataclass(frozen=True)
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

    def render(self, program: str, values: dict, source: str | None, out: str) -> str:
        """The re-runnable command line that writes this op's output to ``out``."""
        flags = [f"--{key} {values[key]}" for key, _ in self.args]
        return " ".join([program, self.command, *flags, *([source] if self.needs else []), out])


def _geometry_incidences(kind: str) -> Callable:
    return lambda _, a: PER_SIDE[kind](a["q"]) * (a["q"] + 1)


OPS: dict[str, Op] = {
    "plane": Op("gen plane", (("q", INT),), None,
                lambda _, a: projective_plane(a["q"]), _geometry_incidences("plane")),
    "quadrangle": Op("gen quadrangle", (("q", INT),), None,
                     lambda _, a: symplectic_quadrangle(a["q"]), _geometry_incidences("quadrangle")),
    "hexagon": Op("gen hexagon", (("q", INT),), None,
                  lambda _, a: split_cayley_hexagon(a["q"]), _geometry_incidences("hexagon")),
    "greedy": Op("gen greedy", tuple((key, INT) for key in ("left", "right", "deg", "girth", "seed")), None,
                 lambda _, a: greedy_high_girth_bipartite(a["left"], a["right"], a["deg"], a["girth"], a["seed"]),
                 lambda _, a: None),
    "nbhd": Op("transform nbhd", (), "bipartite",
               lambda g, a: neighborhood_hypergraph(g),
               lambda g, a: sum(1 for nb in g.right_neighbors if nb)),
    "substitute": Op("transform substitute", (("template", TEMPLATE), ("k", INT)), "hypergraph",
                     lambda h, a: substitute_edges(SubstitutionPlan(h, a["template"], a["k"])),
                     lambda h, a: a["k"] * a["template"].num_edges * h.num_edges),
    "split": Op("transform split", (("r", INT),), "hypergraph",
                lambda h, a: split_edges(h, a["r"]),  # rejects r < 2 before predict divides by r
                lambda h, a: sum(len(e) // a["r"] for e in h.edges)),
    "pad": Op("transform pad", (("to", INT),), "hypergraph",
              lambda h, a: pad_vertices(h, a["to"]),
              lambda h, a: h.num_edges),
}


def check_keys(where: str, wanted: list[str], given: list[str]) -> None:
    missing = sorted(set(wanted) - set(given))
    unknown = sorted(set(given) - set(wanted))
    if missing or unknown:
        raise PreconditionError(f"{where} takes {wanted}, missing {missing}, unknown {unknown}")


def run_op(
    name: str, source: BipartiteGraph | Hypergraph | None, values: dict
) -> tuple[BipartiteGraph | Hypergraph, int | None, GreedyReport | None]:
    """Run ``OPS[name]`` on ``source`` (None for a generator) with checked
    values; returns the output, its predicted edge count and, for
    ``greedy``, its report."""
    op = OPS[name]
    args = {key: resolve_template(values[key]) if kind == TEMPLATE else values[key] for key, kind in op.args}
    out = op.run(source, args)
    greedy = None
    if isinstance(out, tuple):  # the greedy generator also returns its report
        out, greedy = out
    return out, op.predict(source, args), greedy


def summary(obj: BipartiteGraph | Hypergraph) -> tuple[tuple[str, str], ...]:
    """The lines `report` prints before the girth, as (key, value) pairs,
    starting with the kind; report.txt records the same lines per stage."""

    def only(values) -> str:
        distinct = set(values)
        return str(distinct.pop()) if len(distinct) == 1 else "-"

    if isinstance(obj, BipartiteGraph):
        return (
            ("kind", "bipartite"),
            ("left", str(obj.n_left)),
            ("right", str(obj.n_right)),
            ("incidences", str(obj.num_incidences)),
            ("left-degree", only(obj.left_degrees)),
            ("right-degree", only(obj.right_degrees)),
        )
    rep = validate(obj)
    uniformity = "-" if rep.uniformity is None else str(rep.uniformity)
    return (
        ("kind", "hypergraph"),
        ("vertices", str(obj.num_vertices)),
        ("edges", str(obj.num_edges)),
        ("incidences", str(obj.incidence_count)),
        ("uniformity", "vacuous" if rep.uniformity_vacuous else uniformity),
        ("regularity", "-" if rep.regularity is None else str(rep.regularity)),
        ("isolated", str(rep.isolated)),
    )


def girth_of(obj: BipartiteGraph | Hypergraph) -> GirthReport:
    return girth_bipartite(obj) if isinstance(obj, BipartiteGraph) else girth_hypergraph(obj)


@dataclass(frozen=True)
class Stage:
    op: str
    args: tuple[tuple[str, str], ...]

    def render(self) -> str:
        parts = [self.op] + [f"{k}={v}" for k, v in self.args]
        return " ".join(parts)


@dataclass(frozen=True)
class Recipe:
    target: int
    stages: tuple[Stage, ...]
    certify: tuple[tuple[str, str], ...] | None


def _parse_kv(tokens: list[str], lineno: int) -> tuple[tuple[str, str], ...]:
    pairs: dict[str, str] = {}
    for tok in tokens:
        key, _, value = tok.partition("=")
        if not key or not value:
            raise FormatError(f"line {lineno}: expected key=value, got {tok!r}")
        if key in pairs:
            raise FormatError(f"line {lineno}: key {key!r} given twice")
        pairs[key] = value
    return tuple(pairs.items())


def parse_recipe(text: str) -> Recipe:
    if "\r" in text:
        raise FormatError("line 1: carriage return not allowed (LF line endings only)")
    target: int | None = None
    magic_seen = False
    stages: list[Stage] = []
    certify: tuple[tuple[str, str], ...] | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not magic_seen:
            if line != "rcp 1":
                raise FormatError(f"line {lineno}: expected `rcp 1` header, got {line!r}")
            magic_seen = True
        elif tokens[0] == "target":
            if target is not None or len(tokens) != 2:
                raise FormatError(f"line {lineno}: expected a single `target <girth>` line")
            try:
                target = parse_decimal_int(tokens[1])
            except Error:
                raise FormatError(
                    f"line {lineno}: target girth must be an integer, got {tokens[1]!r}"
                ) from None
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
                raise FormatError(f"line {lineno}: unknown stage op {op!r}")
        elif tokens[0] == "certify":
            if certify is not None:
                raise FormatError(f"line {lineno}: only one `certify` line allowed")
            certify = _parse_kv(tokens[1:], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if not magic_seen:
        raise FormatError("line 1: empty recipe")
    if target is None:
        raise FormatError("line 1: recipe declares no target girth")
    if not stages:
        raise FormatError("line 1: recipe has no stages")
    return Recipe(target, tuple(stages), certify)


@dataclass(frozen=True)
class StageRecord:
    index: int
    op: str
    command: str
    check_command: str
    output_file: str
    summary: tuple[tuple[str, str], ...]  # kind first, as `report` prints it
    girth: str
    predicted_edges: int | None
    actual_edges: int
    wall_clock: float  # stdout only; omitted from the serialized report

    @property
    def kind(self) -> str:
        return self.summary[0][1]


@dataclass(frozen=True)
class PipelineReport:
    target: int
    stages: tuple[StageRecord, ...]
    certificate_file: str | None
    certificate_status: str | None

    def serialize(self) -> str:
        lines = ["pipeline-report 1", f"target {self.target}", f"stages {len(self.stages)}"]
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
                f"stage {s.index} girth {s.girth}",
                f"stage {s.index} predicted-edges {pe}",
                f"stage {s.index} actual-edges {s.actual_edges}",
            ]
        if self.certificate_file is None:
            lines.append("certificate none")
        else:
            lines.append(f"certificate {self.certificate_file} {self.certificate_status}")
        return "\n".join(lines) + "\n"


def write_text_file(path: str, text: str) -> None:
    """Atomic write via a temp file: concurrent invocations never interleave."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _check_stages(stages: tuple[Stage, ...]) -> list[tuple[str, dict]]:
    """Check every stage against ``OPS`` before any stage runs: its keys,
    its integer values and the kind of its input; returns each stage's op
    name and values."""
    checked = []
    kind: str | None = None  # what the previous stage outputs
    for index, stage in enumerate(stages, start=1):
        where = f"stage {index}"
        name, label, pairs = stage.op, stage.op, dict(stage.args)
        if stage.op == "gen":
            name = stage.args[0][1]
            label, pairs = f"gen {name}", dict(stage.args[1:])
        op = OPS[name]
        check_keys(f"{where}: {label}", [key for key, _ in op.args], list(pairs))
        if op.needs is not None:
            if kind is None:
                raise PreconditionError(f"{where}: {name} needs a previous stage output")
            check_input(f"{where}: {name}", op.needs, kind)
        values = {key: _int_value(where, key, pairs[key]) if t == INT else pairs[key] for key, t in op.args}
        checked.append((name, values))
        kind = "bipartite" if op.needs is None else "hypergraph"
    return checked


def _certify_args(pairs: tuple[tuple[str, str], ...]) -> tuple[Route, int, int, int]:
    """Check the `certify` line against its route before any stage runs."""
    cargs = dict(pairs)
    missing = {"girth", "r", "N"} - set(cargs)
    unknown = set(cargs) - {"girth", "r", "N", "p"}
    if missing or unknown:
        raise PreconditionError(
            f"certify takes girth= r= N= and optional p=, missing {sorted(missing)}, "
            f"unknown {sorted(unknown)}"
        )
    girth = _int_value("certify", "girth", cargs["girth"])
    route = route_for(girth)
    p = _int_value("certify", "p", cargs["p"]) if "p" in cargs else None
    p = route.base_for(p, f"certify girth={girth}")
    return route, p, _int_value("certify", "r", cargs["r"]), parse_decimal_int(cargs["N"])


def run_pipeline(recipe: Recipe, out_dir: str, program: str = "hypergirth") -> tuple[PipelineReport, GreedyReport | None]:
    """Execute a recipe, writing one canonical artifact per stage plus a
    deterministic report; returns the report and the last greedy report."""
    checked = _check_stages(recipe.stages)
    certify = None if recipe.certify is None else _certify_args(recipe.certify)
    os.makedirs(out_dir, exist_ok=True)
    state: BipartiteGraph | Hypergraph | None = None
    records: list[StageRecord] = []
    last_greedy: GreedyReport | None = None
    prev_path: str | None = None

    for index, (stage, (name, values)) in enumerate(zip(recipe.stages, checked), start=1):
        t0 = time.monotonic()
        state, predicted, greedy = run_op(name, state, values)
        if greedy is not None:
            last_greedy = greedy
        if isinstance(state, BipartiteGraph):
            ext, text, floor = "bgt", serialize_bipartite(state), 2 * recipe.target
            actual_edges = state.num_incidences
        else:
            ext, text, floor = "hgt", serialize_hypergraph(state), recipe.target
            actual_edges = state.num_edges
        girth_rep = girth_of(state)
        out_name = f"stage_{index:02d}_{stage.op}.{ext}"
        out_path = os.path.join(out_dir, out_name)
        write_text_file(out_path, text)
        if girth_rep.girth is not None and girth_rep.girth < floor:
            raise VerificationError(
                f"stage {index} ({stage.render()}): girth {girth_rep.girth} fell below "
                f"the declared floor {floor}"
            )
        records.append(
            StageRecord(
                index,
                stage.render(),
                OPS[name].render(program, values, prev_path, out_path),
                f"{program} report {out_path}",
                out_name,
                summary(state),
                girth_rep.girth_str(),
                predicted,
                actual_edges,
                time.monotonic() - t0,
            )
        )
        prev_path = out_path

    cert_file: str | None = None
    cert_status: str | None = None
    if certify is not None:
        route, p, r, n_value = certify
        plan = route.plan(p, r, n_value)
        cert = certificate(route.girth, p, plan.m, plan.n, r)
        cert_file = "certificate.txt"
        write_text_file(os.path.join(out_dir, cert_file), cert.serialize())
        cert_status = "VALID" if cert.valid else "INVALID"

    report = PipelineReport(recipe.target, tuple(records), cert_file, cert_status)
    write_text_file(os.path.join(out_dir, "report.txt"), report.serialize())
    return report, last_greedy
