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

Wall-clock timings are collected in memory and shown on stdout but are
left out of the serialized report so repeated runs stay bit-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .arith import parse_decimal_int
from .certificate import certificate
from .core import BipartiteGraph, Hypergraph, validate
from .errors import FormatError, PreconditionError, VerificationError
from .formats import load_hypergraph, serialize_bipartite, serialize_hypergraph
from .geometry import GeometrySpec, GreedyReport
from .girth import girth_bipartite, girth_hypergraph
from .planner import Route, route_for
from .transforms import SubstitutionPlan, loose_path, neighborhood_hypergraph, split_edges, substitute_edges

GEN_KEYS = {
    "plane": {"q"},
    "quadrangle": {"q"},
    "hexagon": {"q"},
    "greedy": {"left", "right", "deg", "girth", "seed"},
}


def _int_value(where: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise PreconditionError(f"{where}: {key} must be an integer, got {value!r}") from None


def pad_vertices(h: Hypergraph, to: int) -> Hypergraph:
    """Raise the vertex count to exactly ``to`` by adding isolated
    vertices; exists to hit an exact vertex budget, so shrinking is an
    error."""
    if to < h.num_vertices:
        raise PreconditionError(f"cannot pad down: {h.num_vertices} vertices > target {to}")
    return Hypergraph(to, h.edges)


@dataclass(frozen=True)
class Stage:
    op: str
    args: tuple[tuple[str, str], ...]

    def arg_map(self) -> dict[str, str]:
        return dict(self.args)

    def render(self) -> str:
        parts = [self.op] + [f"{k}={v}" for k, v in self.args]
        return " ".join(parts)


@dataclass(frozen=True)
class Recipe:
    target: int
    stages: tuple[Stage, ...]
    certify: tuple[tuple[str, str], ...] | None


def _parse_kv(tokens: list[str], lineno: int) -> tuple[tuple[str, str], ...]:
    pairs = []
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"line {lineno}: expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if not key or not value:
            raise FormatError(f"line {lineno}: expected key=value, got {tok!r}")
        pairs.append((key, value))
    return tuple(pairs)


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
                target = int(tokens[1])
            except ValueError:
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
                if len(tokens) < 3 or tokens[2] not in GEN_KEYS:
                    raise FormatError(f"line {lineno}: `stage gen` needs a kind in {sorted(GEN_KEYS)}")
                args = (("kind", tokens[2]),) + _parse_kv(tokens[3:], lineno)
                stages.append(Stage("gen", args))
            elif op in ("nbhd", "substitute", "split", "pad"):
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
    kind: str
    summary: tuple[tuple[str, str], ...]
    girth: str
    predicted_edges: int | None
    actual_edges: int
    wall_clock: float  # stdout only; omitted from the serialized report


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
                f"stage {s.index} kind {s.kind}",
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


def resolve_template(token: str) -> Hypergraph:
    if token == "path7":
        return loose_path(3, 3)
    if token.startswith("loose-path:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise PreconditionError(f"template spec {token!r} is not loose-path:<edges>:<r>")
        return loose_path(_int_value(token, "edges", parts[1]), _int_value(token, "r", parts[2]))
    return load_hypergraph(token)


def _bipartite_summary(g: BipartiteGraph) -> tuple[tuple[str, str], ...]:
    ld = set(g.left_degrees)
    rd = set(g.right_degrees)
    return (
        ("left", str(g.n_left)),
        ("right", str(g.n_right)),
        ("incidences", str(g.num_incidences)),
        ("left-degree", str(ld.pop()) if len(ld) == 1 else "-"),
        ("right-degree", str(rd.pop()) if len(rd) == 1 else "-"),
    )


def _hypergraph_summary(h: Hypergraph) -> tuple[tuple[str, str], ...]:
    rep = validate(h)
    return (
        ("vertices", str(h.num_vertices)),
        ("edges", str(h.num_edges)),
        ("incidences", str(h.incidence_count)),
        ("uniformity", str(rep.uniformity) if rep.uniformity is not None else "-"),
        ("regularity", str(rep.regularity) if rep.regularity is not None else "-"),
        ("isolated", str(rep.isolated)),
    )


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
    certify = None if recipe.certify is None else _certify_args(recipe.certify)
    os.makedirs(out_dir, exist_ok=True)
    state: BipartiteGraph | Hypergraph | None = None
    records: list[StageRecord] = []
    last_greedy: GreedyReport | None = None
    prev_path: str | None = None

    for index, stage in enumerate(recipe.stages, start=1):
        t0 = time.monotonic()
        args = stage.arg_map()

        def num(key: str) -> int:
            return _int_value(f"stage {index}", key, args[key])

        predicted: int | None = None
        if stage.op == "gen":
            kind = args.pop("kind")
            missing = GEN_KEYS[kind] - set(args)
            extra = set(args) - GEN_KEYS[kind]
            if missing or extra:
                raise PreconditionError(
                    f"stage {index}: gen {kind} takes {sorted(GEN_KEYS[kind])}, "
                    f"missing {sorted(missing)}, unknown {sorted(extra)}"
                )
            if kind == "greedy":
                spec = GeometrySpec(
                    "greedy",
                    n_left=num("left"),
                    n_right=num("right"),
                    right_degree=num("deg"),
                    target_girth=num("girth"),
                    seed=num("seed"),
                )
                flags = (
                    f"--left {args['left']} --right {args['right']} --deg {args['deg']} "
                    f"--girth {args['girth']} --seed {args['seed']}"
                )
            else:
                spec = GeometrySpec(kind, q=num("q"))
                flags = f"--q {args['q']}"
                counts = {
                    "plane": lambda q: (q * q + q + 1) * (q + 1),
                    "quadrangle": lambda q: (q + 1) * (q * q + 1) * (q + 1),
                    "hexagon": lambda q: (q + 1) * (q**4 + q**2 + 1) * (q + 1),
                }
                predicted = counts[kind](num("q"))
            state, greedy = spec.build()
            if greedy is not None:
                last_greedy = greedy
            command = f"{program} gen {kind} {flags} {{out}}"
        elif state is None:
            raise PreconditionError(f"stage {index}: {stage.op} needs a previous stage output")
        elif stage.op == "nbhd":
            if not isinstance(state, BipartiteGraph):
                raise PreconditionError(f"stage {index}: nbhd needs a bipartite input")
            predicted = sum(1 for nb in state.right_neighbors if nb)
            state = neighborhood_hypergraph(state)
            command = f"{program} transform nbhd {prev_path} {{out}}"
        elif stage.op == "substitute":
            if not isinstance(state, Hypergraph):
                raise PreconditionError(f"stage {index}: substitute needs a hypergraph input")
            if set(args) != {"template", "k"}:
                raise PreconditionError(f"stage {index}: substitute takes template=<spec> k=<int>")
            template = resolve_template(args["template"])
            k = num("k")
            predicted = k * template.num_edges * state.num_edges
            state = substitute_edges(SubstitutionPlan(state, template, k))
            command = f"{program} transform substitute --template {args['template']} --k {k} {prev_path} {{out}}"
        elif stage.op == "split":
            if not isinstance(state, Hypergraph):
                raise PreconditionError(f"stage {index}: split needs a hypergraph input")
            if set(args) != {"r"}:
                raise PreconditionError(f"stage {index}: split takes r=<int>")
            r = num("r")
            out = split_edges(state, r)  # rejects r < 2 before the count divides by r
            predicted = sum(len(e) // r for e in state.edges)
            state = out
            command = f"{program} transform split --r {r} {prev_path} {{out}}"
        elif stage.op == "pad":
            if not isinstance(state, Hypergraph):
                raise PreconditionError(f"stage {index}: pad needs a hypergraph input")
            if set(args) != {"to"}:
                raise PreconditionError(f"stage {index}: pad takes to=<int>")
            predicted = state.num_edges
            state = pad_vertices(state, num("to"))
            command = f"{program} transform pad --to {args['to']} {prev_path} {{out}}"
        else:  # pragma: no cover - parse_recipe rejects unknown ops
            raise PreconditionError(f"stage {index}: unknown op {stage.op}")

        if isinstance(state, BipartiteGraph):
            kind_name, ext, text = "bipartite", "bgt", serialize_bipartite(state)
            girth_rep = girth_bipartite(state)
            floor = 2 * recipe.target
            summary = _bipartite_summary(state)
            actual_edges = state.num_incidences
        else:
            kind_name, ext, text = "hypergraph", "hgt", serialize_hypergraph(state)
            girth_rep = girth_hypergraph(state)
            floor = recipe.target
            summary = _hypergraph_summary(state)
            actual_edges = state.num_edges
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
                command.format(out=out_path),
                f"{program} report {out_path}",
                out_name,
                kind_name,
                summary,
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
