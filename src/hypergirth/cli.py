"""Command-line front end.

Subcommands: gen, transform, girth, plan, pipeline, report.  Every
command is deterministic given its arguments (seeds included) and writes
canonical, bit-exact artifacts.  Exit codes:

====  =========================================
0     success
2     command-line or file-format parse error
3     precondition or input-validation failure
4     resource budget exceeded
5     verification failure (girth cross-check mismatch,
      pipeline fail-fast, INVALID certificate)
====  =========================================

The oracle incidence budget can be overridden with the environment
variable HYPERGIRTH_ORACLE_BUDGET.
"""

from __future__ import annotations

import argparse
import os
import sys

from .arith import int_to_decimal, parse_decimal_int
from .certificate import certificate
from .core import BipartiteGraph, Hypergraph, validate
from .errors import (
    Error,
    FormatError,
    PreconditionError,
    ResourceBudgetError,
    ValidationError,
    VerificationError,
)
from .formats import (
    parse_bipartite,
    parse_hypergraph,
    serialize_bipartite,
    serialize_hypergraph,
)
from .geometry import GeometrySpec
from .girth import BergeCycle, girth_bipartite, girth_hypergraph, girth_oracle
from .pipeline import pad_vertices, parse_recipe, resolve_template, run_pipeline, write_text_file
from .planner import route_for, theorem_bound
from .transforms import SubstitutionPlan, neighborhood_hypergraph, split_edges, substitute_edges

EXIT_CODES = {
    FormatError: 2,
    PreconditionError: 3,
    ValidationError: 3,
    ResourceBudgetError: 4,
    VerificationError: 5,
}


def _load_any(path: str) -> BipartiteGraph | Hypergraph:
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = fh.read()
    first = text.split("\n", 1)[0]
    if first == "hgt 1":
        return parse_hypergraph(text)
    if first == "bgt 1":
        return parse_bipartite(text)
    raise FormatError(f"line 1: unknown magic {first!r} (expected `hgt 1` or `bgt 1`)")


def _load_hypergraph(path: str) -> Hypergraph:
    obj = _load_any(path)
    if not isinstance(obj, Hypergraph):
        raise PreconditionError(f"{path} holds a bipartite graph, need a hypergraph")
    return obj


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "greedy":
        spec = GeometrySpec(
            "greedy",
            n_left=args.left,
            n_right=args.right,
            right_degree=args.deg,
            target_girth=args.girth,
            seed=args.seed,
        )
    else:
        spec = GeometrySpec(args.kind, q=args.q)
    graph, greedy = spec.build()
    write_text_file(args.out, serialize_bipartite(graph))
    print(f"wrote {args.out} ({graph.n_left}+{graph.n_right} vertices, "
          f"{graph.num_incidences} incidences)")
    if greedy is not None:
        for line in greedy.lines():
            print(line)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    if args.op == "nbhd":
        graph = _load_any(args.input)
        if not isinstance(graph, BipartiteGraph):
            raise PreconditionError("transform nbhd needs a bipartite (`bgt 1`) input")
        out = neighborhood_hypergraph(graph)
    elif args.op == "substitute":
        if args.template is None or args.k is None:
            raise PreconditionError("transform substitute needs --template and --k")
        host = _load_hypergraph(args.input)
        out = substitute_edges(SubstitutionPlan(host, resolve_template(args.template), args.k))
    elif args.op == "split":
        if args.r is None:
            raise PreconditionError("transform split needs --r")
        out = split_edges(_load_hypergraph(args.input), args.r)
    else:  # pad
        if args.to is None:
            raise PreconditionError("transform pad needs --to")
        out = pad_vertices(_load_hypergraph(args.input), args.to)
    write_text_file(args.out, serialize_hypergraph(out))
    print(f"wrote {args.out} ({out.num_vertices} vertices, {out.num_edges} edges)")
    return 0


def _as_pair_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """A bipartite graph as its own 2-uniform hypergraph (right ids offset)."""
    edges = tuple(sorted((u, g.n_left + v) for u, v in g.incidences))
    return Hypergraph(g.n_left + g.n_right, edges)


def _cmd_girth(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    if isinstance(obj, Hypergraph):
        rep = girth_hypergraph(obj)
        oracle_target = obj
    else:
        rep = girth_bipartite(obj)
        oracle_target = _as_pair_hypergraph(obj)
    print(f"girth {'inf' if rep.girth is None else rep.girth}")
    if rep.witness is not None:
        if isinstance(rep.witness, BergeCycle):
            print("witness-vertices " + " ".join(map(str, rep.witness.vertices)))
            print("witness-edges " + " ".join(map(str, rep.witness.edge_indices)))
        else:
            print("witness " + " ".join(f"{s}{i}" for s, i in rep.witness.nodes))
    if args.oracle_max is not None:
        orep = girth_oracle(oracle_target, args.oracle_max)
        expected = rep.girth if rep.girth is not None and rep.girth <= args.oracle_max else None
        if orep.girth != expected:
            raise VerificationError(
                f"oracle (max-len {args.oracle_max}) found girth "
                f"{orep.girth_str()} but the fast path reported {rep.girth_str()}"
            )
        print(f"oracle-check ok max-len {args.oracle_max}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    n_value = parse_decimal_int(args.N)
    route = route_for(args.girth)
    p = route.base_for(args.p, f"plan --girth {args.girth}")
    plan = route.plan(p, args.r, n_value)
    order = route.order(p, plan.m, plan.n)
    vertices = route.v(order.expand())
    bound = route.edge_bound(p, plan.m, plan.n)
    theorem = theorem_bound(args.girth, p, n_value)
    cert = certificate(args.girth, p, plan.m, plan.n, args.r)
    print(f"planned-m {plan.m}")
    print(f"planned-n {plan.n}")
    print(f"seed-m {plan.m_star}")
    print(f"seed-n {plan.n_star}")
    print(f"seed-vertices {int_to_decimal(plan.seed_vertices)}")
    print(f"order {order}")
    print(f"vertices {int_to_decimal(vertices)}")
    print(f"edge-bound {bound}")
    print(f"theorem-exponent {theorem.exponent!r}")
    print(f"derived-constant {theorem.derived_constant!r}")
    write_text_file(args.cert, cert.serialize())
    status = "VALID" if cert.valid else "INVALID"
    print(f"certificate {args.cert} {status}")
    return 0 if cert.valid else EXIT_CODES[VerificationError]


def _cmd_pipeline(args: argparse.Namespace) -> int:
    with open(args.recipe, "r", encoding="ascii", newline="") as fh:
        recipe = parse_recipe(fh.read())
    report, greedy = run_pipeline(recipe, args.out_dir)
    for s in report.stages:
        print(f"stage {s.index} {s.op}: kind {s.kind} girth {s.girth} "
              f"edges {s.actual_edges} [{s.wall_clock:.3f}s]")
    if report.certificate_file is not None:
        print(f"certificate {report.certificate_file} {report.certificate_status}")
    print(f"report {os.path.join(args.out_dir, 'report.txt')}")
    if report.certificate_status == "INVALID":
        return EXIT_CODES[VerificationError]
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    obj = _load_any(args.input)
    if isinstance(obj, Hypergraph):
        rep = validate(obj)
        print("kind hypergraph")
        print(f"vertices {obj.num_vertices}")
        print(f"edges {obj.num_edges}")
        print(f"incidences {obj.incidence_count}")
        uniformity = "-" if rep.uniformity is None else str(rep.uniformity)
        if rep.uniformity_vacuous:
            uniformity = "vacuous"
        print(f"uniformity {uniformity}")
        print(f"regularity {'-' if rep.regularity is None else rep.regularity}")
        print(f"isolated {rep.isolated}")
        print(f"girth {girth_hypergraph(obj).girth_str()}")
    else:
        print("kind bipartite")
        print(f"left {obj.n_left}")
        print(f"right {obj.n_right}")
        print(f"incidences {obj.num_incidences}")
        ld, rd = set(obj.left_degrees), set(obj.right_degrees)
        print(f"left-degree {ld.pop() if len(ld) == 1 else '-'}")
        print(f"right-degree {rd.pop() if len(rd) == 1 else '-'}")
        print(f"girth {girth_bipartite(obj).girth_str()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergirth",
        description="Construct, transform, verify and certify high-girth uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a bipartite incidence graph")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("plane", "quadrangle", "hexagon"):
        g = gen_sub.add_parser(kind, help=f"{kind} incidence graph")
        g.add_argument("--q", type=int, required=True, help="prime order")
        g.add_argument("out", help="output .bgt path")
    greedy = gen_sub.add_parser("greedy", help="seeded greedy high-girth bipartite graph")
    greedy.add_argument("--left", type=int, required=True)
    greedy.add_argument("--right", type=int, required=True)
    greedy.add_argument("--deg", type=int, required=True, help="right-degree cap")
    greedy.add_argument("--girth", type=int, required=True, help="guaranteed girth floor")
    greedy.add_argument("--seed", type=int, required=True)
    greedy.add_argument("out", help="output .bgt path")

    tr = sub.add_parser("transform", help="apply a hypergraph transform")
    tr.add_argument("op", choices=("nbhd", "substitute", "split", "pad"))
    tr.add_argument("input", help="input .hgt/.bgt path")
    tr.add_argument("out", help="output .hgt path")
    tr.add_argument("--template", help="substitute: path7, loose-path:<edges>:<r>, or a .hgt file")
    tr.add_argument("--k", type=int, help="substitute: copies per edge")
    tr.add_argument("--r", type=int, help="split: edge size")
    tr.add_argument("--to", type=int, help="pad: total vertex count")

    gr = sub.add_parser("girth", help="compute exact girth (optionally oracle-checked)")
    gr.add_argument("input", help="input .hgt/.bgt path")
    gr.add_argument("--oracle-max", type=int, default=None,
                    help="cross-check with the brute-force oracle up to this length")

    plan = sub.add_parser("plan", help="pick (m, n) for a vertex budget and certify")
    plan.add_argument("--girth", type=int, choices=(6, 8), required=True)
    plan.add_argument("--p", type=int, default=None, help="prime base (girth 6)")
    plan.add_argument("--r", type=int, required=True, help="edge uniformity")
    plan.add_argument("--N", required=True, help="vertex budget (decimal string)")
    plan.add_argument("--cert", default="certificate.txt", help="certificate output path")

    pipe = sub.add_parser("pipeline", help="run a recipe file")
    pipe.add_argument("recipe", help="recipe (.rcp) path")
    pipe.add_argument("--out-dir", required=True, help="artifact output directory")

    rep = sub.add_parser("report", help="print a structure/girth report")
    rep.add_argument("input", help="input .hgt/.bgt path")
    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "transform": _cmd_transform,
    "girth": _cmd_girth,
    "plan": _cmd_plan,
    "pipeline": _cmd_pipeline,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except Error as exc:
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
