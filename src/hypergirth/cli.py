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
from .core import BipartiteGraph, Hypergraph
from .errors import (
    Error,
    FormatError,
    PreconditionError,
    ResourceBudgetError,
    ValidationError,
    VerificationError,
)
from .formats import load, read_ascii, serialize_bipartite, serialize_hypergraph
from .girth import BergeCycle, girth_bipartite, girth_hypergraph, girth_oracle
from .pipeline import (
    INT,
    OPS,
    check_input,
    check_keys,
    girth_of,
    kind_of,
    parse_recipe,
    run_op,
    run_pipeline,
    summary,
    write_text_file,
)
from .planner import route_for, theorem_bound

EXIT_CODES = {
    FormatError: 2,
    PreconditionError: 3,
    ValidationError: 3,
    ResourceBudgetError: 4,
    VerificationError: 5,
}

_HELP = {
    "greedy": "seeded greedy high-girth bipartite graph",
    "q": "prime order",
    "deg": "right-degree cap",
    "girth": "guaranteed girth floor",
    "template": "substitute: path7, loose-path:<edges>:<r>, or a .hgt file",
    "k": "substitute: copies per edge",
    "r": "split: edge size",
    "to": "pad: total vertex count",
}


def _cmd_gen(args: argparse.Namespace) -> int:
    values = {key: getattr(args, key) for key, _ in OPS[args.kind].args}
    graph, _, greedy = run_op(args.kind, None, values)
    write_text_file(args.out, serialize_bipartite(graph))
    print(f"wrote {args.out} ({graph.n_left}+{graph.n_right} vertices, "
          f"{graph.num_incidences} incidences)")
    if greedy is not None:
        for line in greedy.lines():
            print(line)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    op = OPS[args.op]
    given = [key for key in _transform_keys() if getattr(args, key) is not None]
    check_keys(f"transform {args.op}", [f"--{key}" for key, _ in op.args], [f"--{key}" for key in given])
    source = load(args.input)
    check_input(f"transform {args.op}", op.needs, kind_of(source))
    out, _, _ = run_op(args.op, source, {key: getattr(args, key) for key in given})
    write_text_file(args.out, serialize_hypergraph(out))
    print(f"wrote {args.out} ({out.num_vertices} vertices, {out.num_edges} edges)")
    return 0


def _as_pair_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """A bipartite graph as its own 2-uniform hypergraph (right ids offset)."""
    edges = tuple(sorted((u, g.n_left + v) for u, v in g.incidences))
    return Hypergraph(g.n_left + g.n_right, edges)


def _cmd_girth(args: argparse.Namespace) -> int:
    obj = load(args.input)
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
    recipe = parse_recipe(read_ascii(args.recipe))
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
    obj = load(args.input)
    for key, value in summary(obj):
        print(f"{key} {value}")
    print(f"girth {girth_of(obj).girth_str()}")
    return 0


def _transform_keys() -> dict[str, str]:
    """Every transform flag, with its type, in table order."""
    return {key: kind for op in OPS.values() if op.needs for key, kind in op.args}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergirth",
        description="Construct, transform, verify and certify high-girth uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a bipartite incidence graph")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for name, op in OPS.items():
        if op.needs is None:
            g = gen_sub.add_parser(name, help=_HELP.get(name, f"{name} incidence graph"))
            for key, _ in op.args:
                g.add_argument(f"--{key}", type=int, required=True, help=_HELP.get(key))
            g.add_argument("out", help="output .bgt path")

    tr = sub.add_parser("transform", help="apply a hypergraph transform")
    tr.add_argument("op", choices=[name for name, op in OPS.items() if op.needs])
    tr.add_argument("input", help="input .hgt/.bgt path")
    tr.add_argument("out", help="output .hgt path")
    for key, kind in _transform_keys().items():
        tr.add_argument(f"--{key}", type=int if kind == INT else str, help=_HELP[key])

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
