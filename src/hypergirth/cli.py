"""Command-line front end.

Subcommands: gen, transform, girth, plan, pipeline, report.  Every
command is deterministic given its arguments (seeds included) and writes
canonical, bit-exact artifacts, but this module neither reads nor writes
them: it reads its flags through pipeline and formats.read_int, calls one
pipeline or formats function per command (``run_stage`` writes every stage
file, ``certify`` every certificate) and prints.  Exit codes:

====  =========================================
0     success
2     command-line or file-format parse error
3     precondition or input-validation failure
4     resource budget exceeded
5     verification failure (girth cross-check mismatch,
      pipeline fail-fast, INVALID certificate)
====  =========================================

Each row of pipeline.OPS is one subcommand, ``gen <kind>`` or
``transform <op>``, that takes exactly the row's flags, all required, and
runs through one handler; a missing or unknown flag exits 2.  The oracle
refuses more than girth.ORACLE_INCIDENCE_BUDGET (2000) incidences, ``gen
greedy`` a grid of more than geometry.GREEDY_PAIR_BUDGET (4*10^6) left x
right pairs, every command a structure of more than core.VERTEX_BUDGET
(5*10^6) vertices, ``gen plane|quadrangle|hexagon`` a geometry of more
incidences than that, and every command an integer of more than 10^6
digits (the digit budget of hypergirth.arith), with exit 4; none of these
budgets has an override.  Flags are read by pipeline's readers of recipe
lines, before any file is loaded, and each integer by formats.read_int,
as a recipe's or a certificate's is: one that is not a canonical decimal
(``1_1``, ``+3``, ``03``) exits 2.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from .arith import int_to_decimal, short_decimal, show
from .core import BipartiteGraph, Hypergraph
from .errors import Error, FormatError, PreconditionError, ResourceBudgetError, ValidationError, VerificationError
from .formats import load, read_ascii, read_int
from .girth import BergeCycle, girth_oracle
from .pipeline import OPS, certify, op_args, parse_recipe, plan_args, run_pipeline, run_stage, summary
from .planner import theorem_bound
from .transforms import EmptySplitWarning

EXIT_CODES = {
    FormatError: 2,
    PreconditionError: 3,
    ValidationError: 3,
    ResourceBudgetError: 4,
    VerificationError: 5,
    OSError: 3,  # a file that cannot be read or written
}

_HELP = {
    "greedy": "seeded greedy high-girth bipartite graph",
    "nbhd": "hypergraph of the right-vertex neighbourhoods",
    "substitute": "replace each edge by copies of a template",
    "split": "split each edge into r-element edges",
    "pad": "add isolated vertices",
    "q": "prime order",
    "deg": "right-degree cap",
    "girth": "guaranteed girth floor",
    "template": "path7, loose-path:<edges>:<r>, or a .hgt file",
    "k": "copies per edge",
    "r": "edge size",
    "to": "total vertex count",
}


def _cmd_op(args: argparse.Namespace) -> int:
    """Run one ``gen`` or ``transform`` row of OPS and write its output."""
    op = OPS[args.op]
    values = op_args(args.op, {key: getattr(args, key) for key, _ in op.args}, op.command)
    source = load(args.input) if op.needs else None
    out, _, greedy = run_stage(args.op, source, values, args.out)
    if op.needs is None:
        print(f"wrote {args.out} ({out.n_left}+{out.n_right} vertices, {out.num_incidences} incidences)")
    else:
        print(f"wrote {args.out} ({out.num_vertices} vertices, {out.num_edges} edges)")
    if greedy is not None:
        for line in greedy.lines():
            print(line)
    return 0


def _as_pair_hypergraph(g: BipartiteGraph) -> Hypergraph:
    """A bipartite graph as its own 2-uniform hypergraph (right ids offset)."""
    edges = tuple((u, g.n_left + v) for u, vs in enumerate(g.left_neighbors) for v in vs)
    return Hypergraph(g.n_left + g.n_right, edges)


def _cmd_girth(args: argparse.Namespace) -> int:
    oracle_max = None if args.oracle_max is None else read_int("girth", "oracle-max", args.oracle_max)
    obj = load(args.input)
    rep = obj.girth_report
    # Printed only once the oracle agrees, so a failing command writes nothing.
    lines = [f"girth {rep.girth_str()}"]
    if rep.witness is not None:
        if isinstance(rep.witness, BergeCycle):
            lines.append("witness-vertices " + " ".join(map(str, rep.witness.vertices)))
            lines.append("witness-edges " + " ".join(map(str, rep.witness.edge_indices)))
        else:
            lines.append("witness " + " ".join(f"{s}{i}" for s, i in rep.witness.nodes))
    if oracle_max is not None:
        orep = girth_oracle(obj if isinstance(obj, Hypergraph) else _as_pair_hypergraph(obj), oracle_max)
        expected = rep.girth if rep.girth is not None and rep.girth <= oracle_max else None
        if orep.girth != expected:
            raise VerificationError(
                f"oracle (max-len {short_decimal(oracle_max)}) found girth "
                f"{orep.girth_str()} but the fast path reported {rep.girth_str()}"
            )
        lines.append(f"oracle-check ok max-len {int_to_decimal(oracle_max)}")
    print("\n".join(lines))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    given = [(key, getattr(args, key)) for key in ("girth", "p", "r", "N") if getattr(args, key) is not None]
    route, p, r, n_value = plan_args(given, "plan")
    plan, cert = certify(route, p, r, n_value, args.cert)  # before any output, so a failing write prints nothing
    theorem = theorem_bound(route.girth, p, n_value)
    values = dict(cert.values)  # a planned (m, n) passes every premise, so all values are there
    print(f"planned-m {plan.m}")
    print(f"planned-n {plan.n}")
    print(f"seed-m {plan.m_star}")
    print(f"seed-n {plan.n_star}")
    print(f"seed-vertices {int_to_decimal(plan.seed_vertices)}")
    print(f"order {values[f'order_{plan.n}']}")
    print(f"vertices {values['vertices']}")
    print(f"edge-bound {values['edge_bound']}")
    print(f"theorem-exponent {theorem.exponent!r}")
    print(f"derived-constant {theorem.derived_constant!r}")
    print(f"certificate {args.cert} {cert.status}")
    return 0 if cert.valid else EXIT_CODES[VerificationError]


def _cmd_pipeline(args: argparse.Namespace) -> int:
    recipe = parse_recipe(read_ascii(args.recipe))
    report, _ = run_pipeline(recipe, args.out_dir)
    for s in report.stages:
        print(f"stage {s.index} {s.op}: kind {s.kind} girth {s.girth} "
              f"edges {s.actual_edges} [{s.wall_clock:.3f}s]")
    if report.certificate_file is not None:
        print(f"certificate {report.certificate_file} {report.certificate_status}")
    print(f"report {os.path.join(args.out_dir, 'report.txt')}")
    return EXIT_CODES[VerificationError] if report.certificate_status == "INVALID" else 0


def _cmd_report(args: argparse.Namespace) -> int:
    obj = load(args.input)
    for key, value in summary(obj):
        print(f"{key} {value}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call, so callers only parse with it."""
    parser = argparse.ArgumentParser(
        prog="hypergirth",
        description="Construct, transform, verify and certify high-girth uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a bipartite incidence graph").add_subparsers(dest="op", required=True)
    tr = sub.add_parser("transform", help="apply a hypergraph transform").add_subparsers(dest="op", required=True)
    for name, op in OPS.items():
        o = (tr if op.needs else gen).add_parser(name, help=_HELP.get(name, f"{name} incidence graph"))
        for key, _ in op.args:
            o.add_argument(f"--{key}", required=True, help=_HELP.get(key))
        if op.needs:
            o.add_argument("input", help="input .hgt/.bgt path")
        o.add_argument("out", help="output .hgt path" if op.needs else "output .bgt path")

    gr = sub.add_parser("girth", help="compute exact girth (optionally oracle-checked)")
    gr.add_argument("input", help="input .hgt/.bgt path")
    gr.add_argument("--oracle-max", help="cross-check with the brute-force oracle up to this length")

    plan = sub.add_parser("plan", help="pick (m, n) for a vertex budget and certify")
    plan.add_argument("--girth", choices=("6", "8"), required=True)
    plan.add_argument("--p", help="prime base (girth 6)")
    plan.add_argument("--r", required=True, help="edge uniformity")
    plan.add_argument("--N", required=True, help="vertex budget")
    plan.add_argument("--cert", default="certificate.txt", help="certificate output path")

    pipe = sub.add_parser("pipeline", help="run a recipe file")
    pipe.add_argument("recipe", help="recipe (.rcp) path")
    pipe.add_argument("--out-dir", required=True, help="artifact output directory")

    rep = sub.add_parser("report", help="print a structure/girth report")
    rep.add_argument("input", help="input .hgt/.bgt path")
    return parser


_DISPATCH = {
    "gen": _cmd_op,
    "transform": _cmd_op,
    "girth": _cmd_girth,
    "plan": _cmd_plan,
    "pipeline": _cmd_pipeline,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.simplefilter("always", EmptySplitWarning)  # one line per empty split, whatever -W says
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return _DISPATCH[args.command](args)
        except (Error, OSError) as exc:
            print(f"error: {show(exc)}", file=sys.stderr)  # an OSError's path cut as show cuts it
            return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
