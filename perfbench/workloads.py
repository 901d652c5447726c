"""The three workloads: seeded inputs, the fixed job list, and the checks.

A workload object is built from a seed before any timing starts: it
writes its input files (relabelled `.bgt` graphs, recipes) and fixes
every argument (N strings, (p, r) pairs, big integers).  ``jobs`` is the
list one round runs in order, each job waiting for the previous one.
A job is one CLI command run in-process through ``hypergirth.cli.main``,
or a call to a public library function that has no CLI command.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hypergirth
import hypergirth.cli
from checks import (
    CheckError,
    check_bipartite_witness,
    check_berge_witness,
    check_exponent_value,
    check_floored_exponent,
    check_plan_sandwich,
    neighborhood_edges,
    parse_bgt,
    printed,
    require,
    serialize_bgt,
    serialize_hgt,
    substrate_vertices,
    unlimited_int_digits,
)

# Bound here, before any tracing, so checks and input generation never
# call a traced function.
_projective_plane = hypergirth.projective_plane
_symplectic_quadrangle = hypergirth.symplectic_quadrangle
_split_cayley_hexagon = hypergirth.split_cayley_hexagon
_serialize_bipartite = hypergirth.serialize_bipartite
_parse_bipartite = hypergirth.parse_bipartite
_parse_hypergraph = hypergirth.parse_hypergraph
_serialize_hypergraph = hypergirth.serialize_hypergraph
_reverify_certificate = hypergirth.reverify_certificate


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    seconds: float = 0.0


@dataclass
class Job:
    name: str
    run: Callable[[dict], Outcome]
    check: Callable[[Outcome, dict], None]


def run_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            # looked up at call time, so an installed trace wrapper is used
            code = hypergirth.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return Outcome(code, out.getvalue(), err.getvalue())


def cli_job(name: str, argv, check: Callable[[Outcome, dict], None]) -> Job:
    """``argv`` is a list, or a function of the round context giving one."""

    def run(ctx: dict) -> Outcome:
        return run_cli([str(a) for a in (argv(ctx) if callable(argv) else argv)])

    def full_check(outcome: Outcome, ctx: dict) -> None:
        require(outcome.code == 0, f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}")
        check(outcome, ctx)

    return Job(name, run, full_check)


def read_text(path: Path) -> str:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return fh.read()


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def expect_lines(outcome: Outcome, expected: dict[str, str]) -> None:
    got = printed(outcome.stdout)
    for key, value in expected.items():
        require(got.get(key) == value, f"`{key}` printed {got.get(key)!r}, expected {value!r}")


def check_certificate_text(text: str, header: dict[str, int]) -> None:
    """VALID, header as requested, and re-verifies bit for bit."""
    lines = text.split("\n")
    for i, key in enumerate(("girth", "p", "m", "n", "r"), start=1):
        require(lines[i] == f"{key} {header[key]}", f"certificate line {i + 1} is {lines[i]!r}")
    require(lines[6] == "status VALID", f"certificate status line is {lines[6]!r}")
    try:
        _reverify_certificate(text)
    except hypergirth.Error as exc:
        raise CheckError(f"certificate does not re-verify: {exc}") from exc


# ================================================================ construct

# (kind, q, bipartite girth); H(5) waits until girth and geometry are faster
GEOMETRIES = [("plane", 11, 6), ("plane", 13, 6), ("quadrangle", 5, 8),
              ("quadrangle", 7, 8), ("hexagon", 2, 12), ("hexagon", 3, 12)]
ORACLE_INCIDENCES = 2000  # the oracle's default incidence budget


def per_side(kind: str, q: int) -> int:
    return {"plane": q * q + q + 1,
            "quadrangle": (q + 1) * (q * q + 1),
            "hexagon": (q + 1) * (q**4 + q**2 + 1)}[kind]


class Construct:
    """Generalized polygons: build each once, then girth, nbhd, report and
    the oracle on a seed-permuted relabelling of it."""

    name = "construct"
    nominal_round_s = 6.5

    def __init__(self, seed: int, inputs: Path, work: Path):
        rng = random.Random(f"construct:{seed}")
        builders = {"plane": _projective_plane, "quadrangle": _symplectic_quadrangle,
                    "hexagon": _split_cayley_hexagon}
        self.jobs: list[Job] = []
        self.sizes: dict[str, object] = {}
        self._witness_job = ""
        for kind, q, girth in GEOMETRIES:
            tag = f"{kind}{q}"
            canonical = _serialize_bipartite(builders[kind](q))
            n_left, n_right, pairs = parse_bgt(canonical)
            left, right = list(range(n_left)), list(range(n_right))
            rng.shuffle(left)
            rng.shuffle(right)
            relabelled = sorted((left[u], right[v]) for u, v in pairs)
            bgt = inputs / f"{tag}.bgt"
            write_text(bgt, serialize_bgt(n_left, n_right, relabelled))
            hgt = work / f"{tag}.hgt"
            edges = neighborhood_edges(n_right, relabelled)
            self.sizes[tag] = {"vertices": n_left + n_right, "incidences": len(pairs)}
            self._add(kind, q, girth, tag, canonical, bgt, hgt, set(relabelled), edges, work)

    def _add(self, kind, q, girth, tag, canonical, bgt, hgt, incidences, edges, work) -> None:
        n, deg = per_side(kind, q), q + 1
        gen_out = work / f"gen_{tag}.bgt"

        def check_gen(o: Outcome, ctx: dict) -> None:
            text = read_text(gen_out)
            n_left, n_right, pairs = parse_bgt(text)
            require((n_left, n_right, len(pairs)) == (n, n, n * deg), f"{tag}: wrong counts")
            left_deg, right_deg = [0] * n, [0] * n
            for u, v in pairs:
                left_deg[u] += 1
                right_deg[v] += 1
            require(set(left_deg) == {deg} == set(right_deg), f"{tag}: not {deg}-biregular")
            require(text == canonical, f"{tag}: gen output differs from the set-up build")

        def check_girth(o: Outcome, ctx: dict) -> None:
            got = printed(o.stdout)
            require(got.get("girth") == str(girth), f"{tag}: girth {got.get('girth')}, theory says {girth}")
            check_bipartite_witness(got.get("witness", ""), girth, incidences)

        expected_hgt = serialize_hgt(n, edges)

        def check_nbhd(o: Outcome, ctx: dict) -> None:
            require(read_text(hgt) == expected_hgt, f"{tag}: nbhd output is not the neighborhood hypergraph")

        def check_report(o: Outcome, ctx: dict) -> None:
            expect_lines(o, {"kind": "hypergraph", "vertices": str(n), "edges": str(n),
                             "incidences": str(n * deg), "uniformity": str(deg),
                             "regularity": str(deg), "isolated": "0", "girth": str(girth // 2)})

        def check_oracle(o: Outcome, ctx: dict) -> None:
            got = printed(o.stdout)
            require(got.get("girth") == str(girth // 2), f"{tag}: hypergraph girth {got.get('girth')}")
            check_berge_witness(got.get("witness-vertices", ""), got.get("witness-edges", ""),
                                girth // 2, edges)
            require(got.get("oracle-check") == f"ok max-len {girth // 2}", f"{tag}: no oracle-check ok")

        self.jobs += [
            cli_job(f"gen:{tag}", ["gen", kind, "--q", q, gen_out], check_gen),
            cli_job(f"girth:{tag}", ["girth", bgt], check_girth),
            cli_job(f"nbhd:{tag}", ["transform", "nbhd", bgt, hgt], check_nbhd),
            cli_job(f"report:{tag}", ["report", hgt], check_report),
        ]
        if n * deg <= ORACLE_INCIDENCES:
            self.jobs.append(cli_job(f"oracle:{tag}", ["girth", hgt, "--oracle-max", girth // 2], check_oracle))
        self._witness_job = f"girth:{tag}"

    def corruptions(self, outcomes: dict[str, Outcome], ctx: dict) -> list[tuple[str, Callable[[], None]]]:
        job = next(j for j in self.jobs if j.name == self._witness_job)
        lines = outcomes[job.name].stdout.split("\n")
        wit = next(i for i, line in enumerate(lines) if line.startswith("witness "))
        nodes = lines[wit].split(" ")
        swapped = list(lines)
        swapped[wit] = " ".join([nodes[0], nodes[2], nodes[1]] + nodes[3:])
        low = list(lines)
        low[0] = f"girth {int(lines[0].split(' ')[1]) - 2}"
        return [
            ("tampered witness", lambda: job.check(Outcome(0, "\n".join(swapped)), ctx)),
            ("wrong girth line", lambda: job.check(Outcome(0, "\n".join(low)), ctx)),
        ]


# =================================================================== recipe


def _parse_report(text: str) -> tuple[dict[int, dict[str, str]], str]:
    stages: dict[int, dict[str, str]] = {}
    cert = ""
    for line in text.splitlines():
        parts = line.split(" ", 3)
        if parts[0] == "stage" and len(parts) == 4:
            stages.setdefault(int(parts[1]), {})[parts[2]] = parts[3]
        elif parts[0] == "certificate":
            cert = line
    return stages, cert


class Recipe:
    """Three seeded recipe pipelines, then a replay of every recorded
    transform command and a report on every stage artifact."""

    name = "recipe"
    nominal_round_s = 8.5

    def __init__(self, seed: int, inputs: Path, work: Path):
        rng = random.Random(f"recipe:{seed}")
        greedy_seed = rng.randrange(1, 10**6)
        cert_p = rng.choice((2, 3, 5, 7))
        recipes = [
            (5, [("gen", "greedy left=500 right=100 deg=10 girth=10 seed=%d" % greedy_seed),
                 ("nbhd", ""), ("split", "r=2"), ("pad", f"to={rng.randrange(520, 640)}")],
             None),
            (3, [("gen", "plane q=13"), ("nbhd", ""), ("substitute", "template=path7 k=2"),
                 ("split", "r=2"), ("pad", f"to={rng.randrange(190, 260)}")],
             {"girth": 6, "p": cert_p, "r": rng.randint(2, 5), "N": _digits_string(rng, rng.randint(30, 60))}),
            (4, [("gen", "quadrangle q=7"), ("nbhd", ""), ("substitute", "template=path7 k=1"),
                 ("split", "r=2")],
             {"girth": 8, "r": rng.randint(2, 5), "N": _digits_string(rng, rng.randint(30, 60))}),
        ]
        self.jobs: list[Job] = []
        self.sizes: dict[str, object] = {"greedy_seed": greedy_seed}
        self._replay_job = ""
        for number, (target, stages, certify) in enumerate(recipes, start=1):
            lines = ["rcp 1", f"target {target}"]
            lines += [f"stage {op} {args}".rstrip() for op, args in stages]
            if certify is not None:
                lines.append("certify " + " ".join(f"{k}={v}" for k, v in certify.items()))
                self.sizes[f"recipe{number}_N_digits"] = len(certify["N"])
            rcp = inputs / f"recipe{number}.rcp"
            write_text(rcp, "\n".join(lines) + "\n")
            self._add(number, target, [op for op, _ in stages], certify, rcp, work / f"recipe{number}", work)

    def _add(self, number, target, ops, certify, rcp, out_dir, work) -> None:
        files = [f"stage_{i:02d}_{op}.{'bgt' if op == 'gen' else 'hgt'}" for i, op in enumerate(ops, start=1)]
        floors = [2 * target if op == "gen" else target for op in ops]

        def check_pipeline(o: Outcome, ctx: dict) -> None:
            stages, cert_line = _parse_report(read_text(out_dir / "report.txt"))
            require(sorted(stages) == list(range(1, len(ops) + 1)), f"recipe {number}: wrong stage list")
            for i, (name, floor) in enumerate(zip(files, floors), start=1):
                s = stages[i]
                require(s.get("output") == name, f"recipe {number} stage {i}: output {s.get('output')}")
                girth = s.get("girth", "")
                require(girth == "inf" or (girth.isdigit() and int(girth) >= floor),
                        f"recipe {number} stage {i}: girth {girth} below the floor {floor}")
                text = read_text(out_dir / name)
                if name.endswith(".bgt"):
                    round_trip = _serialize_bipartite(_parse_bipartite(text))
                else:
                    round_trip = _serialize_hypergraph(_parse_hypergraph(text))
                require(round_trip == text, f"recipe {number} stage {i}: artifact does not round-trip")
            if certify is None:
                require(cert_line == "certificate none", f"recipe {number}: {cert_line!r}")
                return
            require(cert_line == "certificate certificate.txt VALID", f"recipe {number}: {cert_line!r}")
            text = read_text(out_dir / "certificate.txt")
            head = printed(text)
            check_certificate_text(text, {"girth": certify["girth"], "p": certify.get("p", 2),
                                          "m": head["m"], "n": head["n"], "r": certify["r"]})

        self.jobs.append(cli_job(f"pipeline:{number}", ["pipeline", rcp, "--out-dir", out_dir], check_pipeline))

        for i, (name, op) in enumerate(zip(files, ops), start=1):
            if op == "gen":
                continue
            artifact = out_dir / name
            replay = work / f"replay{number}_{name}"

            def argv(ctx: dict, i=i, artifact=artifact, replay=replay) -> list[str]:
                stages, _ = _parse_report(read_text(out_dir / "report.txt"))
                command = stages[i]["command"]
                prefix = "hypergirth transform "
                require(command.startswith(prefix) and command.endswith(" " + str(artifact)),
                        f"recipe {number} stage {i}: unexpected command {command!r}")
                return command[len(prefix):-len(str(artifact))].split() + [str(replay)]

            def check_replay(o: Outcome, ctx: dict, artifact=artifact, replay=replay) -> None:
                require(replay.read_bytes() == artifact.read_bytes(), f"replay of {artifact.name} differs")

            self.jobs.append(cli_job(f"replay:{number}:{i}", lambda ctx, argv=argv: ["transform"] + argv(ctx),
                                     check_replay))
            self._replay_job = f"replay:{number}:{i}"
            self._replay_file = replay

        for i, (name, floor) in enumerate(zip(files, floors), start=1):

            def check_report(o: Outcome, ctx: dict, i=i, floor=floor) -> None:
                stages, _ = _parse_report(read_text(out_dir / "report.txt"))
                s = stages[i]
                keys = [k for k in s if k not in ("op", "command", "check", "output", "predicted-edges",
                                                   "actual-edges")]
                expect_lines(o, {k: s[k] for k in keys})
                girth = printed(o.stdout)["girth"]
                require(girth == "inf" or int(girth) >= floor, f"report girth {girth} below floor {floor}")

            self.jobs.append(cli_job(f"report:{number}:{i}", ["report", out_dir / name], check_report))
            self._report_job = f"report:{number}:{i}"

    def corruptions(self, outcomes: dict[str, Outcome], ctx: dict) -> list[tuple[str, Callable[[], None]]]:
        replay = next(j for j in self.jobs if j.name == self._replay_job)
        report = next(j for j in self.jobs if j.name == self._report_job)
        good = self._replay_file.read_bytes()

        def flipped_replay() -> None:
            self._replay_file.write_bytes(good[:-2] + bytes([good[-2] ^ 1]) + good[-1:])
            try:
                replay.check(outcomes[replay.name], ctx)
            finally:
                self._replay_file.write_bytes(good)

        lower = "\n".join("girth 2" if line.startswith("girth ") else line
                          for line in outcomes[report.name].stdout.split("\n"))
        return [
            ("non-identical replay", flipped_replay),
            ("girth below floor", lambda: report.check(Outcome(0, lower), ctx)),
        ]


def _digits_string(rng: random.Random, digits: int, lead: str = "") -> str:
    """A ``digits``-digit decimal string starting with ``lead``, the rest drawn from ``rng``."""
    head = lead or str(rng.randint(1, 9))
    return head + "".join(rng.choice("0123456789") for _ in range(digits - len(head)))


# ================================================================== certify

# (girth, p, digits of N): plan jobs from 50 to 10000 digits.  At about
# 12000 digits `plan` is refused by the digit budget, so stay below.
PLANS = [(6, 2, 50), (6, 3, 1000), (6, 5, 4000), (6, 7, 7000), (6, 11, 10000), (8, None, 200),
         (8, None, 9500)]
# The leading digits of each N are fixed and the seed draws the rest: the
# planner's search path, and so its cost, depends on the leading digits only.
LEAD_DIGITS = 24
# (girth, p, m, n, r) for direct certificate() calls
CERTIFICATES = [(6, 5, 2, 4, 3), (6, 3, 3, 4, 3), (8, None, 7, 3, 3)]


class Certify:
    """The bignum route: plan, certificate and re-verify, theorem_bound."""

    name = "certify"
    nominal_round_s = 8.0

    def __init__(self, seed: int, inputs: Path, work: Path):
        rng = random.Random(f"certify:{seed}")
        self.jobs: list[Job] = []
        self.sizes: dict[str, object] = {"plan_N_digits": [], "theorem_N_bits": []}
        lead_rng = random.Random("certify-leading-digits")
        for i, (girth, p, digits) in enumerate(PLANS, start=1):
            n_text = _digits_string(rng, digits, _digits_string(lead_rng, LEAD_DIGITS))
            self.sizes["plan_N_digits"].append(len(n_text))
            self._add_plan(i, girth, p, rng.randint(2, 5), n_text, work / f"plan{i}.cert")
        for i, (girth, p, m, n, r) in enumerate(CERTIFICATES, start=1):
            self._add_certificate(i, girth, p, m, n, r)
        theorem_inputs = [
            # random N: cost is low whatever the size
            (6, rng.choice((2, 3, 5, 7, 11)), rng.getrandbits(10**6) | 1 << (10**6 - 1)),
            (8, None, rng.getrandbits(3 * 10**5) | 1 << (3 * 10**5 - 1)),
            (6, rng.choice((2, 3, 5, 7, 11)), rng.getrandbits(10**5) | 1 << (10**5 - 1)),
            (8, None, rng.getrandbits(3 * 10**4) | 1 << (3 * 10**4 - 1)),
            # round N, the budgets users type: cost follows the trailing zero bits
            (6, 2, 1 << (10**6 - rng.randrange(1000))),
            (8, None, 10 ** (5 * 10**4 - rng.randrange(1000))),
            (6, 3, 10 ** (10**5 - rng.randrange(1000))),
            (8, None, 1 << (3 * 10**5 - rng.randrange(1000))),
        ]
        for i, (girth, p, n_value) in enumerate(theorem_inputs, start=1):
            self.sizes["theorem_N_bits"].append(n_value.bit_length())
            self._add_theorem(i, girth, p, n_value)

    def _add_plan(self, i, girth, p, r, n_text, cert) -> None:
        argv = ["plan", "--girth", girth, "--r", r, "--N", n_text, "--cert", cert]
        if p is not None:
            argv += ["--p", p]
        base = 2 if p is None else p

        def check(o: Outcome, ctx: dict) -> None:
            got = printed(o.stdout)
            m, n = int(got["planned-m"]), int(got["planned-n"])
            with unlimited_int_digits():
                n_value = int(n_text)
            check_plan_sandwich(girth, base, m, n, n_value, got["vertices"])
            check_exponent_value(girth, base, n_value, float(got["theorem-exponent"]))
            require(got.get("certificate") == f"{cert} VALID", f"plan {i}: {got.get('certificate')!r}")
            check_certificate_text(read_text(cert), {"girth": girth, "p": base, "m": m, "n": n, "r": r})

        self.jobs.append(cli_job(f"plan:{i}", argv, check))

    def _add_certificate(self, i, girth, p, m, n, r) -> None:
        key = f"cert{i}"
        header = {"girth": girth, "p": 2 if p is None else p, "m": m, "n": n, "r": r}

        def build(ctx: dict) -> Outcome:
            ctx[key] = hypergirth.certificate(girth, p, m, n, r).serialize()
            return Outcome(0, value=ctx[key])

        def check_build(o: Outcome, ctx: dict) -> None:
            text = o.value
            lines = text.split("\n")
            require(lines[6] == "status VALID", f"certificate {i}: {lines[6]!r}")
            with unlimited_int_digits():
                vertices = str(substrate_vertices(girth, header["p"], m, n))
            require(f"value vertices {vertices}" in lines, f"certificate {i}: vertex count is not v(q_n)")
            self._cert_text = text
            self._cert_header = header

        def reverify(ctx: dict) -> Outcome:
            return Outcome(0, value=hypergirth.reverify_certificate(ctx[key]))

        def check_reverify(o: Outcome, ctx: dict) -> None:
            require(o.value.valid and o.value.serialize() == ctx[key], f"certificate {i}: re-verify differs")

        self.jobs += [Job(f"certificate:{i}", build, check_build),
                      Job(f"reverify:{i}", reverify, check_reverify)]

    def _add_theorem(self, i, girth, p, n_value) -> None:
        def run(ctx: dict) -> Outcome:
            return Outcome(0, value=hypergirth.theorem_bound(girth, p, n_value))

        def check(o: Outcome, ctx: dict) -> None:
            tb = o.value
            require(tb.girth == girth and tb.bound.base == n_value, f"theorem {i}: wrong girth or base")
            check_floored_exponent(girth, p, n_value, tb.bound.exponent)
            check_exponent_value(girth, p, n_value, tb.exponent)

        self.jobs.append(Job(f"theorem:{i}", run, check))
        self._theorem_job = f"theorem:{i}"

    def corruptions(self, outcomes: dict[str, Outcome], ctx: dict) -> list[tuple[str, Callable[[], None]]]:
        lines = self._cert_text.split("\n")
        value = next(k for k, line in enumerate(lines) if line.startswith("value vertices "))
        flipped_value = list(lines)
        flipped_value[value] = lines[value][:-1] + ("1" if lines[value][-1] != "1" else "2")
        check = next(k for k, line in enumerate(lines) if line.startswith("check edge-bound PASS"))
        flipped_check = list(lines)
        flipped_check[check] = lines[check].replace(" PASS ", " FAIL ")
        theorem = next(j for j in self.jobs if j.name == self._theorem_job)
        tb = outcomes[theorem.name].value
        raised = type(tb)(tb.girth, tb.exponent,
                          hypergirth.PowerExpr(tb.bound.base, tb.bound.exponent + Fraction(1, 72)),
                          tb.derived_constant)
        header = self._cert_header
        return [
            ("flipped certificate value line",
             lambda: check_certificate_text("\n".join(flipped_value), header)),
            ("flipped certificate check line",
             lambda: check_certificate_text("\n".join(flipped_check), header)),
            ("floored exponent raised by 1/72", lambda: theorem.check(Outcome(0, value=raised), ctx)),
        ]


WORKLOADS = {w.name: w for w in (Construct, Recipe, Certify)}
