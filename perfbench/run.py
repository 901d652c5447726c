"""hypergirth benchmark.

    python3 perfbench/run.py --workload construct|recipe|certify --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to
this directory by absolute path.  One process, one thread, one
closed-loop client: a round runs the workload's fixed job list in order,
each job starting when the previous one has finished.  Inputs are made
from the seed before timing.  After a warm-up round (also used for the
checks' self-test) the benchmark runs a fixed number of rounds, derived
from ``--seconds`` and the workload's nominal round time, so that two
commits always run identical work.  Every output is checked after its
round; checking is not timed.  Times are reported at a reference host
speed, see hostspeed.py.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of alternating untraced and traced rounds.  The last line of
stdout is the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUP_SAMPLES = 9
TAIL_ABOVE = 10  # job_tail_s: highest percentile with at least this many jobs above it
_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import hypergirth.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup(speed) -> tuple[list[float], list[float]]:
    """(normalised, raw) seconds a fresh interpreter takes to import
    hypergirth.cli.  The first, unmeasured import writes the bytecode cache."""
    normalised, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            seconds = float(proc.stdout.strip().splitlines()[-1])
            raw.append(seconds)
            normalised.append(seconds * hostspeed.factor([speed.sample() for _ in range(3)]))
    return normalised, raw


def run_round(workload, work: Path, speed, tracer=None) -> tuple[float, list, dict, float]:
    """Run the job list once; returns (wall seconds, outcomes, round context,
    host-speed factor).  The host speed is sampled after each job, outside
    the job's time and the wall time."""
    from workloads import Outcome

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx: dict = {}
    outcomes, kernel = [], []
    start = time.perf_counter()
    for job in workload.jobs:
        span = None
        if tracer is not None:
            tracer.job = job.name
            span = tracer.open("bench.job")
        t = time.perf_counter()
        try:
            outcome = job.run(ctx)
        except Exception as exc:  # a failed job is counted, the round goes on
            outcome = Outcome(None, stderr=f"{type(exc).__name__}: {exc}")
        outcome.seconds = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        outcomes.append(outcome)
        kernel.append(speed.sample())
    return time.perf_counter() - start - sum(kernel), outcomes, ctx, hostspeed.factor(kernel)


def check_round(workload, outcomes, ctx) -> list[str]:
    failures = []
    for job, outcome in zip(workload.jobs, outcomes):
        if outcome.code is None:
            failures.append(f"{job.name}: raised {outcome.stderr}")
            continue
        try:
            job.check(outcome, ctx)
        except Exception as exc:
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
    return failures


def digest(work: Path, outcomes) -> str:
    """Hash of every artifact a round wrote and every certificate text it built."""
    h = hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes() + b"\0")
    for outcome in outcomes:
        if isinstance(outcome.value, str):
            h.update(outcome.value.encode() + b"\0")
    return h.hexdigest()


def self_test(workload, outcomes, ctx) -> list[str]:
    """Each check must reject a corrupted output; returns the problems found."""
    by_name = {job.name: o for job, o in zip(workload.jobs, outcomes)}
    try:
        attempts = workload.corruptions(by_name, ctx)
    except Exception as exc:  # the warm-up outputs are not what the corruptions start from
        return [f"self-test: cannot corrupt the warm-up outputs: {type(exc).__name__}: {exc}"]
    missed = []
    for label, attempt in attempts:
        try:
            attempt()
        except Exception:
            continue
        missed.append(f"self-test: the check accepted a {label}")
    return missed


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs above it): the highest percentile of the
    sample that still has TAIL_ABOVE samples above it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_ABOVE - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypergirth" / "__init__.py").is_file():
        print(f"error: no hypergirth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workloads, tmp)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def _run(args, workloads, tmp: Path) -> int:
    speed = hostspeed.HostSpeed()
    setup, raw_setup = ([], []) if args.trace else measure_setup(speed)

    inputs, work = tmp / "inputs", tmp / "work"
    inputs.mkdir(parents=True)
    work.mkdir()
    workload = workloads.WORKLOADS[args.workload](args.seed, inputs, work)
    rounds = max(MIN_ROUNDS, round(args.seconds / workload.nominal_round_s))

    attempted = failed = 0
    problems: list[str] = []

    def checked(outcomes, ctx, label: str) -> str:
        nonlocal attempted, failed
        failures = check_round(workload, outcomes, ctx)
        attempted += len(outcomes)
        failed += len(failures)
        problems.extend(f"{label}: {f}" for f in failures)
        return digest(work, outcomes)

    _, outcomes, ctx, _ = run_round(workload, work, speed)  # warm-up
    reference = checked(outcomes, ctx, "warm-up")
    problems += self_test(workload, outcomes, ctx)

    walls, raw_walls, job_times, layer_rounds = [], [], [], []
    per_job: list[list[float]] = [[] for _ in workload.jobs]
    tracer = tracing.Tracer()
    plan = [False] * rounds if not args.trace else [False, True] * max(1, rounds // 2)
    for number, traced in enumerate(plan, start=1):
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, outcomes, ctx, f = run_round(workload, work, speed, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(f)
            layers["trace.wall_s"] = wall * f
            layer_rounds.append(layers)
        else:
            wall, outcomes, ctx, f = run_round(workload, work, speed)
            walls.append(wall * f)
            raw_walls.append(wall)
            job_times += [o.seconds * f for o in outcomes]
            for times, o in zip(per_job, outcomes):
                times.append(o.seconds * f)
        if checked(outcomes, ctx, f"round {number}") != reference:
            problems.append(f"round {number}{' (traced)' if traced else ''}: artifacts differ from the warm-up round")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    lines = [f"workload {args.workload} seed {args.seed} rounds {len(plan)} "
             f"({'alternating untraced/traced' if args.trace else 'untraced'}) "
             f"jobs/round {len(workload.jobs)}",
             "inputs " + json.dumps(workload.sizes, sort_keys=True)]
    if args.trace:
        layers = tracing.median_metrics(layer_rounds)
        layers["trace.untraced_wall_s"] = wall_s
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        layers["trace.unaccounted_s"] = layers["trace.wall_s"] - layers["trace.jobs_s"]
        for r in layer_rounds:
            unaccounted = r["trace.wall_s"] - r["trace.jobs_s"]
            selves = sum(r[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
            if abs(unaccounted) > max(0.05, 0.02 * r["trace.wall_s"]) or abs(selves - r["trace.jobs_s"]) > 1e-6:
                problems.append(f"trace: spans account for {selves:.4f} s of a {r['trace.wall_s']:.4f} s round")
        del layers["trace.jobs_s"]
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(layers.items())}
        lines.append(f"per-layer values are medians of {len(layer_rounds)} traced rounds; "
                     f"trace.overhead_s against {len(walls)} untraced rounds")
        for k, v in sorted(layers.items()):
            lines.append(f"  {k:32s} {v:14.6g} {tracing.unit(k)}")
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)
    else:
        p50 = statistics.median(statistics.median(times) for times in per_job)
        tail_s, pct, above = tail(job_times)
        setup_s = statistics.median(setup)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "job_p50_s": {"value": p50, "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        lines += [
            "times are at the reference host speed, see perfbench/hostspeed.py; raw seconds in brackets",
            f"  setup_s      {setup_s:.4f} s   median of {len(setup)} fresh-interpreter imports "
            f"(raw {statistics.median(raw_setup):.4f})",
            f"  wall_s       {wall_s:.4f} s   median of {len(walls)} rounds of the job list: "
            + " ".join(f"{w:.3f} ({r:.3f})" for w, r in zip(walls, raw_walls)),
            f"  job_p50_s    {p50:.4f} s   median over the {len(per_job)} jobs of each job's median "
            f"over {len(walls)} rounds",
            f"  job_tail_s   {tail_s:.4f} s   p{math.floor(pct)} of {len(job_times)} jobs ({above} above it)",
            f"  peak_rss_mb  {peak_rss_mb:.1f} MB  getrusage maximum resident set of this process",
            f"  fail_ratio   {failed / attempted:.4f}     {failed} of {attempted} jobs, warm-up included",
        ]
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
