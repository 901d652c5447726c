"""Span tracing installed from outside the program.

``Tracer.install`` replaces each public function in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent, job id) and a few
size counters.  The wrapper is bound under every name the package knows
the function by: the defining module and every module that imported it,
e.g. ``hypergirth.geometry.girth_bipartite`` and
``hypergirth.cli.certificate``.  ``Tracer.uninstall`` puts the originals
back and verifies that no wrapper is left anywhere in the package.
No file of the program is changed.

A span's self time is its duration minus the durations of its direct
children; spans nest because the benchmark runs one job at a time in one
thread.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict


def _digits(value: int) -> int:
    """Decimal digits of a nonnegative int, from its bit length (may be 1 low)."""
    return int(value.bit_length() * 0.30102999566398120) + 1


# (module, function, span name, counter) -- counter(args, result) -> {metric: increment}
TARGETS = [
    ("geometry", "projective_plane", "geometry.build",
     lambda a, r: {"geometry.build_calls": 1, "geometry.incidences": r.num_incidences}),
    ("geometry", "symplectic_quadrangle", "geometry.build",
     lambda a, r: {"geometry.build_calls": 1, "geometry.incidences": r.num_incidences}),
    ("geometry", "split_cayley_hexagon", "geometry.build",
     lambda a, r: {"geometry.build_calls": 1, "geometry.incidences": r.num_incidences}),
    ("geometry", "greedy_high_girth_bipartite", "geometry.greedy",
     lambda a, r: {"geometry.greedy_proposals": a[0] * a[1], "geometry.greedy_accepted": r[1].accepted}),
    ("girth", "girth_bipartite", "girth.bfs",
     lambda a, r: {"girth.bfs_calls": 1, "girth.bfs_vertices": a[0].n_left + a[0].n_right}),
    ("girth", "girth_hypergraph", "girth.hyper", None),
    ("girth", "girth_oracle", "girth.oracle",
     lambda a, r: {"girth.oracle_incidences": a[0].incidence_count}),
    ("core", "incidence_graph", "core.incidence_graph", None),
    ("core", "validate", "core.validate", None),
    ("transforms", "neighborhood_hypergraph", "transforms.nbhd",
     lambda a, r: {"transforms.edges_out": r.num_edges}),
    ("transforms", "substitute_edges", "transforms.substitute",
     lambda a, r: {"transforms.edges_out": r.num_edges}),
    ("transforms", "split_edges", "transforms.split",
     lambda a, r: {"transforms.edges_out": r.num_edges}),
    ("formats", "serialize_hypergraph", "formats.serialize", lambda a, r: {"formats.bytes_out": len(r)}),
    ("formats", "serialize_bipartite", "formats.serialize", lambda a, r: {"formats.bytes_out": len(r)}),
    ("formats", "parse_hypergraph", "formats.parse", lambda a, r: {"formats.bytes_in": len(a[0])}),
    ("formats", "parse_bipartite", "formats.parse", lambda a, r: {"formats.bytes_in": len(a[0])}),
    ("pipeline", "run_pipeline", "pipeline.run", lambda a, r: {"pipeline.stages": len(r[0].stages)}),
    ("pipeline", "parse_recipe", "pipeline.parse_recipe", None),
    ("pipeline", "pad_vertices", "pipeline.pad", None),
    ("pipeline", "resolve_template", "pipeline.template", None),
    ("pipeline", "write_text_file", "pipeline.write_file", None),
    ("cli", "main", "cli.main", lambda a, r: {"cli.commands": 1}),
    ("planner", "plan_parameters_hexagon", "planner.plan", lambda a, r: {"planner.n_digits": _digits(a[2])}),
    ("planner", "plan_parameters_octagon", "planner.plan", lambda a, r: {"planner.n_digits": _digits(a[1])}),
    ("planner", "theorem_bound", "planner.theorem_bound", None),
    ("certificate", "certificate", "certificate.build",
     lambda a, r: {"certificate.value_digits": sum(len(v) for _, v in r.values)}),
    ("certificate", "reverify_certificate", "certificate.reverify", None),
    ("certificate", "parse_certificate", "certificate.parse", None),
    ("arith", "checked_pow", "arith.pow", lambda a, r: {"arith.pow_digits": _digits(r)}),
    ("arith", "parse_decimal_int", "arith.parse_decimal", None),
    ("arith", "int_to_decimal", "arith.to_decimal", None),
]
# (module, class, method, span name)
METHOD_TARGETS = [("certificate", "Certificate", "serialize", "certificate.serialize")]

LAYERS = ("geometry", "girth", "core", "transforms", "formats", "pipeline", "planner",
          "certificate", "arith", "cli")

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                tracer.counts.update(counter(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        setattr(wrapper, _MARK, True)
        return wrapper

    # ----------------------------------------------------- install/remove

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"hypergirth.{mod}"], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)
        for mod, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(sys.modules[f"hypergirth.{mod}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, None))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
        leftover = [
            f"{module.__name__}.{key}"
            for module in _package_modules()
            for key, value in vars(module).items()
            if getattr(value, _MARK, False)
        ]
        for mod, cls_name, method, _ in METHOD_TARGETS:
            cls = getattr(sys.modules[f"hypergirth.{mod}"], cls_name)
            if getattr(cls.__dict__[method], _MARK, False):
                leftover.append(f"{cls_name}.{method}")
        if leftover:
            raise RuntimeError(f"trace wrappers left installed: {leftover}")

    # --------------------------------------------------------- aggregates

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-layer times and counts of the spans recorded since reset();
        every time is multiplied by ``scale``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        selfcheck = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = (end - start) * scale
            self_s[name] += duration - child_time[i]
            total_s[name] += duration
            if name == "girth.bfs" and parent >= 0 and spans[parent][0] == "geometry.build":
                selfcheck += duration
        c = self.counts
        m: dict[str, float] = {
            "geometry.build_s": self_s["geometry.build"],
            "geometry.build_calls": c["geometry.build_calls"],
            "geometry.incidences": c["geometry.incidences"],
            "geometry.selfcheck_s": selfcheck,
            "geometry.greedy_s": self_s["geometry.greedy"],
            "geometry.greedy_proposals": c["geometry.greedy_proposals"],
            "geometry.greedy_accept_ratio": _ratio(c["geometry.greedy_accepted"], c["geometry.greedy_proposals"]),
            "girth.bfs_s": self_s["girth.bfs"],
            "girth.bfs_calls": c["girth.bfs_calls"],
            "girth.bfs_vertices": c["girth.bfs_vertices"],
            "girth.bfs_vertices_per_s": _ratio(c["girth.bfs_vertices"], self_s["girth.bfs"]),
            "girth.hyper_s": self_s["girth.hyper"],
            "girth.oracle_s": self_s["girth.oracle"],
            "girth.oracle_incidences": c["girth.oracle_incidences"],
            "core.incidence_graph_s": self_s["core.incidence_graph"],
            "core.validate_s": self_s["core.validate"],
            "transforms.nbhd_s": self_s["transforms.nbhd"],
            "transforms.substitute_s": self_s["transforms.substitute"],
            "transforms.split_s": self_s["transforms.split"],
            "transforms.edges_out": c["transforms.edges_out"],
            "formats.serialize_s": self_s["formats.serialize"],
            "formats.parse_s": self_s["formats.parse"],
            "formats.bytes_out": c["formats.bytes_out"],
            "formats.bytes_in": c["formats.bytes_in"],
            "pipeline.run_s": total_s["pipeline.run"],
            "pipeline.stages": c["pipeline.stages"],
            "cli.commands": c["cli.commands"],
            "planner.plan_s": self_s["planner.plan"],
            "planner.n_digits": c["planner.n_digits"],
            "planner.theorem_bound_s": self_s["planner.theorem_bound"],
            "arith.parse_decimal_s": self_s["arith.parse_decimal"],
            "certificate.build_s": self_s["certificate.build"],
            "certificate.reverify_s": self_s["certificate.reverify"],
            "certificate.value_digits": c["certificate.value_digits"],
            "arith.pow_s": self_s["arith.pow"],
            "arith.pow_digits": c["arith.pow_digits"],
            "trace.spans": len(spans),
        }
        for layer in LAYERS + ("bench",):
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m["trace.jobs_s"] = sum((end - start) * scale for _, start, end, parent, _ in spans if parent < 0)
        return m


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "vertices/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("formats.bytes"):
        return "bytes"
    if metric.endswith("_digits"):
        return "digits"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hypergirth" or name.startswith("hypergirth."))]


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
