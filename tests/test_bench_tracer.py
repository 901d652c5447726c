"""The benchmark tracer in ``perfbench/tracing.py`` wraps package functions
by name.  A rename or deletion in the package makes its ``install`` fail,
so these tests load the tracer by path and install it against the package."""

import importlib.util
import os
import sys

import hypergirth
import hypergirth.cli
import hypergirth.planner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    """The current binding of every (module, name) the tracer wraps."""
    return {
        (mod, attr): getattr(sys.modules[f"hypergirth.{mod}"], attr) for mod, attr, _, _ in tracing.TARGETS
    }


def test_every_exported_name_resolves():
    missing = [name for name in hypergirth.__all__ if not hasattr(hypergirth, name)]
    assert missing == []


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    originals = targets(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = targets(tracing)
        assert [key for key in originals if wrapped[key] is originals[key]] == []
        hypergirth.planner.plan_parameters_hexagon(5, 3, 10**30)
        hypergirth.planner.plan_parameters_octagon(3, 10**40)
        assert [span[0] for span in tracer.spans if span[3] == -1] == ["planner.plan", "planner.plan"]
    finally:
        tracer.uninstall()
    assert targets(tracing) == originals


def test_counters_read_a_traced_certificate():
    # Each counter reads the arguments and results of the calls it wraps,
    # so a traced certificate and re-verify must give them the types they
    # read: an int from checked_pow, value strings from certificate().
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for header in (6, 5, 2, 4, 3), (8, None, 65, 1, 3):
            text = hypergirth.certificate(*header).serialize()
            hypergirth.reverify_certificate(text)
        metrics = tracer.layer_metrics(1.0)
    finally:
        tracer.uninstall()
    assert metrics["certificate.build_s"] > 0 and metrics["certificate.reverify_s"] > 0
    assert metrics["arith.pow_digits"] > 0 and metrics["certificate.value_digits"] > 0
