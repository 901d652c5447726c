import os
import sys
from decimal import getcontext, setcontext

import pytest

from hypergirth import (
    Hypergraph,
    projective_plane,
    split_cayley_hexagon,
    symplectic_quadrangle,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env() -> dict[str, str]:
    """Environment for a ``python -m hypergirth`` child process.

    The absolute ``src`` path leads ``PYTHONPATH``, so the child imports
    this checkout whatever its working directory; a relative entry such as
    ``PYTHONPATH=src`` stops resolving once ``cwd`` moves.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    return env


def _global_state() -> dict:
    """The process-wide settings a test could leave changed: the thread's
    decimal context (not its sticky flags), the int-to-str digit limit and
    the recursion limit."""
    ctx = getcontext()
    return {
        "decimal context": (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp, dict(ctx.traps)),
        "int max str digits": sys.get_int_max_str_digits(),
        "recursion limit": sys.getrecursionlimit(),
    }


@pytest.fixture(autouse=True)
def restores_global_state():
    """Fail a test that leaves a global setting changed, so that no
    outcome depends on the order the tests run in; the settings are put
    back first, so the next test starts clean."""
    before, context = _global_state(), getcontext().copy()
    yield
    changed = sorted(name for name, value in _global_state().items() if value != before[name])
    if changed:
        setcontext(context)
        sys.set_int_max_str_digits(before["int max str digits"])
        sys.setrecursionlimit(before["recursion limit"])
        pytest.fail(f"the test left changed: {', '.join(changed)}")


def _src_paths() -> set[str]:
    return {os.path.join(root, name) for root, dirs, files in os.walk(SRC_DIR) for name in dirs + files}


@pytest.fixture(scope="session", autouse=True)
def leaves_src_as_found():
    """Under PYTHONDONTWRITEBYTECODE=1, fail the run if it created any file
    or directory under src/, so the run leaves the checkout, bytecode
    cache included, as it found it.  A child started with ``-I`` ignores
    that variable and needs ``-B``."""
    before = _src_paths()
    yield
    if sys.flags.dont_write_bytecode:
        created = sorted(os.path.relpath(path, SRC_DIR) for path in _src_paths() - before)
        if created:
            pytest.fail(f"the run created under src/: {', '.join(created)}")


# The classic difference-set labeling of the 7-point plane; used as an
# independent reference wherever a known 3-uniform girth-3 structure is
# needed (it is NOT the labeling our generator produces).
FANO_TRIPLES = tuple(sorted(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)))


@pytest.fixture(scope="session")
def fano() -> Hypergraph:
    return Hypergraph(7, FANO_TRIPLES)


@pytest.fixture(scope="session")
def plane2():
    return projective_plane(2)


@pytest.fixture(scope="session")
def quad2():
    return symplectic_quadrangle(2)


@pytest.fixture(scope="session")
def hex2():
    return split_cayley_hexagon(2)
