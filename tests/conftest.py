import os

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
