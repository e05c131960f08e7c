"""Shared fixtures: the bundled workspace and the two corner algebras.

Heavy objects are session-scoped; every test that mutates nothing can
share them, which keeps the whole suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from quiverglue import PrimeField, QModule, Quiver, build_algebra, relation
from quiverglue.bundled import load_workspace


@pytest.fixture(scope="session")
def field():
    return PrimeField(101)


@pytest.fixture(scope="session")
def a2(field):
    """The path algebra of 1 -> 2 (arrow d)."""
    quiver = Quiver(["1", "2"], [("d", "1", "2")])
    return build_algebra(quiver, [], field=field, name="a2")


@pytest.fixture(scope="session")
def bound_a3(field):
    """3 -> 4 -> 5 (arrows a, b) with the composite ba killed."""
    quiver = Quiver(["3", "4", "5"], [("a", "3", "4"), ("b", "4", "5")])
    return build_algebra(quiver, [relation(quiver, [(1, ["a", "b"])])], field=field, name="ba3")


@pytest.fixture
def kronecker_regular(request, field):
    """The Kronecker module k^2 with arrows I and the companion matrix of t^2 - c.

    c is the least quadratic non-residue mod p, so t^2 - c is irreducible
    and End(U) = F_p[t]/(t^2 - c) = F_{p^2}.  The prime is ``field``'s
    unless the test parametrizes this fixture indirectly with one.  Built
    per test on its own algebra: tests decompose it and build approximation
    classes on it, and the algebra's memo would carry that work over.
    """
    p = getattr(request, "param", field.p)
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    algebra = build_algebra(quiver, [], field=PrimeField(p), name="kronecker")
    return QModule(algebra, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[0, c], [1, 0]]})


@pytest.fixture(
    params=[[[1.5]], np.array([[2.0]]), [["7"]], [[True]], [[None]]],
    ids=["1.5", "float64-array", "'7'", "True", "None"],
)
def non_integer(request):
    """A 1 x 1 matrix whose entry is not an integer; no constructor may truncate or cast it."""
    return request.param


@pytest.fixture(scope="session")
def kronecker_modules(field):
    """Sixteen Kronecker modules (1 => 2) with random maps and dims up to (3, 3), seeded."""
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    algebra = build_algebra(quiver, [], field=field, name="kronecker")
    rng = np.random.default_rng(2001)
    modules = []
    for _ in range(16):
        d1, d2 = (int(d) for d in rng.integers(0, 4, size=2))
        maps = {a: rng.integers(0, field.p, size=(d2, d1)) for a in "ab"}
        modules.append(QModule(algebra, {"1": d1, "2": d2}, maps))
    return modules


@pytest.fixture(scope="session")
def a7_intervals(field):
    """The 28 interval modules of the path algebra of 1 -> 2 -> ... -> 7.

    The interval [i, j] has F_p at vertices i..j and identity maps
    between them; listed by i, then j, so [v, 7] is P(v).
    """
    vertices = [str(v) for v in range(1, 8)]
    quiver = Quiver(vertices, [(f"a{v}", v, w) for v, w in zip(vertices, vertices[1:])])
    algebra = build_algebra(quiver, [], field=field, name="A7")
    intervals = []
    for i in range(7):
        for j in range(i, 7):
            inside = vertices[i : j + 1]
            maps = {f"a{v}": [[1]] for v in inside[:-1]}
            intervals.append(QModule(algebra, {v: 1 for v in inside}, maps))
    return intervals


@pytest.fixture(scope="session")
def workspace():
    return load_workspace()


@pytest.fixture(scope="session")
def rec(workspace):
    return workspace.recollement


@pytest.fixture(scope="session")
def univ_a(workspace):
    return workspace.universe_a


@pytest.fixture(scope="session")
def univ_c(workspace):
    return workspace.universe_c


@pytest.fixture(scope="session")
def univ_b(workspace):
    return workspace.universe_b
