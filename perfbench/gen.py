"""Seeded inputs for the benchmark workloads.

Everything here is plain data until ``build_*`` turns it into quiverglue
objects through the public constructors (``Quiver``, ``build_algebra``,
``QModule``, ``Universe``, ``direct_sum``, ``projective``, ``injective``).
The random change of basis is computed with this file's own modular
arithmetic, so the inputs do not depend on the code under test.

The line algebra A_N is the path algebra of 1 -> 2 -> ... -> N (arrow
``a<v>`` from v to v+1).  Its indecomposables are the intervals [i, j]:
dimension 1 at i..j, identity maps along the arrows inside the interval.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from quiverglue import PrimeField, QModule, Quiver, Universe, build_algebra, direct_sum, injective, projective
from quiverglue.recollement import build_recollement

PRIME = 32003
LINE_N = 7
A_VERTICES = ("4", "5", "6", "7")

# bundled-cold runs round-robin over these (example, prime) pairs
BUNDLED_CASES = (("5-1", 101), ("5-1", 32003), ("5-2", 101), ("5-2", 32003))
# line-glue: (T1 kind, T3 kind); every pair glues to a tilting module
T_KINDS = (("proj", "proj"), ("proj", "inj"), ("inj", "proj"), ("inj", "inj"))
DENSE_TOTAL_DIM = (14, 18)
# decompose-dense: one interval twice (isotypic split) and four more (centre split)
DENSE_PATTERN = (2, 1, 1, 1, 1)
DENSE_POOL_SIZE = 9
DENSE_POOL_SEED = 20210818


def intervals(vertices: tuple[str, ...]) -> list[tuple[int, int]]:
    """All intervals [i, j] of consecutive positions in ``vertices``."""
    n = len(vertices)
    return [(i, j) for i in range(n) for j in range(i, n)]


def interval_name(vertices: tuple[str, ...], i: int, j: int) -> str:
    return f"[{vertices[i]},{vertices[j]}]"


def arrow_name(v: str) -> str:
    return f"a{v}"


# -- modular helpers (independent of quiverglue.linalg) ----------------------


def inverse_mod(g: np.ndarray, p: int) -> np.ndarray | None:
    """Gauss-Jordan inverse over F_p in Python integers, or None if singular."""
    n = g.shape[0]
    a = [[int(x) % p for x in row] + [int(r == c) for c in range(n)] for r, row in enumerate(g)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return np.array([row[n:] for row in a], dtype=np.int64).reshape(n, n)


def random_invertible(rng: np.random.Generator, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        inv = inverse_mod(g, p)
        if inv is not None:
            return g, inv


# -- representations as plain data --------------------------------------------


@dataclass(frozen=True)
class Rep:
    """A representation of a line quiver: dims per vertex, one matrix per arrow."""

    vertices: tuple[str, ...]
    dims: dict
    maps: dict


def interval_sum(vertices: tuple[str, ...], parts: list[tuple[int, int]]) -> Rep:
    """The direct sum of the given intervals, block-diagonal in the standard basis."""
    dims = {v: 0 for v in vertices}
    offsets = []
    for i, j in parts:
        offsets.append({v: dims[v] for v in vertices})
        for k in range(i, j + 1):
            dims[vertices[k]] += 1
    maps = {}
    for k in range(len(vertices) - 1):
        s, t = vertices[k], vertices[k + 1]
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        for (i, j), off in zip(parts, offsets):
            if i <= k < j:
                m[off[t], off[s]] = 1
        maps[arrow_name(s)] = m
    return Rep(vertices, dims, maps)


def change_basis(rep: Rep, rng: np.random.Generator, p: int) -> Rep:
    """Conjugate every vertex space by a random invertible matrix."""
    g = {v: random_invertible(rng, rep.dims[v], p) for v in rep.vertices}
    maps = {}
    for k in range(len(rep.vertices) - 1):
        s, t = rep.vertices[k], rep.vertices[k + 1]
        m = rep.maps[arrow_name(s)]
        maps[arrow_name(s)] = np.mod(np.mod(g[t][0] @ m, p) @ g[s][1], p)
    return Rep(rep.vertices, rep.dims, maps)


# -- job specifications ---------------------------------------------------------


@dataclass(frozen=True)
class LineGlueSpec:
    t1_kind: str
    t3_kind: str
    t1_basis_seed: int
    t3_basis_seed: int
    universe_seed: int


@dataclass(frozen=True)
class DenseSpec:
    parts: tuple[tuple[int, int], ...]
    basis_seed: int

    def dim_vectors(self) -> list[tuple[int, ...]]:
        return sorted(
            tuple(int(i <= k <= j) for k in range(LINE_N)) for i, j in self.parts
        )


def bundled_cases(seed: int) -> Iterator[tuple[str, int, int]]:
    """(example, prime, CLI seed), round-robin over BUNDLED_CASES."""
    rng = np.random.default_rng([seed, 1])
    for k in itertools.count():
        yield (*BUNDLED_CASES[k % len(BUNDLED_CASES)], int(rng.integers(0, 2**31)))


def line_glue_specs(seed: int) -> Iterator[LineGlueSpec]:
    """Every block of four jobs glues each (T1, T3) pair once, in a seeded order."""
    rng = np.random.default_rng([seed, 2])
    while True:
        for k in rng.permutation(len(T_KINDS)):
            yield LineGlueSpec(*T_KINDS[k], *(int(x) for x in rng.integers(0, 2**31, size=3)))


def dense_parts(rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """DENSE_PATTERN multiplicities on distinct A7 intervals, total dimension in DENSE_TOTAL_DIM."""
    all_iv = intervals(tuple(str(v) for v in range(1, LINE_N + 1)))
    lo, hi = DENSE_TOTAL_DIM
    while True:
        chosen = rng.choice(len(all_iv), size=len(DENSE_PATTERN), replace=False)
        parts = [all_iv[k] for k, mult in zip(chosen, DENSE_PATTERN) for _ in range(mult)]
        if lo <= sum(j - i + 1 for i, j in parts) <= hi:
            return tuple(sorted(parts))


def _dense_pool() -> tuple[tuple[tuple[int, int], ...], ...]:
    rng = np.random.default_rng(DENSE_POOL_SEED)
    return tuple(dense_parts(rng) for _ in range(DENSE_POOL_SIZE))


# drawn once by the rules of dense_parts; fixed so that every run sees the same mix
DENSE_POOL = _dense_pool()


def dense_specs(seed: int) -> Iterator[DenseSpec]:
    """Every block of DENSE_POOL_SIZE jobs decomposes each pool multiset once,
    in a seeded order and a seeded basis."""
    rng = np.random.default_rng([seed, 3])
    while True:
        for k in rng.permutation(DENSE_POOL_SIZE):
            yield DenseSpec(DENSE_POOL[k], int(rng.integers(0, 2**31)))


# -- quiverglue objects ------------------------------------------------------------


def build_line_algebra():
    """A fresh A_N = LINE_N over F_PRIME."""
    vertices = [str(v) for v in range(1, LINE_N + 1)]
    arrows = [(arrow_name(v), v, w) for v, w in zip(vertices, vertices[1:])]
    return build_algebra(Quiver(vertices, arrows), [], field=PrimeField(PRIME), name=f"A{LINE_N}")


def to_module(algebra, rep: Rep):
    return QModule(algebra, dict(rep.dims), dict(rep.maps))


def interval_universe(algebra, rng: np.random.Generator):
    """Every interval of the (line) algebra, each in a random basis."""
    vertices = algebra.quiver.vertices
    p = algebra.field.p
    return Universe(
        algebra,
        [
            (interval_name(vertices, i, j), to_module(algebra, change_basis(interval_sum(vertices, [(i, j)]), rng, p)))
            for i, j in intervals(vertices)
        ],
    )


def generator_module(algebra, kind: str, rng: np.random.Generator):
    """The projective generator or injective cogenerator, in a random basis."""
    make = projective if kind == "proj" else injective
    std = direct_sum(algebra, [make(algebra, v) for v in algebra.quiver.vertices])
    rep = Rep(algebra.quiver.vertices, dict(std.dims), {a: std.maps[a] for a in std.maps})
    return to_module(algebra, change_basis(rep, rng, algebra.field.p))


def build_line_glue(spec: LineGlueSpec):
    """Fresh algebra objects and inputs for one line-glue job."""
    total = build_line_algebra()
    rec = build_recollement(total, list(A_VERTICES), a_name="A4", c_name="A3")
    rng_u = np.random.default_rng(spec.universe_seed)
    universes = tuple(interval_universe(alg, rng_u) for alg in (rec.a_algebra, rec.c_algebra, total))
    t1 = generator_module(rec.a_algebra, spec.t1_kind, np.random.default_rng(spec.t1_basis_seed))
    t3 = generator_module(rec.c_algebra, spec.t3_kind, np.random.default_rng(spec.t3_basis_seed))
    return rec, t1, t3, universes


def build_dense(spec: DenseSpec):
    """A fresh A7 and the spec's interval sum in a random basis."""
    algebra = build_line_algebra()
    vertices = algebra.quiver.vertices
    rep = change_basis(interval_sum(vertices, list(spec.parts)), np.random.default_rng(spec.basis_seed), algebra.field.p)
    return to_module(algebra, rep)
