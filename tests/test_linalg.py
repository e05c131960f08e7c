"""Exact linear algebra over F_p: worked examples and random invariants."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverglue.errors import NonIntegerEntries, PreconditionFailed, ShapeMismatch
from quiverglue.linalg import SMALL, PrimeField


@pytest.fixture(scope="module")
def f101():
    return PrimeField(101)


def test_rref_identity(f101):
    r, pivots, rank = f101.rref(f101.identity(3))
    assert np.array_equal(r, f101.identity(3))
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_zero(f101):
    r, pivots, rank = f101.rref(f101.zeros(2, 4))
    assert not np.any(r)
    assert pivots == []
    assert rank == 0


def test_rref_rank_one(f101):
    # [[1,2],[2,4]]: second row is twice the first, so rank 1 with pivot 0
    r, pivots, rank = f101.rref(f101.mat([[1, 2], [2, 4]]))
    assert rank == 1
    assert pivots == [0]
    assert np.array_equal(r[0], np.array([1, 2]))
    assert not np.any(r[1])


def test_solve_identity(f101):
    b = f101.mat([[5], [7], [11]])
    x = f101.solve(f101.identity(3), b)
    assert np.array_equal(x, b)


def test_solve_inconsistent(f101):
    a = f101.mat([[1, 0], [1, 0]])
    assert f101.solve(a, f101.mat([[1], [2]])) is None


def test_kernel_of_zero_map(f101):
    k = f101.kernel_basis(f101.zeros(4, 4))
    assert k.shape == (4, 4)
    assert f101.rank(k) == 4


def test_kernel_of_sum_functional(f101):
    # ker [[1,1]] is spanned by (1, -1): check by direct substitution
    k = f101.kernel_basis(f101.mat([[1, 1]]))
    assert k.shape == (2, 1)
    assert int((k[0, 0] + k[1, 0]) % 101) == 0
    assert np.any(k)


def test_shape_mismatch(f101):
    with pytest.raises(ShapeMismatch):
        f101.matmul(f101.zeros(2, 3), f101.zeros(2, 3))


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        PrimeField(100)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [101, 32003])
def test_random_rank_kernel_image_invariants(seed, p):
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        rows, cols = rng.integers(1, 8, size=2)
        m = field.mat(rng.integers(0, p, size=(rows, cols)))
        r, pivots, rank = field.rref(m)
        assert field.rank(r) == rank == field.rank(m)
        kernel = field.kernel_basis(m)
        assert not np.any(field.matmul(m, kernel)) if kernel.size else True
        image = field.image_basis(m)
        assert image.shape[1] + kernel.shape[1] == cols
        assert list(pivots) == sorted(pivots)


@pytest.mark.parametrize("seed", [3, 4])
def test_solve_solutions_differ_by_kernel(seed):
    field = PrimeField(101)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        rows, cols = rng.integers(1, 7, size=2)
        a = field.mat(rng.integers(0, 101, size=(rows, cols)))
        x0 = field.mat(rng.integers(0, 101, size=(cols, 1)))
        b = field.matmul(a, x0)
        x = field.solve(a, b)
        assert x is not None
        diff = field.sub(x0, x)
        # the difference must solve the homogeneous system
        assert not np.any(field.matmul(a, diff))


def test_inverse(f101):
    m = f101.mat([[2, 1], [1, 1]])
    inv = f101.inverse(m)
    assert np.array_equal(f101.matmul(m, inv), f101.identity(2))
    singular = f101.mat([[1, 2], [2, 4]])
    assert f101.inverse(singular) is None


@pytest.mark.parametrize("m, k, n", [(m, k, n) for m in (0, 2) for k in (0, 3) for n in (0, 4) if 0 in (m, k, n)])
def test_matmul_with_an_empty_factor_is_zero(f101, m, k, n):
    out = f101.matmul(np.ones((m, k), dtype=np.int64), np.ones((k, n), dtype=np.int64))
    assert out.shape == (m, n) and out.dtype == np.int64 and not out.any()


def test_prime_guard_rejects_overflowing_modulus():
    # (p-1)^2 exceeds 2^63-1: not even one product of residues fits in int64
    with pytest.raises(PreconditionFailed):
        PrimeField(4294967311)


def test_matmul_guard_bounds_inner_dimension():
    # (p-1)^2 fits in int64 for both primes but 2 (p-1)^2 does not, so longer
    # sums go block by block; 3037000493 is close to the largest admissible prime
    rng = np.random.default_rng(5)
    for p in (2147483659, 3037000493):
        field = PrimeField(p)
        assert field.max_inner == 1
        assert field.matmul(field.mat([[p - 1]]), field.mat([[p - 1]]))[0, 0] == 1
        a = np.concatenate([np.full((2, 3), p - 1), rng.integers(0, p, size=(2, 4))], axis=1)
        b = np.concatenate([np.full((3, 2), p - 1), rng.integers(0, p, size=(4, 2))], axis=0)
        exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
        assert field.matmul(field.mat(a), field.mat(b)).tolist() == exact
    # far below the bound, long sums stay exact
    f = PrimeField(32003)
    row = np.full((1, 5000), 32002, dtype=np.int64)
    assert f.matmul(row, row.T)[0, 0] == 5000 % 32003


def test_non_integer_entries_are_rejected(f101, non_integer):
    with pytest.raises(NonIntegerEntries, match="got dtype"):
        f101.mat(non_integer)


def test_integer_dtypes_reduce_exactly(f101):
    # uint64 beyond the int64 range is reduced before the cast; empty input has no entries to check
    assert f101.mat(np.array([[2**64 - 1]], dtype=np.uint64))[0, 0] == (2**64 - 1) % 101
    assert f101.mat(np.array([[-1]], dtype=np.int8))[0, 0] == 100
    assert PrimeField(32003).mat(np.array([[-1]], dtype=np.int8))[0, 0] == 32002
    assert f101.mat([]).shape == (0, 1)


def test_eliminations_leave_python_ints_past_small_cells(monkeypatch):
    field = PrimeField(101)
    routes = []
    for name in ("_rref_numpy", "_kernel_numpy", "_solve_numpy"):
        original = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name, lambda self, *a, _f=original, _n=name: routes.append(_n) or _f(self, *a))
    m = np.ones((1, SMALL), dtype=np.int64)
    # a solve eliminates the system next to its right-hand side
    field.rref(m), field.kernel_basis(m), field.solve_matrix(m[:, 1:], m[:, :1])
    assert routes == []
    m = np.ones((1, SMALL + 1), dtype=np.int64)
    field.rref(m), field.kernel_basis(m), field.solve_matrix(m[:, 1:], m[:, :1])
    assert routes == ["_rref_numpy", "_kernel_numpy", "_rref_numpy", "_solve_numpy", "_rref_numpy"]


# -- elimination against Gauss-Jordan over Python ints -----------------------------

ELIMINATION_PRIMES = [2, 3, 101, 32003, 3037000493]


def gauss_jordan(rows: list[list[int]], cols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row-echelon form over F_p, row operations one entry at a time."""
    r = [[x % p for x in row] for row in rows]
    pivots, top = [], 0
    for col in range(cols):
        found = next((i for i in range(top, len(r)) if r[i][col]), None)
        if found is None:
            continue
        r[top], r[found] = r[found], r[top]
        inv = pow(r[top][col], p - 2, p)
        r[top] = [x * inv % p for x in r[top]]
        for i in range(len(r)):
            if i != top and r[i][col]:
                factor = r[i][col]
                r[i] = [(x - factor * y) % p for x, y in zip(r[i], r[top])]
        pivots.append(col)
        top += 1
    return r, pivots


@st.composite
def sparse_to_dense_matrices(draw):
    """A prime and a matrix over it: 0-30 x 0-40 with one nonzero, a random density,
    every entry nonzero, or a low rank, so inputs fall on both sides of ``SMALL``
    cells and pivot columns on both sides of four nonzero entries, the point where
    the int64 route switches to a rank-one update."""
    p = draw(st.sampled_from(ELIMINATION_PRIMES))
    rows = draw(st.one_of(st.integers(0, 3), st.integers(4, 30)))
    cols = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["one", "density", "full", "low rank"]))
    m = rng.integers(1, p, size=(rows, cols), dtype=np.int64)
    if kind == "one":
        keep = np.zeros(m.size, dtype=bool)
        keep[: min(1, m.size)] = True
        m = np.where(rng.permutation(keep).reshape(rows, cols), m, 0)
    elif kind == "density":
        m = np.where(rng.random((rows, cols)) < draw(st.floats(0.05, 1.0)), m, 0)
    elif kind == "low rank" and rows and cols:
        k = draw(st.integers(0, min(rows, cols)))
        left, right = rng.integers(0, p, size=(rows, k)), rng.integers(0, p, size=(k, cols))
        m = np.array((left.astype(object) @ right.astype(object)) % p, dtype=np.int64).reshape(rows, cols)
    return p, m


def near_the_size_bound(p: int, shape: tuple[int, int], seed: int) -> tuple[int, np.ndarray]:
    """A matrix of rank at most 3 with ``shape``, whose size sits at ``SMALL`` or just past it."""
    rng = np.random.default_rng(seed)
    left, right = rng.integers(0, p, size=(shape[0], 3)), rng.integers(0, p, size=(3, shape[1]))
    return p, np.array((left.astype(object) @ right.astype(object)) % p, dtype=np.int64)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(sparse_to_dense_matrices())
@example((3037000493, np.full((6, 7), 3037000492, dtype=np.int64) - np.eye(6, 7, dtype=np.int64)))
@example((3037000493, np.full((3, 3), 3037000492, dtype=np.int64) - np.eye(3, dtype=np.int64)))
@example((101, np.zeros((0, 5), dtype=np.int64)))
@example((32003, np.zeros((5, 0), dtype=np.int64)))
@example((3037000493, np.zeros((0, 0), dtype=np.int64)))
# rref and kernel_basis switch route between SMALL and SMALL + 1 cells; solve_matrix
# below adds two columns, so a 4 x (SMALL/4 - 2) system is solved at SMALL cells
@example(near_the_size_bound(2, (8, SMALL // 8), 1))
@example(near_the_size_bound(3, (5, SMALL // 5 + 1), 2))
@example(near_the_size_bound(101, (1, SMALL), 3))
@example(near_the_size_bound(3, (1, SMALL + 1), 4))
@example(near_the_size_bound(32003, (SMALL + 1, 1), 5))
@example(near_the_size_bound(3037000493, (4, SMALL // 4 - 2), 6))
@example(near_the_size_bound(2, (4, SMALL // 4 - 1), 7))
def test_elimination_equals_gauss_jordan_over_python_ints(case):
    p, m = case
    field = PrimeField(p)
    rows, cols = m.shape
    r, pivots, rank = field.rref(m)
    expected, expected_pivots = gauss_jordan(m.tolist(), cols, p)
    assert r.dtype == np.int64 and r.shape == m.shape
    assert r.tolist() == expected and pivots == expected_pivots and rank == len(pivots) == field.rank(m)
    r_np, pivots_np, rank_np = field._rref_numpy(m)
    assert r_np.dtype == np.int64 and r_np.tobytes() == r.tobytes() and (pivots_np, rank_np) == (pivots, rank)
    # a @ X = b is solved for b = a @ Y, and a zero a with rows reaches no nonzero b
    y = np.arange(2 * cols, dtype=np.int64).reshape(cols, 2)
    b = np.array((m.astype(object) @ y.astype(object)) % p, dtype=np.int64).reshape(rows, 2)
    x = field.solve_matrix(m, b)
    assert x.shape == (cols, 2) and not np.any((m.astype(object) @ x.astype(object) - b) % p)
    x_np = field._solve_numpy(m, b)
    assert x.dtype == x_np.dtype == np.int64 and x.tobytes() == x_np.tobytes()
    assert field.solve_matrix(m, np.zeros((rows, 0), dtype=np.int64)).shape == (cols, 0)
    if rows and not m.any():
        assert field.solve_matrix(m, np.ones((rows, 1), dtype=np.int64)) is None
    if rank < rows:
        # c @ m = 0 for the c with c[k] = 1 at a free column k of the form of m^T, so the
        # unit vector at k is outside the column space, on either route
        _, pivots_t = gauss_jordan(m.T.tolist(), rows, p)
        outside = np.zeros((rows, 1), dtype=np.int64)
        outside[next(k for k in range(rows) if k not in pivots_t)] = 1
        assert field.solve_matrix(m, outside) is None and field._solve_numpy(m, outside) is None
    kernel = field.kernel_basis(m)
    free = [c for c in range(cols) if c not in pivots]
    assert kernel.shape == (cols, cols - rank)
    assert kernel[free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
    assert not np.any((m.astype(object) @ kernel.astype(object)) % p)
    assert ((0 <= kernel) & (kernel < p)).all()
    kernel_np = field._kernel_numpy(m)
    assert kernel.dtype == kernel_np.dtype and kernel.flags.c_contiguous and kernel.tobytes() == kernel_np.tobytes()


# -- polynomials: characteristic polynomials and their factors ------------------


def det_by_elimination(rows, p):
    """The determinant of a square list of residues, by Gaussian elimination on Python integers."""
    rows, det = [list(r) for r in rows], 1
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot], det = rows[pivot], rows[c], -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] * inv % p
            rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[c])]
    return det % p


@st.composite
def square_matrices(draw):
    """A prime and a square matrix of size 0-7, dense or with many zeros (pivot searches and swaps)."""
    p = draw(st.sampled_from([2, 3, 101, 32003, 3037000493]))
    n = draw(st.integers(0, 7))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(n, n))
    if draw(st.booleans()):
        m[rng.random((n, n)) < 0.6] = 0
    return p, m


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(square_matrices())
@example((3037000493, np.full((5, 5), 3037000492, dtype=np.int64)))
@example((101, np.zeros((4, 4), dtype=np.int64)))
def test_charpoly_is_the_determinant_of_s_minus_a(case):
    p, m = case
    field = PrimeField(p)
    chi = field.charpoly(m)
    n = m.shape[0]
    assert len(chi) == n + 1 and chi[-1] == 1
    for s in {0, 1, 2 % p, p - 1, 12345 % p}:
        s_minus_m = [[(s * (i == j) - int(m[i, j])) % p for j in range(n)] for i in range(n)]
        assert sum(c * pow(s, k, p) for k, c in enumerate(chi)) % p == det_by_elimination(s_minus_m, p)
    # Cayley-Hamilton
    assert not field.poly_at(chi, m).any()


@st.composite
def factored_polynomials(draw):
    """A prime and a monic product of random monic polynomials of degree 1-3, some repeated."""
    p = draw(st.sampled_from([101, 32003, 3037000493]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    f = [1]
    field = PrimeField(p)
    for _ in range(draw(st.integers(1, 4))):
        g = [int(c) for c in rng.integers(0, p, size=int(rng.integers(1, 4)))] + [1]
        for _ in range(draw(st.integers(1, 3))):
            f = field.poly_mul(f, g)
    return p, f


def multiplicity(field, f, g):
    count, (quotient, rest) = 0, field.poly_divmod(f, g)
    while not rest:
        count, f = count + 1, quotient
        quotient, rest = field.poly_divmod(f, g)
    return count


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(factored_polynomials(), st.integers(0, 2**16))
@example((101, [0, 0, 1]), 0)
@example((101, [100, 0, 1]), 0)
@example((101, [1, 0, 1]), 0)
def test_irreducible_factors_multiply_back_and_are_irreducible(case, seed):
    p, f = case
    field = PrimeField(p)
    factors = field.irreducible_factors(f, Random(seed))
    assert len({tuple(h) for h in factors}) == len(factors)
    product = [1]
    for h in factors:
        assert h[-1] == 1 and len(h) > 1
        for _ in range(multiplicity(field, f, h)):
            product = field.poly_mul(product, h)
    assert product == f
    for i, h in enumerate(factors):
        for g in factors[i + 1 :]:
            assert field.poly_gcd(h, g) == [1]
        if p == 101 and len(h) - 1 in (2, 3):
            # a polynomial of degree 2 or 3 is irreducible exactly when it has no root
            assert all(sum(c * pow(x, k, p) for k, c in enumerate(h)) % p for x in range(p))


def test_irreducible_factors_need_the_degree_below_p():
    field = PrimeField(3)
    assert field.irreducible_factors([1, 0, 1], Random(0)) == [[1, 0, 1]]
    with pytest.raises(PreconditionFailed, match="needs p above"):
        field.irreducible_factors([0, 0, 0, 1], Random(0))
