"""Exact dense linear algebra over a prime field F_p.

Matrices are plain numpy ``int64`` arrays whose entries are canonical
representatives ``0..p-1``.  All routines are deterministic: elimination
always picks the first nonzero pivot, so reduced forms, kernel bases and
image bases depend only on the input, never on random draws.

Entries never overflow int64.  A product of two canonical entries is at
most (p-1)**2, so ``PrimeField`` rejects every p with (p-1)**2 above
2**63 - 1.  ``matmul`` sums k such products before reducing; when
k * (p-1)**2 would pass 2**63 - 1 (at p = 32003, k above about
9 * 10**9) it sums the products over inner blocks of ``max_inner``
instead, reducing each block mod p.  Elimination clears a pivot column
either row by row or, when it has three or more other nonzero entries,
with one rank-one update of the columns from the pivot on (as dense
elimination over word-size primes does; Dumas, Giorgi & Pernet, ACM
TOMS 35(3), 2008).  Either way each entry takes one product of
residues and is reduced before the next pivot, so it needs only the
first bound.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NonIntegerEntries, PreconditionFailed, ShapeMismatch

DEFAULT_PRIME = 101
INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic and elimination helpers for dense matrices over F_p."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if (p - 1) ** 2 > INT64_MAX:
            raise PreconditionFailed(f"modulus {p} is too large: (p-1)^2 exceeds the int64 range")
        self.p = p
        # the longest inner dimension whose matmul sums stay below 2**63
        self.max_inner = INT64_MAX // (p - 1) ** 2

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- construction -------------------------------------------------

    def residues(self, data) -> np.ndarray:
        """``data`` as an int64 array of canonical residues, of the same shape.

        Entries must have an integer dtype: a float, string, bool or
        object array is refused rather than truncated or cast.
        """
        a = np.asarray(data)
        if a.dtype.kind not in "iu" and a.size:
            raise NonIntegerEntries(f"matrix entries must be integers, got dtype {a.dtype}")
        if a.dtype == np.uint64:
            a = np.mod(a, np.uint64(self.p))
        return np.mod(a.astype(np.int64), self.p)

    def mat(self, data) -> np.ndarray:
        """Canonicalize ``data`` into an int64 matrix with entries mod p."""
        m = self.residues(data)
        if m.ndim == 1:
            m = m.reshape(-1, 1)
        if m.ndim != 2:
            raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
        return m

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a + b, self.p)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a - b, self.p)

    def scale(self, c: int, a: np.ndarray) -> np.ndarray:
        return np.mod(c * a, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
        if a.shape[1] > self.max_inner:
            return self.blockwise_sum(a.shape[1], lambda s: a[:, s] @ b[s])
        out = a @ b
        return np.mod(out, self.p, out=out)

    def blockwise_sum(self, k: int, product: Callable[[slice], np.ndarray]) -> np.ndarray:
        """sum_t product(t) mod p over the inner blocks t of range(k) of length ``max_inner``.

        ``product(t)`` sums the products of residues at the inner indices
        in the slice t, so it stays within int64; each block is reduced
        before it is added.  For k <= ``max_inner`` this is one product and
        one reduction.
        """
        step = self.max_inner
        total = np.mod(product(slice(0, step)), self.p)
        for start in range(step, k, step):
            total += np.mod(product(slice(start, start + step)), self.p)
            np.mod(total, self.p, out=total)
        return total

    def inv_scalar(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    # -- elimination ---------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
        """Reduced row-echelon form.

        Returns ``(R, pivots, rank)`` where ``R`` is row-equivalent to
        ``m``, pivot columns are strictly increasing and pivot entries
        are 1 with zeros above and below.  The form is unique, so how
        the other rows are cleared does not change it: a pivot column
        with three or more other nonzero entries is cleared with one
        rank-one update, a sparser one with one row operation per entry.
        The density of the column, not the shape of the input, decides
        which is faster (``BENCH_dense_rref.json``, best of 5 per input,
        seed 7): on line-glue's 19,325 one-row inputs the loop takes
        0.167 s and the update 0.229 s, on its 114 tall sparse inputs of
        eight or more rows 0.034 s and 0.046 s, and on decompose-dense's
        90 dense ones 0.035 s and 0.015 s.  An input with no rows or no
        columns is already reduced: its form is zero, with no pivots.
        """
        if not m.size:
            return np.zeros(m.shape, dtype=np.int64), [], 0
        r = np.mod(np.array(m, dtype=np.int64), self.p)
        rows, cols = r.shape
        pivots: list[int] = []
        row = 0
        for col in range(cols):
            if row >= rows:
                break
            nz = np.nonzero(r[row:, col])[0]
            if nz.size == 0:
                continue
            pivot = row + int(nz[0])
            if pivot != row:
                r[[row, pivot]] = r[[pivot, row]]
            r[row] = np.mod(r[row] * self.inv_scalar(r[row, col]), self.p)
            others = np.nonzero(r[:, col])[0]
            if others.size >= 4:
                # the pivot row is zero left of col, so the update starts there
                tail = r[:, col:]
                factors = tail[:, 0].copy()
                factors[row] = 0
                tail -= np.multiply.outer(factors, tail[row])
                np.mod(tail, self.p, out=tail)
            else:
                for other in others:
                    if other != row:
                        r[other] = np.mod(r[other] - r[other, col] * r[row], self.p)
            pivots.append(col)
            row += 1
        return r, pivots, len(pivots)

    def rank(self, m: np.ndarray) -> int:
        return self.rref(m)[2]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns spanning ker(m); shape (cols, nullity)."""
        rows, cols = m.shape
        r, pivots, rank = self.rref(m)
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros(cols, len(free))
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for i, pc in enumerate(pivots):
                basis[pc, k] = (-r[i, fc]) % self.p
        return basis

    def image_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns of ``m`` forming a basis of the column space."""
        _, pivots, _ = self.rref(m)
        return m[:, pivots].copy()

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution of ``a @ x = b`` or None when inconsistent."""
        x = self.solve_matrix(a, b.reshape(-1, 1) if b.ndim == 1 else b)
        if x is None:
            return None
        return x[:, 0] if b.ndim == 1 else x

    def solve_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution of ``a @ X = b`` column-wise, or None."""
        if a.shape[0] != b.shape[0]:
            raise ShapeMismatch(f"cannot solve {a.shape} X = {b.shape}")
        rows, cols = a.shape
        aug = np.hstack([a, np.mod(b, self.p)])
        r, pivots, rank = self.rref(aug)
        if any(pc >= cols for pc in pivots):
            return None
        x = self.zeros(cols, b.shape[1])
        for i, pc in enumerate(pivots):
            x[pc] = r[i, cols:]
        return x

    def inverse(self, m: np.ndarray) -> np.ndarray | None:
        """Inverse of a square matrix, or None when singular."""
        n, c = m.shape
        if n != c:
            raise ShapeMismatch(f"cannot invert non-square {m.shape}")
        if n == 0:
            return self.zeros(0, 0)
        x = self.solve_matrix(m, self.identity(n))
        if x is None:
            return None
        return x

    def det(self, m: np.ndarray) -> int:
        """Determinant mod p via Gaussian elimination."""
        n, c = m.shape
        if n != c:
            raise ShapeMismatch(f"determinant needs a square matrix, got {m.shape}")
        a = np.mod(np.array(m, dtype=np.int64), self.p)
        det = 1
        for col in range(n):
            nz = np.nonzero(a[col:, col])[0]
            if nz.size == 0:
                return 0
            pivot = col + int(nz[0])
            if pivot != col:
                a[[col, pivot]] = a[[pivot, col]]
                det = (-det) % self.p
            det = (det * int(a[col, col])) % self.p
            inv = self.inv_scalar(a[col, col])
            for row in range(col + 1, n):
                if a[row, col]:
                    factor = inv * int(a[row, col]) % self.p
                    a[row] = np.mod(a[row] - factor * a[col], self.p)
        return det
