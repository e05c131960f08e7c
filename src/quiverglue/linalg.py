"""Exact dense linear algebra over a prime field F_p.

Matrices are plain numpy ``int64`` arrays whose entries are canonical
representatives ``0..p-1``.  All routines are deterministic: elimination
always picks the first nonzero pivot, so reduced forms, kernel bases and
image bases depend only on the input, never on random draws;
``irreducible_factors`` draws only from the ``random.Random`` it is
given (the standard library's, so factoring never imports numpy.random).

Entries never overflow int64.  A product of two canonical entries is at
most (p-1)**2, so ``PrimeField`` rejects every p with (p-1)**2 above
2**63 - 1.  ``matmul`` sums k such products before reducing; when
k * (p-1)**2 would pass 2**63 - 1 (at p = 32003, k above about
9 * 10**9) it sums the products over inner blocks of ``max_inner``
instead, reducing each block mod p.

Elimination (``rref``, ``kernel_basis``, ``solve_matrix`` and what is
built on them: ``rank``, ``image_basis``, ``inverse``) reads one reduced
form, and ``PrimeField._reduce`` picks the route that computes it for an
array; ``certified_kernel_rows`` picks it for a system given as rows of
Python integers (a Hom system), which at most ``SMALL`` cells never
becomes an array before its certified kernel does.  The form is unique,
so the route never changes an answer.  An input of
at most ``SMALL`` cells is reduced on lists of Python integers, where
numpy's per-call overhead would cost more than the arithmetic; this is
the base case of dense elimination over word-size primes (Dumas,
Giorgi & Pernet, ACM TOMS 35(3), 2008).  ``BENCH_small_exact.json``
times both routes on every recorded input of the three benchmark
workloads.  A larger input is reduced on int64 arrays: a pivot column
with three or more other nonzero entries is cleared with one rank-one
update of the columns from the pivot on, a sparser one row by row.
Either way each entry takes one product of residues and is reduced
before the next pivot, so it needs only the first bound.  Each reader
indexes the reduced rows as ``row[col]``, which lists and arrays share.

Polynomials (characteristic polynomials and their factors over F_p) are
lists of Python integers, so their products never overflow at any
admitted p.
"""

from __future__ import annotations

from itertools import zip_longest
from random import Random

import numpy as np

from .errors import NonIntegerEntries, PreconditionFailed, ShapeMismatch

DEFAULT_PRIME = 101
INT64_MAX = 2**63 - 1
# eliminations with at most this many cells run on Python integers
SMALL = 64


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
        if not (a.size and b.size):
            return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        k, step = a.shape[1], self.max_inner
        if k > step:
            # each block sums at most max_inner products of residues, so it stays within int64
            total = np.mod(a[:, :step] @ b[:step], self.p)
            for start in range(step, k, step):
                total += np.mod(a[:, start : start + step] @ b[start : start + step], self.p)
                np.mod(total, self.p, out=total)
            return total
        out = a @ b
        return np.mod(out, self.p, out=out)

    def inv_scalar(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    # -- elimination ---------------------------------------------------

    def _reduce(self, m: np.ndarray) -> tuple[list[list[int]] | np.ndarray, list[int]]:
        """The reduced form of an array ``m`` and its pivot columns; where its route is decided.

        Rows of Python integers from ``reduce_rows`` at most ``SMALL``
        cells, else an int64 array from ``_rref_numpy``.
        """
        if m.size <= SMALL:
            return self.reduce_rows(np.mod(m, self.p).tolist())
        return self._rref_numpy(m)

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
        """Reduced row-echelon form.

        Returns ``(R, pivots, rank)`` where ``R`` is row-equivalent to
        ``m``, pivot columns are strictly increasing and pivot entries
        are 1 with zeros above and below.  An input with no rows or no
        columns is already reduced: its form is zero, with no pivots.
        """
        if not m.size:
            return np.zeros(m.shape, dtype=np.int64), [], 0
        r, pivots = self._reduce(m)
        return np.asarray(r, dtype=np.int64).reshape(m.shape), pivots, len(pivots)

    def reduce_rows(self, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        """Gauss-Jordan reduction of a matrix given as rows of residues 0..p-1 (Python ints).

        Returns the rows of the reduced form and its pivot columns, the
        output of ``rref`` as lists.  ``rows`` is left as it was: rows are
        replaced, never written into.
        """
        p = self.p
        r = list(rows)
        n = len(r)
        pivots: list[int] = []
        for col in range(len(r[0]) if r else 0):
            top = len(pivots)
            for found in range(top, n):
                if r[found][col]:
                    break
            else:
                continue
            pivot_row = r[found]
            r[found] = r[top]
            if pivot_row[col] != 1:
                inv = pow(pivot_row[col], -1, p)
                pivot_row = [x * inv % p for x in pivot_row]
            r[top] = pivot_row
            for i in range(n):
                factor = r[i][col]
                if factor and i != top:
                    r[i] = [(x - factor * y) % p for x, y in zip(r[i], pivot_row)]
            pivots.append(col)
            if top + 1 == n:
                break
        return r, pivots

    def _rref_numpy(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The reduced form and pivot columns on int64 arrays, the route above ``SMALL`` cells.

        A pivot column with three or more other nonzero entries is
        cleared with one rank-one update, a sparser one with one row
        operation per entry.  On the recorded inputs above ``SMALL``
        cells the row loop still wins on line-glue's and bundled-cold's
        sparse ones and the update on decompose-dense's dense ones
        (``BENCH_small_exact.json``), so the column decides.
        """
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
        return r, pivots

    def rank(self, m: np.ndarray) -> int:
        return self.rref(m)[2]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns spanning ker(m), one per free column of its reduced form; shape (cols, nullity)."""
        cols = m.shape[1]
        if not m.size:
            return self.identity(cols)
        vectors = self._kernel_vectors(*self._reduce(m), cols)
        return np.array(vectors, dtype=np.int64).reshape(len(vectors), cols).T.copy()

    def _kernel_vectors(self, r, pivots: list[int], cols: int) -> list[list[int]]:
        """The kernel vectors of a reduced form: per free column, 1 there and minus that column's pivot-row entries."""
        pivot_set = set(pivots)
        vectors = []
        for free in range(cols):
            if free not in pivot_set:
                vec = [0] * cols
                vec[free] = 1
                for row, pc in zip(r, pivots):
                    vec[pc] = -row[free] % self.p
                vectors.append(vec)
        return vectors

    def certified_kernel_rows(self, system: list[list[int]], cols: int) -> np.ndarray:
        """The rows of K, where K's columns are ``kernel_basis`` of a system given as rows of residues.

        Certified by system @ K == 0; a system without rows has the
        identity as its kernel, and there is nothing to certify.  At most
        ``SMALL`` cells the system is reduced, read and certified on
        Python integers, and K is converted to int64 once; a larger one is
        converted first and certified by one ``matmul``.
        """
        if not system:
            return self.identity(cols)
        if len(system) * cols <= SMALL:
            p = self.p
            vectors = self._kernel_vectors(*self.reduce_rows(system), cols)
            failed = any(sum(x * y for x, y in zip(row, vec)) % p for vec in vectors for row in system)
            kernel = np.array(vectors, dtype=np.int64).reshape(len(vectors), cols)
        else:
            array = np.array(system, dtype=np.int64)
            columns = self.kernel_basis(array)
            failed = self.matmul(array, columns).any()
            kernel = columns.T.copy()
        if failed:
            raise RuntimeError(f"kernel certificate failed: system @ K != 0 for a {len(system)} x {cols} system")
        return kernel

    def image_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns of ``m`` forming a basis of the column space."""
        _, pivots, _ = self.rref(m)
        return m[:, pivots].copy()

    def solve_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution of ``a @ X = b`` column-wise (free unknowns zero), or None.

        A pivot of the reduced ``[a | b]`` among the columns of ``b`` means no solution.
        """
        if a.shape[0] != b.shape[0]:
            raise ShapeMismatch(f"cannot solve {a.shape} X = {b.shape}")
        cols = a.shape[1]
        r, pivots = self._reduce(np.concatenate((a, b), axis=1))
        if pivots and pivots[-1] >= cols:
            return None
        x = self.zeros(cols, b.shape[1])
        for row, pc in zip(r, pivots):
            x[pc] = row[cols:]
        return x

    def inverse(self, m: np.ndarray) -> np.ndarray | None:
        """Inverse of a square matrix, or None when singular."""
        n, c = m.shape
        if n != c:
            raise ShapeMismatch(f"cannot invert non-square {m.shape}")
        if n == 0:
            return self.zeros(0, 0)
        return self.solve_matrix(m, self.identity(n))

    # -- polynomials ---------------------------------------------------
    # A polynomial is a list of residues (Python ints), lowest degree
    # first, whose last entry is nonzero; [] is zero.

    def charpoly(self, m: np.ndarray) -> list[int]:
        """det(sI - m) for a square matrix: reduction to Hessenberg form by
        similarities, then the recurrence over its leading blocks (Cohen,
        A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
        p = self.p
        n = m.shape[0]
        h = np.mod(m, p).tolist()
        for j in range(n - 2):
            k = j + 1
            pivot = next((i for i in range(k, n) if h[i][j]), None)
            if pivot is None:
                continue
            if pivot != k:
                h[pivot], h[k] = h[k], h[pivot]
                for row in h:
                    row[pivot], row[k] = row[k], row[pivot]
            inv = pow(h[k][j], -1, p)
            for i in range(k + 1, n):
                u = h[i][j] * inv % p
                if u:
                    # row i minus u times row k, then column k plus u times column i
                    h[i] = [(x - u * y) % p for x, y in zip(h[i], h[k])]
                    for row in h:
                        row[k] = (row[k] + u * row[i]) % p
        # chis[k]: the characteristic polynomial of the leading k x k block
        chis = [[1]]
        for k in range(n):
            chi = self.poly_mul([-h[k][k] % p, 1], chis[k])
            t = 1
            for i in range(1, k + 1):
                t = t * h[k - i + 1][k - i] % p
                c = h[k - i][k] * t % p
                if c:
                    chi = self._poly_sub(chi, [c * x % p for x in chis[k - i]])
            chis.append(chi)
        return chis[n]

    def _poly_sub(self, f: list[int], g: list[int]) -> list[int]:
        out = [(x - y) % self.p for x, y in zip_longest(f, g, fillvalue=0)]
        while out and not out[-1]:
            out.pop()
        return out

    def poly_mul(self, f: list[int], g: list[int]) -> list[int]:
        if not (f and g):
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
        return [c % self.p for c in out]

    def poly_divmod(self, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
        """Quotient and remainder of f by a nonzero g.

        The remainder accumulates as Python integers and is reduced once.
        """
        p, n = self.p, len(g) - 1
        rest = list(f)
        inv = pow(g[-1], -1, p)
        quotient = [0] * max(len(f) - n, 0)
        for k in range(len(quotient) - 1, -1, -1):
            c = quotient[k] = rest[k + n] * inv % p
            if c:
                for i in range(n):
                    rest[k + i] -= c * g[i]
        rest = [x % p for x in rest[:n]]
        while rest and not rest[-1]:
            rest.pop()
        return quotient, rest

    def poly_gcd(self, f: list[int], g: list[int]) -> list[int]:
        """The monic greatest common divisor; [] when both are zero."""
        while g:
            f, g = g, self.poly_divmod(f, g)[1]
        if not f:
            return []
        inv = pow(f[-1], -1, self.p)
        return [c * inv % self.p for c in f]

    def _poly_powmod(self, f: list[int], e: int, g: list[int]) -> list[int]:
        """f^e modulo g, by square and multiply."""
        result, base = self.poly_divmod([1], g)[1], self.poly_divmod(f, g)[1]
        while e:
            if e & 1:
                result = self.poly_divmod(self.poly_mul(result, base), g)[1]
            base = self.poly_divmod(self.poly_mul(base, base), g)[1]
            e >>= 1
        return result

    def poly_at(self, f: list[int], m: np.ndarray) -> np.ndarray:
        """f(m) for a square matrix, by Horner's rule."""
        n = m.shape[0]
        diagonal = np.diag_indices(n)
        out = self.scale(f[-1], self.identity(n)) if f else self.zeros(n, n)
        for c in reversed(f[:-1]):
            out = self.matmul(out, m)
            out[diagonal] = np.mod(out[diagonal] + c, self.p)
        return out

    def irreducible_factors(self, f: list[int], rng: Random) -> list[list[int]]:
        """The distinct monic irreducible factors of a polynomial f of degree below p.

        Squarefree part f / gcd(f, f'), which needs deg f < p; then
        distinct-degree factorization by gcd(g, x^(p^d) - x); then
        Cantor-Zassenhaus on each product of equal-degree factors,
        which splits it by gcd(g, r^((p^d - 1)/2) - 1) for random r
        of degree below deg g, each coefficient drawn by
        ``rng.randrange(p)`` from a ``random.Random``.  No step runs over
        the p residues.  Sorted by degree, then by coefficients.
        """
        p = self.p
        if len(f) - 1 >= p:
            raise PreconditionFailed(f"squarefree part of a degree-{len(f) - 1} polynomial needs p above it")
        if len(f) < 2:
            return []
        derivative = [i * c % p for i, c in enumerate(f)][1:]
        g = self.poly_divmod(f, self.poly_gcd(f, derivative))[0]
        g = self.poly_divmod(g, [g[-1]])[0]
        parts, frobenius, d = [], [0, 1], 0
        while len(g) - 1 >= 2 * (d + 1):
            d += 1
            frobenius = self._poly_powmod(frobenius, p, g)
            u = self.poly_gcd(g, self._poly_sub(frobenius, [0, 1]))
            if len(u) > 1:
                parts.append((d, u))
                g = self.poly_divmod(g, u)[0]
                frobenius = self.poly_divmod(frobenius, g)[1]
        if len(g) > 1:
            parts.append((len(g) - 1, g))
        factors = []
        for d, u in parts:
            factors += self._equal_degree_factors(u, d, rng)
        return sorted(factors, key=lambda h: (len(h), h))

    def _equal_degree_factors(self, g: list[int], d: int, rng: Random) -> list[list[int]]:
        """The irreducible factors of a monic squarefree g whose factors all have degree d."""
        p = self.p
        factors = [g]
        for _ in range(4096):
            if len(factors) * d == len(g) - 1:
                return factors
            # g has degree 2 or more, below p, so p is odd
            r = [rng.randrange(p) for _ in range(len(g) - 1)]
            w = self._poly_sub(self._poly_powmod(r, (p**d - 1) // 2, g), [1])
            split = []
            for h in factors:
                u = self.poly_gcd(h, w) if len(h) - 1 > d else h
                split += [h] if len(u) in (1, len(h)) else [u, self.poly_divmod(h, u)[0]]
            factors = split
        raise RuntimeError("no random polynomial split the equal-degree factors; raise the trial bound")
