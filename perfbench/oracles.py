"""Answer checks for the benchmark, independent of the code under test.

They read only plain data off the results (stdout text, ``dims``,
``maps`` and ``n2``) and recompute what they need with this file's own
arithmetic.  Each returns None when the answer is right and a one-line
reason when it is not.

Over the line algebra A_N (arrows v -> v+1) every indecomposable is an
interval [i, j] (Gabriel), and the multiplicity of [i, j] in a
representation M follows from the ranks of composite maps, as for the
barcode of a persistence module:

    mult[i, j] = r(i, j) - r(i-1, j) - r(i, j+1) + r(i-1, j+1)

where r(i, j) is the rank of M_i -> M_j and r is 0 outside 1..N.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# the summands of the paper's worked examples (Examples 5.1 and 5.2)
EXPECTED_BUNDLED = {
    "5-1": frozenset({"(0|P(5))", "(S(1)|0)", "(P(1)|P(3))", "(P(1)|P(4))", "(P(1)|0)"}),
    "5-2": frozenset({"(S(2)|0)", "(S(2)|P(4))", "(P(1)|0)", "(P(1)|P(3))", "(S(1)|S(3))"}),
}
BUNDLED_LAST_LINE = "decomposition matches the expected summands"


def rank_mod(m: np.ndarray, p: int) -> int:
    """Rank over F_p by elimination in Python integers."""
    rows = [[int(x) % p for x in row] for row in m]
    rank = 0
    ncols = m.shape[1] if m.ndim == 2 else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def interval_multiplicities(vertices, dims: dict, maps: dict, arrow_of, p: int) -> Counter:
    """Multiset of intervals (i, j), as positions in ``vertices``, of a line representation."""
    n = len(vertices)
    r = {}
    for i in range(n):
        comp = np.eye(dims[vertices[i]], dtype=object)
        r[i, i] = dims[vertices[i]]
        for j in range(i + 1, n):
            comp = np.mod(np.asarray(maps[arrow_of(vertices[j - 1])], dtype=object).dot(comp), p)
            r[i, j] = rank_mod(comp, p) if comp.size else 0
    out: Counter = Counter()
    for i in range(n):
        for j in range(i, n):
            mult = r[i, j] - r.get((i - 1, j), 0) - r.get((i, j + 1), 0) + r.get((i - 1, j + 1), 0)
            if mult:
                out[i, j] = mult
    return out


def check_bundled(example: str, returncode: int, stdout: str) -> str | None:
    """``reproduce EX`` exited 0, ends with the match line and prints the expected summands."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines or lines[-1].strip() != BUNDLED_LAST_LINE:
        return f"last line {lines[-1] if lines else ''!r}"
    printed = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 2 and parts[1].startswith("x"):
            printed.add(parts[0])
    if printed != EXPECTED_BUNDLED[example]:
        return f"summands {sorted(printed)} != {sorted(EXPECTED_BUNDLED[example])}"
    return None


def check_line_glue(vertices, arrow_of, t2_dims, t2_maps, n2, decomposition, p: int) -> str | None:
    """T2 is 1-tilting over A_N: N pairwise distinct interval summands, n2 = 1.

    ``decomposition`` (summand name -> multiplicity, as the program
    reports it) must agree with the rank-formula decomposition of T2.
    """
    mult = interval_multiplicities(vertices, t2_dims, t2_maps, arrow_of, p)
    if any(m < 0 for m in mult.values()):
        return "negative interval multiplicity: T2 is not a line representation"
    dim_check = Counter()
    for (i, j), m in mult.items():
        for k in range(i, j + 1):
            dim_check[vertices[k]] += m
    if any(dim_check[v] != t2_dims[v] for v in vertices):
        return "interval summands do not add up to T2's dimensions"
    if len(mult) != len(vertices):
        return f"{len(mult)} distinct summands, a tilting module over A{len(vertices)} has {len(vertices)}"
    if n2 != 1:
        return f"n2 = {n2}, expected 1"
    named = Counter({f"[{vertices[i]},{vertices[j]}]": m for (i, j), m in mult.items()})
    if Counter(dict(decomposition)) != named:
        return f"reported decomposition {dict(decomposition)} != rank formula {dict(named)}"
    return None


def check_dense(vertices, arrow_of, expected_dim_vectors, summands, p: int) -> str | None:
    """The summands' dim vectors are the generated multiset, and each summand is an interval.

    ``summands`` is a list of (dims, maps, multiplicity) for each summand class.
    """
    got = []
    for dims, maps, count in summands:
        mult = interval_multiplicities(vertices, dims, maps, arrow_of, p)
        if sum(mult.values()) != 1:
            return f"summand with dims {[dims[v] for v in vertices]} is not one interval"
        got.extend([tuple(dims[v] for v in vertices)] * count)
    if sorted(got) != sorted(expected_dim_vectors):
        return f"summand dim vectors {sorted(got)} != generated {sorted(expected_dim_vectors)}"
    return None
