"""Decompose P(1)^14 over the Kronecker algebra in two bases whose first split draw is whole.

In these bases (numpy ``default_rng`` seeds 3 and 7 for the change of
basis) the first element a that the split step draws from End(P(1)^14) =
M_14(F_p) has an irreducible characteristic polynomial, so the step
must refuse the draw and draw again.  The refusal compares the factor's
degree with the rank of End's trace form; no table of End's structure
constants is built.  Each basis takes a few seconds, most of it solving
End's 784 x 980 Hom system.

Not collected by pytest (the name has no ``test_`` prefix).  Run it as

    PYTHONPATH=src timeout 30 python tests/kronecker_power.py

It prints one line per basis and exits nonzero if a decomposition is not
14 copies of P(1).
"""

from __future__ import annotations

import sys
import time

import numpy as np

from quiverglue import PrimeField, QModule, Quiver, build_algebra
from quiverglue.modcat import decompose, indecomposable_iso, projective

SEEDS = (3, 7)


def kronecker_projective_power(p: int, copies: int, seed: int) -> QModule:
    """P(1)^copies over the Kronecker algebra at p, in a random basis.

    ``np.random.default_rng(seed)`` draws an invertible change of basis at
    vertex 1, then one at vertex 2.  Built with ``QModule``, so it records no
    summands and splits through End.
    """
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    algebra = build_algebra(quiver, [], field=PrimeField(p), name="kronecker")
    field = algebra.field
    one = projective(algebra, "1")
    rng = np.random.default_rng(seed)
    changes = {}
    for v in "12":
        d = one.dims[v] * copies
        inverse = None
        while inverse is None:
            change = field.mat(rng.integers(0, p, size=(d, d)))
            inverse = field.inverse(change)
        changes[v] = change, inverse
    maps = {}
    for name, block in one.maps.items():
        block_sum = np.kron(np.eye(copies, dtype=np.int64), block)
        maps[name] = field.matmul(field.matmul(changes["2"][0], block_sum), changes["1"][1])
    return QModule(algebra, {v: one.dims[v] * copies for v in "12"}, maps)


def main() -> int:
    failed = False
    for seed in SEEDS:
        m = kronecker_projective_power(101, 14, seed)
        start = time.process_time()
        parts = decompose(m)
        seconds = time.process_time() - start
        ok = [(rep.dim_vector(), mult) for rep, mult in parts] == [((1, 2), 14)] and (
            indecomposable_iso(parts[0][0], projective(m.algebra, "1")) is not None
        )
        failed |= not ok
        print(f"seed {seed}: {'14 x P(1)' if ok else parts} in {seconds:.2f} s of process CPU")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
