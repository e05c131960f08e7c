"""Reference readings of a hom space, built from its basis morphisms alone."""

from __future__ import annotations

import numpy as np


def stacks(source, target, morphisms):
    """Per vertex, the blocks of ``morphisms`` (source -> target) as one (n, t_v, s_v) array."""
    vertices = source.algebra.quiver.vertices
    if not morphisms:
        return {v: np.zeros((0, target.dims[v], source.dims[v]), dtype=np.int64) for v in vertices}
    return {v: np.stack([f.blocks[v] for f in morphisms]) for v in vertices}
