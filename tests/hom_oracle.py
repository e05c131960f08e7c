"""Reference readings of a hom space: from its basis morphisms alone, or from the square equations built with np.kron."""

from __future__ import annotations

import numpy as np


def stacks(source, target, morphisms):
    """Per vertex, the blocks of ``morphisms`` (source -> target) as one (n, t_v, s_v) array."""
    vertices = source.algebra.quiver.vertices
    if not morphisms:
        return {v: np.zeros((0, target.dims[v], source.dims[v]), dtype=np.int64) for v in vertices}
    return {v: np.stack([f.blocks[v] for f in morphisms]) for v in vertices}


def kron_system(source, target):
    """The square equations of Hom(source, target) built with np.kron, as a reference."""
    field = source.algebra.field
    vertices = source.algebra.quiver.vertices
    sizes = {v: target.dims[v] * source.dims[v] for v in vertices}
    offsets = dict(zip(vertices, np.cumsum([0] + [sizes[v] for v in vertices])))
    total = sum(sizes.values())
    rows = [np.zeros((0, total), dtype=np.int64)]
    for a in source.algebra.quiver.arrows:
        u, w = a.source, a.target
        block = np.zeros((target.dims[w] * source.dims[u], total), dtype=np.int64)
        if sizes[u]:
            block[:, offsets[u] : offsets[u] + sizes[u]] += np.kron(
                target.maps[a.name], np.eye(source.dims[u], dtype=np.int64)
            )
        if sizes[w]:
            block[:, offsets[w] : offsets[w] + sizes[w]] -= np.kron(
                np.eye(target.dims[w], dtype=np.int64), source.maps[a.name].T
            )
        rows.append(block)
    return np.mod(np.vstack(rows), field.p)


def arrow_kernel(source, target):
    """The rows of a basis of Hom(source, target) as the kernel of ``kron_system``: the arrow-system oracle."""
    return source.algebra.field.kernel_basis(kron_system(source, target)).T
