"""Finite-dimensional modules over a bound quiver algebra.

A left module is a representation: a space dimension per vertex and a
matrix per arrow (target-dim x source-dim) such that every relation of
the algebra evaluates to zero.  Morphisms are vertex-indexed blocks
making every arrow square commute.

Modules and morphisms are immutable.  ``QModule`` and ``QMorphism``
validate eagerly (relations, arrow squares), so a construction bug fails
loudly where an invalid object would first exist; entries must have an
integer dtype, and nothing is truncated or cast.  Morphisms a caller
builds, factorizations, induced maps and approximation maps go through
``QMorphism``.  Three kinds are certified by construction (``QMorphism._certified``): hom
bases, whose square equations are built row by row on Python integers up
to ``SMALL`` cells and by index scatter only above that, and certified as
a whole by one product ``system @ K == 0`` (read-only blocks, as the hom
memo shares them); derived arithmetic (zero maps,
compose, add, scale, inverse, identity, dual), which is closed on valid
morphisms; and canonical maps whose squares are the equations that
built them (sub-module inclusions, whose arrow maps are solved from
those squares, quotient projections, whose squares are the
well-definedness check, split projections along submodules that fill
the module, and the coordinate copies into and out of a direct sum).

The modules that ``kernel``, ``image`` and ``cokernel`` build are shared:
``submodule_from_bases`` and ``quotient_by_images`` return the algebra's
one module per presentation (dims and canonical maps).  The memo key is
the dimension vector and a hash of the map bytes, and every hit is
checked for equal dims and maps, so a collision only costs the sharing.
Sharing is exact, not up to isomorphism: modules are immutable, and
every memoized answer (Hom basis, resolution, Ext, split) depends only
on the presentation, so equal presentations get identical answers.  The
first syzygies [j+1, n] of all intervals [i, j] over a line, for
example, are one object with one Hom memo row.  Each call still builds
its own inclusion or projection.  ``direct_sum`` is cached
per tuple of summands, so covers with the same generators share one
term, and a sum splits through its summands' own certified splits and
its canonical maps, without End(sum).  Modules built directly with
``QModule`` are never shared.

Decomposition into indecomposables cuts a module along the generalized
eigenspaces of one endomorphism.  A splitting step first solves for the
End basis and stops when it has one element (End(m) = F_p).  Otherwise
it draws a = sum c_i b_i from one fixed pseudo-random sequence (the
standard library's ``random.Random(_SPLIT_SEED)``, restarted at every
step, so no step imports numpy.random) and factors the characteristic
polynomials of the blocks a_v over F_p
(``PrimeField.irreducible_factors``: squarefree part, distinct-degree,
then equal-degree factorization, on Python integers, with no step over
all p residues).  Each irreducible factor f gives the submodule with
spaces ker f(a_v)^e_v, e_v the multiplicity of f at v: the image of the
primitive idempotent of F_p[a] that belongs to f, so one step cuts along
all of them at once.  The certificate is the split itself:
``submodule_from_bases`` refuses a span that an arrow leaves, and at each
vertex the eigenspace bases must fill M_v; the rows of their inverse are
the projections.  Each piece is split again until it is certified.

A draw that leaves m whole (one factor) does not make m indecomposable:
a non-scalar element of a local End(m) and an unlucky element of a
matrix algebra look alike.  Let E = End(m), J its radical and S = E/J
of dimension s.  J is the kernel of the trace form, since the field
characteristic exceeds dim m, so s is the rank of that form.  If every
chi_v is a power of one irreducible f of degree d, the image of a in S
has minimal polynomial f^k, and F_p[a] in S has dimension kd >= d.  When
d = s, F_p[a] is all of S, so S = F_p[x]/(f^k); S is semisimple, so
k = 1 and S is a field: E is local and m is indecomposable.  When S is
not a field, d = s never holds and the draws go on; when S is the field
F_(p^s), a draw whose image generates S gives d = s.  The certificate
draws nothing, so it changes no split.  Decomposition is deterministic,
and by Krull-Schmidt its multiset of summands could not depend on the
sequence.  The End basis is not memoized: it serves one step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from random import Random

import numpy as np

from .algebra import BoundQuiverAlgebra, Path, memo
from .errors import (
    AlgebraMismatch,
    FieldTooSmall,
    ShapeMismatch,
    UniverseInconsistent,
    UnknownVertex,
)
from .linalg import SMALL

# start of the fixed sequence that every splitting step draws its element from
_SPLIT_SEED = 0xC0FFEE


class QModule:
    """A quiver representation over a fixed bound quiver algebra."""

    def __init__(self, algebra: BoundQuiverAlgebra, dims: dict[str, int], maps: dict[str, np.ndarray]):
        self.algebra = algebra
        field = algebra.field
        quiver = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        for v, d in self.dims.items():
            if d < 0:
                raise ValueError(f"negative dimension at vertex {v}")
        self.total_dim = sum(self.dims.values())
        self._dim_vector = tuple(self.dims[v] for v in quiver.vertices)
        if self.total_dim >= field.p:
            raise FieldTooSmall(
                f"total dimension {self.total_dim} needs a prime above it, have p={field.p}"
            )
        self.maps = {}
        for a in quiver.arrows:
            t, s = self.dims[a.target], self.dims[a.source]
            m = maps.get(a.name)
            if m is None:
                m = field.zeros(t, s)
            else:
                m = field.residues(m) if isinstance(m, np.ndarray) else field.mat(m)
            if m.shape != (t, s):
                raise ShapeMismatch(f"map for arrow {a.name} has shape {m.shape}, expected {(t, s)}")
            self.maps[a.name] = m
        self._actions: dict[Path, np.ndarray] = {}
        self._identity: QMorphism | None = None
        self._check_relations()

    def _check_relations(self) -> None:
        for rel in self.algebra.relations:
            acc = None
            for coeff, path in rel.terms:
                term = self.algebra.field.scale(coeff, self.path_action(path))
                acc = term if acc is None else self.algebra.field.add(acc, term)
            if acc is not None and np.any(acc):
                raise ValueError(f"relation {[(c, p.label()) for c, p in rel.terms]} violated")

    # -- basic queries --------------------------------------------------

    def dim_vector(self) -> tuple[int, ...]:
        return self._dim_vector

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_action(self, path: Path) -> np.ndarray:
        """The matrix by which a path acts: dims[source] -> dims[target].

        Cached per module and read-only.  A trivial path acts by the
        identity and one arrow by a view of its map; a longer path costs
        one product of its last arrow with its prefix's cached action.
        """
        action = self._actions.get(path)
        if action is not None:
            return action
        if not path.arrows:
            action = self.algebra.field.identity(self.dims[path.source])
        elif len(path.arrows) == 1:
            action = self.maps[path.arrows[0]].view()
        else:
            last = path.arrows[-1]
            prefix = Path(path.source, self.algebra.quiver.arrow_by_name[last].source, path.arrows[:-1])
            action = self.algebra.field.matmul(self.maps[last], self.path_action(prefix))
        action.setflags(write=False)
        self._actions[path] = action
        return action

    def __repr__(self) -> str:
        return f"QModule({self.algebra.name}, dims={self.dim_vector()})"

    def equal_presentation(self, other: QModule) -> bool:
        """Exact equality of dims and matrices (not isomorphism)."""
        if other.algebra is not self.algebra or other.dims != self.dims:
            return False
        return all(np.array_equal(self.maps[a], other.maps[a]) for a in self.maps)


class QMorphism:
    """A module morphism given by one block per vertex."""

    def __init__(self, source: QModule, target: QModule, blocks: dict[str, np.ndarray]):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        field = source.algebra.field
        self.blocks = {}
        for v in source.algebra.quiver.vertices:
            t, s = target.dims[v], source.dims[v]
            b = blocks.get(v)
            if b is None:
                b = field.zeros(t, s)
            else:
                b = field.residues(b)
            if b.shape != (t, s):
                raise ShapeMismatch(f"block at {v} has shape {b.shape}, expected {(t, s)}")
            self.blocks[v] = b
        self._check_squares()

    @classmethod
    def _certified(cls, source: QModule, target: QModule, blocks: dict[str, np.ndarray]) -> QMorphism:
        """A morphism whose blocks are valid by construction: no square check.

        ``_hom_basis_compute`` certifies a whole kernel with one product; a
        zero map, a composite, sum, multiple, inverse or dual of valid
        morphisms, or a combination of a certified basis, is valid, so its
        squares cannot fail; so is a canonical map whose squares are the
        equations it was solved or checked from (each call site says why).
        """
        f = cls.__new__(cls)
        f.source, f.target, f.blocks = source, target, blocks
        return f

    def _check_squares(self) -> None:
        field = self.source.algebra.field
        for a in self.source.algebra.quiver.arrows:
            lhs = field.matmul(self.target.maps[a.name], self.blocks[a.source])
            rhs = field.matmul(self.blocks[a.target], self.source.maps[a.name])
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"square for arrow {a.name} does not commute")

    # -- algebra of morphisms -------------------------------------------

    def compose(self, first: QMorphism) -> QMorphism:
        """self after first."""
        if first.target is not self.source and not first.target.equal_presentation(self.source):
            raise ShapeMismatch("composition endpoints do not match")
        field = self.source.algebra.field
        blocks = {v: field.matmul(self.blocks[v], first.blocks[v]) for v in self.blocks}
        return QMorphism._certified(first.source, self.target, blocks)

    def add(self, other: QMorphism) -> QMorphism:
        for mine, theirs in ((self.source, other.source), (self.target, other.target)):
            if theirs is not mine and not theirs.equal_presentation(mine):
                raise ShapeMismatch("summands have different endpoints")
        field = self.source.algebra.field
        blocks = {v: field.add(self.blocks[v], other.blocks[v]) for v in self.blocks}
        return QMorphism._certified(self.source, self.target, blocks)

    def scale(self, c: int) -> QMorphism:
        field = self.source.algebra.field
        blocks = {v: field.scale(c, self.blocks[v]) for v in self.blocks}
        return QMorphism._certified(self.source, self.target, blocks)

    def negate(self) -> QMorphism:
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(not np.any(b) for b in self.blocks.values())

    def is_injective(self) -> bool:
        field = self.source.algebra.field
        return all(field.rank(b) == b.shape[1] for b in self.blocks.values())

    def is_surjective(self) -> bool:
        field = self.source.algebra.field
        return all(field.rank(b) == b.shape[0] for b in self.blocks.values())

    def is_isomorphism(self) -> bool:
        return all(b.shape[0] == b.shape[1] for b in self.blocks.values()) and self.is_injective()

    def inverse(self) -> QMorphism:
        field = self.source.algebra.field
        blocks = {}
        for v, b in self.blocks.items():
            inv = field.inverse(b)
            if inv is None:
                raise ValueError("morphism is not invertible")
            blocks[v] = inv
        return QMorphism._certified(self.target, self.source, blocks)

    def trace(self) -> int:
        field = self.source.algebra.field
        return int(sum(int(np.trace(b)) for b in self.blocks.values()) % field.p)

    def to_vector(self) -> np.ndarray:
        """Row-major flattening of all blocks in vertex order."""
        parts = [self.blocks[v].reshape(-1) for v in self.source.algebra.quiver.vertices]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"QMorphism({self.source.dim_vector()} -> {self.target.dim_vector()})"


def identity_morphism(m: QModule) -> QMorphism:
    """The identity of m, built once per module; its blocks are the read-only trivial-path actions."""
    if m._identity is None:
        m._identity = QMorphism._certified(m, m, {v: m.path_action(Path(v, v, ())) for v in m.dims})
    return m._identity


def zero_morphism(source: QModule, target: QModule) -> QMorphism:
    if source.algebra is not target.algebra:
        raise AlgebraMismatch("morphism endpoints live over different algebras")
    zeros = source.algebra.field.zeros
    blocks = {v: zeros(target.dims[v], source.dims[v]) for v in source.dims}
    return QMorphism._certified(source, target, blocks)


# -- hom spaces -----------------------------------------------------------


class HomSpace(Sequence):
    """A basis of Hom(source, target): the certified kernel rows K, read through views.

    Row r of the read-only ``rows`` is the r-th basis map flattened like
    ``QMorphism.to_vector``, and block X_v takes the ``t_v * s_v`` columns
    from ``offsets[v]``.  ``stack(v)`` views them as an (n, t_v, s_v)
    array; it is made per call and not stored, since the memo keeps every
    hom space a glue solves and stored views would add to each.  The basis
    morphisms, whose blocks are read-only views of K, are built on first
    iteration or indexing.
    """

    def __init__(self, source: QModule, target: QModule, rows: np.ndarray, offsets: dict[str, int]):
        rows.setflags(write=False)
        self.source, self.target, self.rows, self.offsets = source, target, rows, offsets
        self._maps: tuple[QMorphism, ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        return self._morphisms()[index]

    def __iter__(self):
        return iter(self._morphisms())

    def stack(self, v: str) -> np.ndarray:
        """The blocks at v of every basis map, as one read-only (n, t_v, s_v) view of K."""
        t, s, o = self.target.dims[v], self.source.dims[v], self.offsets[v]
        return self.rows[:, o : o + t * s].reshape(len(self.rows), t, s)

    def blocks(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """The blocks X_v of a vector laid out like a row of K."""
        source, target = self.source.dims, self.target.dims
        return {v: vec[o : o + target[v] * source[v]].reshape(target[v], source[v]) for v, o in self.offsets.items()}

    def _morphisms(self) -> tuple[QMorphism, ...]:
        if self._maps is None:
            self._maps = tuple(QMorphism._certified(self.source, self.target, self.blocks(vec)) for vec in self.rows)
        return self._maps


def hom_basis(source: QModule, target: QModule) -> HomSpace:
    """A basis of Hom(source, target) as the kernel of all square equations.

    Cached per (source, target) object pair: every call returns the one
    read-only ``HomSpace``, and its morphisms are shared.
    """
    if source.algebra is not target.algebra:
        raise AlgebraMismatch("hom requires a common algebra")
    return memo(source.algebra, "hom", (source, target), lambda: _hom_basis_compute(source, target))


def _hom_basis_compute(source: QModule, target: QModule) -> HomSpace:
    """The kernel K of the square equations, certified by one product system @ K == 0.

    Unknowns are the blocks X_v (t_v x s_v, row-major).  The equation
    N_a X_u - X_w M_a = 0 of an arrow a: u -> w fills rows (i, j) of its
    block: column (u, k, j) gets N_a[i, k] and column (w, i, l) gets
    -M_a[l, j].  A system of at most ``SMALL`` cells is built row by row
    on Python integers and reduced there (``_hom_kernel_rows``), a larger
    one by index scatter into an int64 array (``_hom_kernel_scatter``);
    both give the same K.  A system with no equation (no arrow runs from
    a vertex where the source is nonzero to one where the target is) is
    not eliminated: K is the identity, and the product would certify
    nothing.
    """
    offsets, total = _hom_layout(source, target)
    if total == 0:
        return HomSpace(source, target, np.zeros((0, 0), dtype=np.int64), offsets)
    rows = sum(target.dims[a.target] * source.dims[a.source] for a in source.algebra.quiver.arrows)
    if not rows:
        # no arrow gives an equation, so every block is free: K is the identity
        vecs = source.algebra.field.identity(total)
    else:
        vecs = (_hom_kernel_rows if rows * total <= SMALL else _hom_kernel_scatter)(source, target)
    return HomSpace(source, target, vecs, offsets)


def _hom_layout(source: QModule, target: QModule) -> tuple[dict[str, int], int]:
    """The offset of each block X_v among the unknowns, and their number."""
    offsets = {}
    total = 0
    for v in source.algebra.quiver.vertices:
        offsets[v] = total
        total += target.dims[v] * source.dims[v]
    return offsets, total


def _hom_kernel_rows(source: QModule, target: QModule) -> np.ndarray:
    """The rows of K^T, from the square equations assembled as lists of Python integers."""
    field = source.algebra.field
    p = field.p
    offsets, total = _hom_layout(source, target)
    system = []
    for a in source.algebra.quiver.arrows:
        s_u, s_w = source.dims[a.source], source.dims[a.target]
        o_u, o_w = offsets[a.source], offsets[a.target]
        m_a = source.maps[a.name].tolist()
        for i, n_row in enumerate(target.maps[a.name].tolist()):
            for j in range(s_u):
                row = [0] * total
                for k, x in enumerate(n_row):
                    row[o_u + k * s_u + j] = x
                for l in range(s_w):
                    c = o_w + i * s_w + l
                    row[c] = (row[c] - m_a[l][j]) % p
                system.append(row)
    vectors = field.kernel_vectors(system, total)
    kernel = np.array(vectors, dtype=np.int64).reshape(len(vectors), total)
    _certify_hom_kernel(source, target, np.array(system, dtype=np.int64).reshape(len(system), total), kernel.T)
    return kernel


def _hom_kernel_scatter(source: QModule, target: QModule) -> np.ndarray:
    """The rows of K^T, from the square equations scattered into an int64 array by index."""
    field = source.algebra.field
    quiver = source.algebra.quiver
    offsets, total = _hom_layout(source, target)
    row_counts = [target.dims[a.target] * source.dims[a.source] for a in quiver.arrows]
    system = np.zeros((sum(row_counts), total), dtype=np.int64)
    row = 0
    for a, n_rows in zip(quiver.arrows, row_counts):
        if not n_rows:
            continue
        t_u, t_w = target.dims[a.source], target.dims[a.target]
        s_u, s_w = source.dims[a.source], source.dims[a.target]
        block = system[row : row + n_rows].reshape(t_w, s_u, total)
        i = np.arange(t_w).reshape(-1, 1, 1)
        j = np.arange(s_u).reshape(1, -1, 1)
        block[i, j, offsets[a.source] + np.arange(t_u) * s_u + j] = target.maps[a.name][:, None, :]
        block[i, j, offsets[a.target] + i * s_w + np.arange(s_w)] -= source.maps[a.name].T[None, :, :]
        row += n_rows
    np.mod(system, field.p, out=system)
    kernel = field.kernel_basis(system)
    _certify_hom_kernel(source, target, system, kernel)
    return kernel.T.copy()


def _certify_hom_kernel(source: QModule, target: QModule, system: np.ndarray, kernel: np.ndarray) -> None:
    if source.algebra.field.matmul(system, kernel).any():
        pair = f"{source.dim_vector()} -> {target.dim_vector()}"
        raise RuntimeError(f"hom kernel certificate failed: system @ K != 0 for {pair}")


def hom_dim(source: QModule, target: QModule) -> int:
    return len(hom_basis(source, target))


# -- sub/quotient machinery ----------------------------------------------


def _fingerprint(dim_vector: tuple[int, ...], arrows: list[np.ndarray]) -> tuple:
    """The dimension vector and a hash of the map bytes: no second copy of the maps."""
    return dim_vector, hash(b"".join(a.tobytes() for a in arrows))


def _shared_module(algebra: BoundQuiverAlgebra, dims: dict[str, int], maps: dict[str, np.ndarray]) -> QModule:
    """The algebra's one module with this presentation (dims and canonical maps).

    Keyed by ``_fingerprint``; a hit is checked for equal dims and equal
    maps, and on a mismatch the module is not shared.
    """
    dim_vector = tuple(int(dims.get(v, 0)) for v in algebra.quiver.vertices)
    arrows = [maps[a.name] for a in algebra.quiver.arrows]
    key = _fingerprint(dim_vector, arrows)
    shared = memo(algebra, "module", key, lambda: QModule(algebra, dims, maps))
    if shared.dim_vector() == dim_vector and all(
        np.array_equal(shared.maps[a.name], m) for a, m in zip(algebra.quiver.arrows, arrows)
    ):
        return shared
    return QModule(algebra, dims, maps)


def submodule_from_bases(m: QModule, bases: dict[str, np.ndarray]) -> tuple[QModule, QMorphism]:
    """The submodule spanned vertex-wise by given independent columns.

    The spans must be arrow-stable; if not, coordinate solving fails and
    this raises, which is the desired loud failure.  The submodule is the
    algebra's shared module for its presentation; the inclusion is built
    per call.  Bases are canonical residues, as ``kernel_basis`` and
    ``image_basis`` return them: they become the inclusion's blocks.
    """
    field = m.algebra.field
    dims = {v: bases[v].shape[1] for v in bases}
    maps = {}
    for a in m.algebra.quiver.arrows:
        u, w = a.source, a.target
        mapped = field.matmul(m.maps[a.name], bases[u])
        coords = field.solve_matrix(bases[w], mapped)
        if coords is None:
            raise ValueError(f"spans are not stable under arrow {a.name}")
        maps[a.name] = coords
    sub = _shared_module(m.algebra, dims, maps)
    # the squares map_a @ bases[u] == bases[w] @ coords are the equations just solved
    return sub, QMorphism._certified(sub, m, dict(bases))


def quotient_by_images(m: QModule, image_bases: dict[str, np.ndarray]) -> tuple[QModule, QMorphism]:
    """The quotient of m by the arrow-stable span of given image columns.

    The quotient is the algebra's shared module for its presentation; the
    projection is built per call.
    """
    field = m.algebra.field
    proj_blocks = {}
    sections = {}
    dims = {}
    for v in m.algebra.quiver.vertices:
        n = m.dims[v]
        img = image_bases[v]
        full = field.image_basis(np.hstack([img, field.identity(n)])) if n else field.zeros(0, 0)
        r = img.shape[1]
        inv = field.inverse(full)
        proj_blocks[v] = inv[r:, :] if n else field.zeros(0, 0)
        sections[v] = full[:, r:] if n else field.zeros(0, 0)
        dims[v] = n - r
    maps = {}
    for a in m.algebra.quiver.arrows:
        u, w = a.source, a.target
        induced = field.matmul(field.matmul(proj_blocks[w], m.maps[a.name]), sections[u])
        # well-definedness: induced @ proj_u must equal proj_w @ map_a
        lhs = field.matmul(induced, proj_blocks[u])
        rhs = field.matmul(proj_blocks[w], m.maps[a.name])
        if not np.array_equal(lhs, rhs):
            raise ValueError(f"image spans are not stable under arrow {a.name}")
        maps[a.name] = induced
    quot = _shared_module(m.algebra, dims, maps)
    # the well-definedness check above is exactly the projection's square check
    return quot, QMorphism._certified(m, quot, proj_blocks)


def kernel(f: QMorphism) -> tuple[QModule, QMorphism]:
    """(K, inclusion K -> source) with K the vertex-wise kernel."""
    field = f.source.algebra.field
    bases = {v: field.kernel_basis(f.blocks[v]) for v in f.blocks}
    return submodule_from_bases(f.source, bases)


def image(f: QMorphism) -> tuple[QModule, QMorphism]:
    """(I, inclusion I -> target) with I the vertex-wise image."""
    field = f.source.algebra.field
    bases = {v: field.image_basis(f.blocks[v]) for v in f.blocks}
    return submodule_from_bases(f.target, bases)


def cokernel(f: QMorphism) -> tuple[QModule, QMorphism]:
    """(C, projection target -> C) with C the vertex-wise cokernel."""
    field = f.source.algebra.field
    bases = {v: field.image_basis(f.blocks[v]) for v in f.blocks}
    return quotient_by_images(f.target, bases)


# -- standard modules ------------------------------------------------------


def zero_module(algebra: BoundQuiverAlgebra) -> QModule:
    return QModule(algebra, {}, {})


def simple(algebra: BoundQuiverAlgebra, v: str) -> QModule:
    algebra.quiver.check_vertex(v)
    return memo(algebra, "simple", v, lambda: QModule(algebra, {v: 1}, {}))


def projective(algebra: BoundQuiverAlgebra, v: str) -> QModule:
    """P(v): basis are the residue paths with source v, arrows act by composition."""
    algebra.quiver.check_vertex(v)

    def build():
        field = algebra.field
        per_vertex = {u: algebra.basis_paths_between(v, u) for u in algebra.quiver.vertices}
        pos_in_vertex = {bi: k for paths in per_vertex.values() for k, bi in enumerate(paths)}
        maps = {}
        for a in algebra.quiver.arrows:
            u, w = a.source, a.target
            mat = field.zeros(len(per_vertex[w]), len(per_vertex[u]))
            for bi in per_vertex[u]:
                p = algebra.basis[bi]
                extended = Path(p.source, a.target, p.arrows + (a.name,))
                for bj, coeff in algebra.reduce_path(extended).items():
                    mat[pos_in_vertex[bj], pos_in_vertex[bi]] = coeff
            maps[a.name] = mat
        return QModule(algebra, {u: len(paths) for u, paths in per_vertex.items()}, maps)

    return memo(algebra, "projective", v, build)


def injective(algebra: BoundQuiverAlgebra, v: str) -> QModule:
    """I(v): the dual of the projective at v over the opposite algebra."""
    algebra.quiver.check_vertex(v)
    return memo(algebra, "injective", v, lambda: dualize(projective(algebra.opposite(), v)))


def dualize(m: QModule) -> QModule:
    """The k-dual as a module over the opposite algebra.

    Memoized both ways, so dualize(dualize(m)) is m itself and downstream
    per-object caches (resolutions, hom spaces) stay warm.
    """

    def build() -> QModule:
        op = m.algebra.opposite()
        dual = QModule(op, dict(m.dims), {a.name: m.maps[a.name].T.copy() for a in m.algebra.quiver.arrows})
        memo(op, "dual", dual, lambda: m)
        return dual

    return memo(m.algebra, "dual", m, build)


def transport_module(m: QModule, algebra: BoundQuiverAlgebra) -> QModule:
    """Rebuild m over a structurally equal algebra object.

    Useful when two construction routes (restriction of an opposite vs
    opposite of a restriction) produce equal algebras as distinct
    objects.  Vertex and arrow names must match; the relation check of
    the constructor certifies compatibility.
    """
    if m.algebra.quiver.vertices != algebra.quiver.vertices or set(
        m.algebra.quiver.arrows
    ) != set(algebra.quiver.arrows):
        raise AlgebraMismatch("algebras are not structurally compatible")
    return QModule(algebra, dict(m.dims), dict(m.maps))


def dualize_morphism(f: QMorphism) -> QMorphism:
    """Contravariant dual: a morphism D(target) -> D(source)."""
    return QMorphism._certified(dualize(f.target), dualize(f.source), {v: b.T.copy() for v, b in f.blocks.items()})


def direct_sum(algebra: BoundQuiverAlgebra, modules: list[QModule]) -> QModule:
    """The sum of ``modules`` with block-diagonal arrow maps, in the given order.

    Cached per tuple of summand objects, so covers with the same
    generators share one module; ``split_summands`` reads its summands.
    """
    for m in modules:
        if m.algebra is not algebra:
            raise AlgebraMismatch("direct sum over mixed algebras")
    return memo(algebra, "direct_sum", tuple(modules), lambda: _direct_sum_compute(algebra, modules))


def _direct_sum_compute(algebra: BoundQuiverAlgebra, modules: list[QModule]) -> QModule:
    field = algebra.field
    dims = {v: sum(m.dims[v] for m in modules) for v in algebra.quiver.vertices}
    maps = {}
    for a in algebra.quiver.arrows:
        mat = field.zeros(dims[a.target], dims[a.source])
        ro = co = 0
        for m in modules:
            t, s = m.dims[a.target], m.dims[a.source]
            mat[ro : ro + t, co : co + s] = m.maps[a.name]
            ro += t
            co += s
        maps[a.name] = mat
    total = QModule(algebra, dims, maps)
    memo(algebra, "summands", total, lambda: tuple(modules))
    return total


def direct_sum_with_maps(
    algebra: BoundQuiverAlgebra, modules: list[QModule]
) -> tuple[QModule, list[QMorphism], list[QMorphism]]:
    """(sum, injections, projections); the sum is ``direct_sum(algebra, modules)``."""
    field = algebra.field
    total = direct_sum(algebra, modules)
    injections, projections = [], []
    offsets = {v: 0 for v in algebra.quiver.vertices}
    for m in modules:
        inj_blocks, proj_blocks = {}, {}
        for v in algebra.quiver.vertices:
            o, d = offsets[v], m.dims[v]
            inj = field.zeros(total.dims[v], d)
            inj[o : o + d, :] = field.identity(d)
            inj_blocks[v] = inj
            proj_blocks[v] = inj.T.copy()
            offsets[v] = o + d
        # coordinate copies into and out of the block-diagonal sum
        injections.append(QMorphism._certified(m, total, inj_blocks))
        projections.append(QMorphism._certified(total, m, proj_blocks))
    return total, injections, projections


def _incoming(m: QModule, v: str) -> np.ndarray:
    """The images of all arrows into v side by side; their span is rad_v."""
    incoming = [m.maps[a.name] for a in m.algebra.quiver.arrows_to[v]]
    return np.hstack(incoming) if incoming else m.algebra.field.zeros(m.dims[v], 0)


def _radical_bases(m: QModule) -> dict[str, np.ndarray]:
    """Per vertex, a basis of the span of all incoming arrow images."""
    return {v: m.algebra.field.image_basis(_incoming(m, v)) for v in m.algebra.quiver.vertices}


def radical_submodule(m: QModule) -> tuple[QModule, QMorphism]:
    """rad M = sum of arrow images, as a submodule with inclusion."""
    return submodule_from_bases(m, _radical_bases(m))


def top_quotient(m: QModule) -> tuple[QModule, QMorphism]:
    """top M = M / rad M with its projection."""
    return quotient_by_images(m, _radical_bases(m))


def top_lifts(m: QModule) -> dict[str, list[int]]:
    """Per vertex v, the j with e_j outside rad_v + span(e_<j), increasing.

    These unit vectors lift a basis of (top M)_v: they are the pivot
    columns of ``[rad_v | I]`` past rad_v, so they are exactly the section
    of ``top_quotient``'s projection that elimination picks (its pivot
    columns, on which the projection is the identity).
    """
    field = m.algebra.field
    lifts = {}
    for v, d in m.dims.items():
        rad = _incoming(m, v)
        if not d or not rad.shape[1]:
            lifts[v] = list(range(d))
            continue
        _, pivots, _ = field.rref(np.hstack([rad, field.identity(d)]))
        lifts[v] = [c - rad.shape[1] for c in pivots if c >= rad.shape[1]]
    return lifts


def socle_submodule(m: QModule) -> tuple[QModule, QMorphism]:
    """soc M = vertex-wise kernel of all outgoing maps."""
    field = m.algebra.field
    bases = {}
    for v in m.algebra.quiver.vertices:
        outgoing = [m.maps[a.name] for a in m.algebra.quiver.arrows_from[v]]
        stacked = np.vstack(outgoing) if outgoing else field.zeros(0, m.dims[v])
        bases[v] = field.kernel_basis(stacked)
    return submodule_from_bases(m, bases)


# -- decomposition ---------------------------------------------------------


def _trace_pairing(field, end: HomSpace) -> np.ndarray:
    """Entry (i, j): the trace of b_i o b_j, for the basis b of an End(m).

    Row i of K holds b_i's blocks; tr(b_i o b_j) pairs them with b_j's
    blocks transposed.
    """
    n = len(end)
    cols = [b.transpose(0, 2, 1).reshape(n, b.shape[1] * b.shape[2]) for b in map(end.stack, end.offsets)]
    return field.matmul(end.rows, np.concatenate(cols, axis=1).T)


def split_summands(m: QModule) -> list[tuple[QModule, QMorphism, QMorphism]]:
    """All indecomposable summands of m with inclusions and projections.

    Indecomposability of each returned piece is certified through the
    endomorphism algebra (End/rad is a field), never assumed.  A module that
    is not indecomposable is cut along every primitive idempotent of one
    commutative subalgebra of End at once, and each piece is split again
    until all are certified.  A ``direct_sum`` of several modules reuses
    their certified pieces through its canonical maps (by Krull-Schmidt,
    the multiset End gives).  Results are cached per module object.
    """
    if m.total_dim == 0:
        return []
    if m.algebra.field.p <= m.total_dim:
        raise FieldTooSmall(f"decomposition needs p > {m.total_dim}, have {m.algebra.field.p}")
    return list(memo(m.algebra, "split", m, lambda: _split_summands_compute(m)))


def _split_summands_compute(m: QModule) -> tuple[tuple[QModule, QMorphism, QMorphism], ...]:
    summands = memo(m.algebra, "summands", m, tuple)
    result, stack = [], []
    if len(summands) > 1:
        _, injections, projections = direct_sum_with_maps(m.algebra, list(summands))
        for part, inj, pr in zip(summands, injections, projections):
            result += [(piece, inj.compose(i), p.compose(pr)) for piece, i, p in split_summands(part)]
    else:
        stack.append((m, identity_morphism(m), identity_morphism(m)))
    while stack:
        cur, incl, proj = stack.pop()
        if cur.total_dim == 0:
            continue
        split = _split_module_once(cur)
        if split is None:
            result.append((cur, incl, proj))
            continue
        for piece, p_incl, p_proj in split:
            stack.append((piece, incl.compose(p_incl), p_proj.compose(proj)))
    result.sort(key=lambda t: (-t[0].total_dim, t[0].dim_vector()))
    return tuple(result)


def _split_module_once(m: QModule) -> list[tuple[QModule, QMorphism, QMorphism]] | None:
    """One splitting step; None certifies that m is indecomposable.

    Draws a = sum c_i b_i over the End basis from ``Random(_SPLIT_SEED)``
    (each c_i by ``randrange(p)``; every step restarts the sequence) and
    cuts m into the generalized eigenspaces of a, one per irreducible
    factor of its characteristic polynomials.  A draw that leaves m whole
    has one factor f, of degree d; the step then certifies m
    indecomposable when d = s = dim End(m)/rad, the rank of the trace
    form (computed once per step), and otherwise draws again.
    """
    field = m.algebra.field
    basis = _hom_basis_compute(m, m)
    n = len(basis)
    if n == 1:  # End(m) is the field itself
        return None
    rng = Random(_SPLIT_SEED)
    residue_dim = None
    for _ in range(4096):
        coeffs = np.array([[rng.randrange(field.p) for _ in range(n)]], dtype=np.int64)
        a = basis.blocks(field.matmul(coeffs, basis.rows)[0])
        components, degrees = _primary_components(field, a, rng)
        if len(components) > 1:
            return _split_into(m, components)
        if residue_dim is None:
            residue_dim = field.rank(_trace_pairing(field, basis))
        if degrees[0] == residue_dim:
            return None
    raise RuntimeError("no splitting element found; raise the trial bound")


def _primary_components(
    field, a: dict[str, np.ndarray], rng: Random
) -> tuple[list[dict[str, np.ndarray]], list[int]]:
    """Per irreducible factor f of the characteristic polynomials chi_v of a, the bases of ker f(a_v)^e_v, and deg f.

    e_v is the multiplicity of f in chi_v, so ker f(a_v)^e_v is the
    generalized eigenspace of a_v for f: the image at v of the primitive
    idempotent of F_p[a] that belongs to f.  The factors are those of the
    squarefree part of the product of the chi_v, of degree dim m < p;
    their equal-degree splits draw from the step's ``rng``, so the next
    element a is drawn after them.
    """
    charpolys = {v: field.charpoly(block) for v, block in a.items()}
    product = [1]
    for chi in charpolys.values():
        product = field.poly_mul(product, chi)
    components, degrees = [], []
    for f in field.irreducible_factors(product, rng):
        bases = {}
        for v, chi in charpolys.items():
            power = [1]
            quotient, rest = field.poly_divmod(chi, f)
            while not rest:
                chi, power = quotient, field.poly_mul(power, f)
                quotient, rest = field.poly_divmod(chi, f)
            bases[v] = field.kernel_basis(field.poly_at(power, a[v])) if len(power) > 1 else field.zeros(len(a[v]), 0)
        components.append(bases)
        degrees.append(len(f) - 1)
    return components, degrees


def _split_into(m: QModule, components: list[dict[str, np.ndarray]]) -> list[tuple[QModule, QMorphism, QMorphism]]:
    """m as the sum of the submodules that ``components`` span, with inclusions and projections.

    ``submodule_from_bases`` refuses a span that an arrow leaves.  At each
    vertex the bases side by side must fill M_v; the rows of their
    inverse are the projections along the other components.  Each
    projection then commutes with the arrows, since every component is
    a submodule, so it is canonical.
    """
    field = m.algebra.field
    subs = [submodule_from_bases(m, bases) for bases in components]
    projections: list[dict[str, np.ndarray]] = [{} for _ in components]
    for v in m.algebra.quiver.vertices:
        together = np.hstack([bases[v] for bases in components])
        inverse = field.inverse(together) if together.shape[1] == m.dims[v] else None
        if inverse is None:
            raise RuntimeError(f"eigenspaces do not fill the space at vertex {v}")
        start = 0
        for proj, bases in zip(projections, components):
            proj[v], start = inverse[start : start + bases[v].shape[1]], start + bases[v].shape[1]
    return [(piece, incl, QMorphism._certified(m, piece, proj)) for (piece, incl), proj in zip(subs, projections)]


def decompose(m: QModule) -> list[tuple[QModule, int]]:
    """Indecomposable summands with multiplicities, canonically ordered."""
    parts = split_summands(m)
    groups: list[tuple[QModule, int]] = []
    for piece, _, _ in parts:
        for i, (rep, count) in enumerate(groups):
            if indecomposable_iso(rep, piece) is not None:
                groups[i] = (rep, count + 1)
                break
        else:
            groups.append((piece, 1))
    return groups


def indecomposable_iso(m: QModule, n: QModule) -> QMorphism | None:
    """Isomorphism witness between indecomposables, or None.

    Sound for indecomposables: the witness is the first basis map of
    Hom(m, n) that is an isomorphism.  If some phi: m -> n is one, then
    f -> phi^-1 o f is a linear isomorphism Hom(m, n) -> End(m), so the
    basis maps to a spanning set of End(m).  End(m) is local, so its
    non-units form an ideal, a proper subspace, and a spanning set holds
    a unit u; the basis map phi o u is then an isomorphism.  So Hom(n, m)
    is never built.
    """
    if m.dim_vector() != n.dim_vector():
        return None
    return next((f for f in hom_basis(m, n) if f.is_isomorphism()), None)


def is_isomorphic(m: QModule, n: QModule) -> QMorphism | None:
    """Exact isomorphism test with witness, via Krull-Schmidt matching."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("isomorphism test requires a common algebra")
    if m.dim_vector() != n.dim_vector():
        return None
    if m.total_dim == 0:
        return identity_morphism(m) if n.total_dim == 0 else None
    parts_m = split_summands(m)
    parts_n = split_summands(n)
    if len(parts_m) != len(parts_n):
        return None
    used = [False] * len(parts_n)
    witness = zero_morphism(m, n)
    for piece, _, proj in parts_m:
        found = False
        for j, (other, incl_n, _) in enumerate(parts_n):
            if used[j]:
                continue
            phi = indecomposable_iso(piece, other)
            if phi is not None:
                used[j] = True
                witness = witness.add(incl_n.compose(phi).compose(proj))
                found = True
                break
        if not found:
            return None
    if not witness.is_isomorphism():
        raise RuntimeError("assembled summand matching is not invertible")
    return witness


# -- universes -------------------------------------------------------------


class Universe:
    """A named, finite list of pairwise non-isomorphic indecomposables."""

    def __init__(self, algebra: BoundQuiverAlgebra, members: list[tuple[str, QModule]]):
        self.algebra = algebra
        names = [n for n, _ in members]
        if len(set(names)) != len(names):
            raise UniverseInconsistent("duplicate member names")
        for _, mod in members:
            if mod.algebra is not algebra:
                raise AlgebraMismatch("universe member over a different algebra")
        self.members = list(members)
        self._by_name = dict(members)

    def __len__(self) -> int:
        return len(self.members)

    def names(self) -> list[str]:
        return [n for n, _ in self.members]

    def modules(self) -> list[QModule]:
        return [m for _, m in self.members]

    def module(self, name: str) -> QModule:
        if name not in self._by_name:
            raise UnknownVertex(f"no universe member named {name!r}")
        return self._by_name[name]

    def validate(self) -> None:
        """Certify members are indecomposable and pairwise non-isomorphic."""
        for name, mod in self.members:
            if mod.total_dim == 0:
                raise UniverseInconsistent(f"member {name} is the zero module")
            parts = split_summands(mod)
            if len(parts) != 1:
                raise UniverseInconsistent(f"member {name} decomposes into {len(parts)} summands")
        for i, (name_a, a) in enumerate(self.members):
            for name_b, b in self.members[i + 1 :]:
                if indecomposable_iso(a, b) is not None:
                    raise UniverseInconsistent(f"members {name_a} and {name_b} are isomorphic")

    def find_member(self, m: QModule) -> str | None:
        """Name of the member isomorphic to an indecomposable m, if any."""
        for name, member in self.members:
            if indecomposable_iso(member, m) is not None:
                return name
        return None

    def decompose_names(self, m: QModule) -> Counter:
        """Summands of m as a multiset of member names."""
        counts: Counter = Counter()
        for rep, mult in decompose(m):
            name = self.find_member(rep)
            if name is None:
                raise UniverseInconsistent(
                    f"summand with dims {rep.dim_vector()} matches no universe member"
                )
            counts[name] += mult
        return counts

    def dualized(self) -> Universe:
        """The universe of duals over the opposite algebra."""
        return Universe(self.algebra.opposite(), [(n, dualize(m)) for n, m in self.members])

    def transported(self, algebra: BoundQuiverAlgebra) -> Universe:
        """The same members rebuilt over a structurally equal algebra."""
        return Universe(algebra, [(n, transport_module(m, algebra)) for n, m in self.members])
