"""Resolutions, syzygies, Ext groups, extension realization and dimensions.

Minimal projective resolutions are built from projective covers
(radical-superfluous kernels); the injective side is routed through the
opposite algebra via duality, never by separate formulas.

``ext`` returns both a dimension and an explicit cocycle basis: classes
in Ext^i(M, N) are represented by morphisms from the i-th syzygy of M
to N, normalized by row reduction of their coordinate vectors so the
basis is deterministic.  The dimension is checked against a second
route that shares only the resolution: the cohomology of Hom(P_*, N) in
Yoneda coordinates, Hom(P(v), N) = N_v (each resolution records the
generator vertices of its terms), where Hom(d_k, N) is a block matrix
of N's path actions and needs no hom kernel, morphism or solve.
Resolutions are cached per module object with ``memo``; a request longer
than the cached one extends it from its last step, and a resolution that
reaches a zero syzygy repeats that zero module from there on without
further covers.  Cover generators are unit vectors read off the
complement of the radical (``top_lifts``), so no top quotient is built.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .algebra import memo
from .modcat import (
    HomSpace,
    QModule,
    QMorphism,
    cokernel,
    direct_sum,
    direct_sum_with_maps,
    dualize,
    dualize_morphism,
    hom_basis,
    kernel,
    projective,
    simple,
    top_lifts,
    zero_morphism,
)

DEFAULT_DIM_CAP = 8


def exact_at_middle(first: QMorphism, second: QMorphism) -> bool:
    """Whether L -> M -> R is exact at M: a zero composite, and rank(first) = nullity(second) at every vertex."""
    field = first.target.algebra.field
    return second.compose(first).is_zero() and all(
        field.rank(first.blocks[v]) == second.blocks[v].shape[1] - field.rank(second.blocks[v])
        for v in first.target.dims
    )


class ShortExactSequence(NamedTuple):
    """0 -> sub -> mid -> quot -> 0 with verification on demand."""

    incl: QMorphism
    proj: QMorphism

    @property
    def sub(self) -> QModule:
        return self.incl.source

    @property
    def mid(self) -> QModule:
        return self.incl.target

    @property
    def quot(self) -> QModule:
        return self.proj.target

    def verify(self) -> None:
        """Raise ValueError naming the first failure: injectivity, surjectivity, a nonzero composite, exactness.

        Each vertex's two blocks are ranked once; all four tests read those ranks.
        """
        field = self.mid.algebra.field
        incl, proj = self.incl.blocks, self.proj.blocks
        ranks = {v: (field.rank(incl[v]), field.rank(proj[v])) for v in self.mid.dims}
        if any(r_incl != incl[v].shape[1] for v, (r_incl, _) in ranks.items()):
            raise ValueError("left map is not injective")
        if any(r_proj != proj[v].shape[0] for v, (_, r_proj) in ranks.items()):
            raise ValueError("right map is not surjective")
        if not self.proj.compose(self.incl).is_zero():
            raise ValueError("composite is nonzero")
        for v, (r_incl, r_proj) in ranks.items():
            if r_incl != proj[v].shape[1] - r_proj:
                raise ValueError(f"not exact at the middle, vertex {v}")


class Resolution(NamedTuple):
    """A finite initial segment of a minimal resolution.

    ``terms[k]`` = P_k covers the k-th syzygy (the target for k = 0);
    ``augmentation`` maps terms[0] onto the target, and
    ``differentials[k-1]`` is d_k: terms[k] -> terms[k-1] for k >= 1.
    ``syzygies[k-1]`` is Omega^k with its inclusion into terms[k-1], so
    ``syzygy(m, k)`` is ``syzygies[k-1][0]``.  ``generators[k]`` lists
    the vertex v of each summand P(v) of terms[k] in cover order (I(v)
    for the injective kind).  Arrows dualize for the injective kind.
    """

    target: QModule
    kind: str  # "projective" | "injective"
    terms: tuple[QModule, ...]
    differentials: tuple[QMorphism, ...]
    augmentation: QMorphism
    syzygies: tuple[tuple[QModule, QMorphism], ...]
    generators: tuple[tuple[str, ...], ...]

    def length_computed(self) -> int:
        return len(self.terms) - 1


def projective_cover(m: QModule) -> QMorphism:
    """The minimal surjection P(top m) ->> m."""
    return _projective_cover(m)[0]


def _projective_cover(m: QModule) -> tuple[QMorphism, tuple[str, ...]]:
    """The projective cover with the vertex of each generator, in cover order.

    The generators are the unit vectors ``top_lifts`` reads off the
    complement of the radical; the trivial path of the g-th summand P(v)
    goes to the g-th of them, and every residue path q of P(v) to q times it.
    """
    algebra = m.algebra
    field = algebra.field
    lifts = top_lifts(m)
    vertices = algebra.quiver.vertices
    generators = tuple(v for v in vertices for _ in lifts[v])
    cover = direct_sum(algebra, [projective(algebra, v) for v in generators])
    blocks = {u: field.zeros(m.dims[u], cover.dims[u]) for u in vertices}
    offsets = dict.fromkeys(vertices, 0)
    for v in vertices:
        if not lifts[v]:
            continue
        for u in vertices:
            paths = algebra.basis_paths_between(v, u)
            if not paths:
                continue
            # column (g, k): the k-th residue path v -> u applied to the g-th lift at v
            actions = np.stack([m.path_action(algebra.basis[bi])[:, lifts[v]] for bi in paths], axis=2)
            width = len(lifts[v]) * len(paths)
            blocks[u][:, offsets[u] : offsets[u] + width] = actions.reshape(m.dims[u], width)
            offsets[u] += width
    morphism = QMorphism(cover, m, blocks)
    if not morphism.is_surjective():
        raise RuntimeError("projective cover failed to surject")
    return morphism, generators


def injective_envelope(m: QModule) -> QMorphism:
    """The minimal injection m -> I(soc m), via the opposite algebra.

    Starts at m itself, because dualize(dualize(m)) is m.
    """
    return dualize_morphism(projective_cover(dualize(m)))


def projective_resolution(m: QModule, length: int) -> Resolution:
    """Minimal projective resolution computed out to at least the given degree.

    A cached resolution is reused when it is long enough; otherwise it is
    extended from its last step, so its terms and syzygies keep their
    identity (and the hom and Ext memo entries keyed on them stay valid).
    """
    res = memo(m.algebra, "resolution", m, lambda: _resolution_start(m))
    if res.length_computed() < length:
        res = m.algebra._memo["resolution"][m] = _extend(res, length)
    return res


def _resolution_start(m: QModule) -> Resolution:
    augmentation, gens = _projective_cover(m)
    return Resolution(m, "projective", (augmentation.source,), (), augmentation, (), (gens,))


def _extend(res: Resolution, length: int) -> Resolution:
    """``res`` continued out to ``length`` steps.

    The next syzygy is the kernel of the last map d_k (the augmentation
    for k = 0).  It equals the kernel of the cover P_k ->> Omega^k, since
    d_k is that cover followed by an injection, which leaves the row
    space, and so the kernel basis, unchanged.  A zero syzygy is its own
    cover, and from there on every syzygy, term and map is the same zero
    module and zero map.
    """
    terms, generators = list(res.terms), list(res.generators)
    differentials, syzygies = list(res.differentials), list(res.syzygies)
    last = differentials[-1] if differentials else res.augmentation
    while len(terms) <= length:
        if terms[-1].total_dim:
            syz, incl = kernel(last)
            if syz.total_dim:
                cover, gens = _projective_cover(syz)
                last = incl.compose(cover)
            else:
                last, gens = incl, ()
        else:
            syz = terms[-1]
            if last.target is not syz:
                last = zero_morphism(syz, syz)
            incl, gens = last, ()
        syzygies.append((syz, incl))
        differentials.append(last)
        terms.append(last.source)
        generators.append(gens)
    return res._replace(
        terms=tuple(terms),
        differentials=tuple(differentials),
        syzygies=tuple(syzygies),
        generators=tuple(generators),
    )


def injective_resolution(m: QModule, length: int) -> Resolution:
    """Minimal injective resolution (dual route).

    For the injective kind the arrows reverse: ``augmentation`` is the
    coaugmentation m -> terms[0], ``differentials[k-1]`` maps
    terms[k-1] -> terms[k], and ``syzygies[k-1]`` holds the k-th
    cosyzygy with the projection of terms[k-1] onto it.
    """
    res = projective_resolution(dualize(m), length)
    return Resolution(
        target=m,
        kind="injective",
        terms=tuple(dualize(t) for t in res.terms),
        differentials=tuple(dualize_morphism(d) for d in res.differentials),
        augmentation=dualize_morphism(res.augmentation),
        syzygies=tuple(
            (dualize(syz), dualize_morphism(incl)) for syz, incl in res.syzygies
        ),
        generators=res.generators,
    )


def syzygy(m: QModule, i: int) -> QModule:
    """The i-th syzygy along the minimal projective resolution."""
    if i < 0:
        raise ValueError("syzygy degree must be >= 0")
    if i == 0:
        return m
    res = projective_resolution(m, i)
    return res.syzygies[i - 1][0]


def syzygy_with_inclusion(m: QModule, i: int) -> tuple[QModule, QMorphism]:
    """(Omega^i m, inclusion into the (i-1)-st projective term), i >= 1."""
    if i < 1:
        raise ValueError("inclusion exists for degree >= 1")
    res = projective_resolution(m, i)
    return res.syzygies[i - 1]


def cosyzygy(m: QModule, i: int) -> QModule:
    """The i-th cosyzygy, through the opposite algebra."""
    if i < 0:
        raise ValueError("cosyzygy degree must be >= 0")
    if i == 0:
        return m
    return dualize(syzygy(dualize(m), i))


class ExtGroup(NamedTuple):
    """Ext^degree(source, target) with an explicit cocycle basis."""

    degree: int
    source: QModule
    target: QModule
    dimension: int
    cocycles: tuple[QMorphism, ...]  # morphisms Omega^degree(source) -> target


def ext(m: QModule, n: QModule, i: int) -> ExtGroup:
    """Ext^i(m, n) for i >= 1, with cocycles on the i-th syzygy.

    The dimension is computed twice: as Hom(Omega^i m, n) modulo maps
    factoring through the enclosing projective, and as the cohomology of
    the Hom complex of the minimal resolution in Yoneda coordinates
    (Hom(P_k, n) = sum of n_v over the generators of P_k).  Both must
    agree.
    """
    if i < 1:
        raise ValueError("ext is defined here for degree >= 1")
    if m.total_dim == 0 or n.total_dim == 0:
        return ExtGroup(i, m, n, 0, ())
    return memo(m.algebra, "ext", (m, n, i), lambda: _ext_compute(m, n, i))


def _ext_compute(m: QModule, n: QModule, i: int) -> ExtGroup:
    field = m.algebra.field
    res = projective_resolution(m, i + 1)
    syz, incl = res.syzygies[i - 1]
    if syz.total_dim == 0:
        return ExtGroup(i, m, n, 0, ())

    full = hom_basis(syz, n)
    if not full:
        return ExtGroup(i, m, n, 0, ())
    enclosing = hom_basis(res.terms[i - 1], n)
    full_vecs = full.rows.T
    if enclosing:
        fac_vecs = _factoring_vectors(enclosing, incl).T
        fac_coords = field.solve_matrix(full_vecs, fac_vecs)
        if fac_coords is None:
            raise RuntimeError("factoring maps escaped the hom space")
    else:
        fac_coords = field.zeros(len(full), 0)

    # quotient representatives: unit vectors on the non-pivot coordinates
    # of the factoring subspace (rref-normalized, hence deterministic)
    _, fac_pivots, fac_rank = field.rref(fac_coords.T)
    dimension = len(full) - fac_rank
    fac_pivot_set = set(fac_pivots)
    free_rows = [r for r in range(len(full)) if r not in fac_pivot_set]
    cocycles = [full[r] for r in free_rows]

    # cross-check against the Hom-complex cohomology
    complex_dim = _ext_dim_from_complex(m, n, i)
    if complex_dim != dimension:
        raise RuntimeError(
            f"Ext^{i} dimension mismatch: syzygy route {dimension}, complex route {complex_dim}"
        )
    return ExtGroup(i, m, n, dimension, tuple(cocycles))


def _factoring_vectors(maps: HomSpace, incl: QMorphism) -> np.ndarray:
    """Row r: the r-th basis map g of Hom(P, n) after incl: S -> P, flattened like ``QMorphism.to_vector``.

    One product per vertex v where S and n are nonzero: the (r, a) rows of
    g's blocks at v, side by side, times incl's block.
    """
    field = incl.source.algebra.field
    k, parts = len(maps), []
    for v in maps.offsets:
        g = maps.stack(v)
        t, s = g.shape[1], incl.source.dims[v]
        if t and s:
            parts.append(field.matmul(g.reshape(k * t, g.shape[2]), incl.blocks[v]).reshape(k, t * s))
    return np.concatenate(parts, axis=1)


def _ext_dim_from_complex(m: QModule, n: QModule, i: int) -> int:
    """dim Ext^i(m, n) as the cohomology of Hom(P_*, n) in Yoneda coordinates."""
    field = m.algebra.field
    res = projective_resolution(m, i + 1)
    dim_hom = sum(n.dims[v] for v in res.generators[i])
    if not dim_hom:
        return 0
    d_in = _yoneda_matrix(res, i, n)
    d_out = _yoneda_matrix(res, i + 1, n)
    return dim_hom - field.rank(d_out) - field.rank(d_in)


def _yoneda_plan(res: Resolution, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The nonzero coefficients (g, h, q, c) of d_k: d_k(e_g) = sum c q e_h, q by basis index.

    Built once per differential object: it does not depend on the target
    of Ext(M, -), so every target reads the same plan.
    """
    d = res.differentials[k - 1]

    def build() -> tuple[tuple[int, int, int, int], ...]:
        algebra = d.source.algebra
        sources, targets = res.generators[k], res.generators[k - 1]
        plan = []
        for g, y in enumerate(sources):
            # e_g follows the residue paths to y of the summands before it
            column = d.blocks[y][:, sum(len(algebra.basis_paths_between(x, y)) for x in sources[:g])]
            # row r of the column is the coefficient of the r-th residue path q e_h of P_(k-1) at y
            labels = [(h, q) for h, x in enumerate(targets) for q in algebra.basis_paths_between(x, y)]
            plan += [(g, *labels[r], int(column[r])) for r in np.flatnonzero(column)]
        return tuple(plan)

    return memo(d.source.algebra, "yoneda_plan", d, build)


def _yoneda_matrix(res: Resolution, k: int, n: QModule) -> np.ndarray:
    """The matrix of Hom(d_k, n): Hom(P_(k-1), n) -> Hom(P_k, n), for k >= 1.

    A map P(v) -> n is fixed by the image of e_v (Yoneda), so Hom(P_k, n)
    is the sum of n_(v_g) over the generators g of P_k.  If
    d_k(e_g) = sum c_(g,h,q) q e_h over residue paths q from v_h to v_g,
    then f o d_k sends e_g to sum c_(g,h,q) n(q) f(e_h): block (g, h) is
    sum_q c_(g,h,q) n(q), with the c read off ``_yoneda_plan``.
    """
    algebra = n.algebra
    field = algebra.field
    sources, targets = res.generators[k], res.generators[k - 1]
    row_offsets = list(accumulate((n.dims[v] for v in sources), initial=0))
    col_offsets = list(accumulate((n.dims[v] for v in targets), initial=0))
    out = field.zeros(row_offsets[-1], col_offsets[-1])
    for g, h, q, c in _yoneda_plan(res, k):
        if not (n.dims[sources[g]] and n.dims[targets[h]]):
            continue
        rows = slice(row_offsets[g], row_offsets[g + 1])
        cols = slice(col_offsets[h], col_offsets[h + 1])
        out[rows, cols] = field.add(out[rows, cols], field.scale(c, n.path_action(algebra.basis[q])))
    return out


def ext_dim_via_cosyzygy(m: QModule, n: QModule, i: int) -> int:
    """dim Ext^i(m, n) computed as dim Ext^1(m, Sigma^{i-1} n)."""
    if i < 1:
        raise ValueError("degree must be >= 1")
    target = cosyzygy(n, i - 1)
    if target.total_dim == 0 or m.total_dim == 0:
        return 0
    return ext(m, target, 1).dimension


def realize_extension(cocycle: QMorphism, u: QModule) -> ShortExactSequence:
    """The extension 0 -> A -> E -> U -> 0 classified by a 1-cocycle.

    The cocycle is a morphism Omega^1(u) -> A; E is the pushout of the
    syzygy inclusion along it.
    """
    a = cocycle.target
    syz, incl = syzygy_with_inclusion(u, 1)
    if not cocycle.source.equal_presentation(syz):
        raise ValueError("cocycle must start at the first syzygy of u")
    cocycle = QMorphism(syz, a, cocycle.blocks)
    e, leg_p0, leg_a = pushout(incl, cocycle)
    res = projective_resolution(u, 1)
    # E -> U by the universal property: agree with the augmentation on the
    # P0 leg and vanish on the A leg
    proj = _induced_from_pushout(e, leg_p0, leg_a, res.augmentation, zero_morphism(a, u))
    ses = ShortExactSequence(incl=leg_a, proj=proj)
    ses.verify()
    return ses


def _induced_from_pushout(
    e: QModule, leg_b: QMorphism, leg_c: QMorphism, f_b: QMorphism, f_c: QMorphism
) -> QMorphism:
    """The unique map e -> X with (map o leg_b, map o leg_c) = (f_b, f_c)."""
    field = e.algebra.field
    target = f_b.target
    blocks = {}
    for v in e.dims:
        gen = np.hstack([leg_b.blocks[v], leg_c.blocks[v]])
        rhs = np.hstack([f_b.blocks[v], f_c.blocks[v]])
        # solve X @ gen = rhs  <=>  gen^T @ X^T = rhs^T
        sol = field.solve_matrix(gen.T, rhs.T)
        if sol is None:
            raise RuntimeError("legs do not generate the pushout")
        blocks[v] = sol.T
    return QMorphism(e, target, blocks)


def pushout(f: QMorphism, g: QMorphism) -> tuple[QModule, QMorphism, QMorphism]:
    """Pushout of f: A -> B, g: A -> C; returns (P, leg_B, leg_C)."""
    if f.source is not g.source and not f.source.equal_presentation(g.source):
        raise ValueError("pushout needs a common source")
    algebra = f.source.algebra
    s, injections, _ = direct_sum_with_maps(algebra, [f.target, g.target])
    h = injections[0].compose(f).add(injections[1].compose(g).negate())
    quot, proj = cokernel(h)
    return quot, proj.compose(injections[0]), proj.compose(injections[1])


def pullback(f: QMorphism, g: QMorphism) -> tuple[QModule, QMorphism, QMorphism]:
    """Pullback of f: B -> A, g: C -> A; returns (P, leg_B, leg_C)."""
    if f.target is not g.target and not f.target.equal_presentation(g.target):
        raise ValueError("pullback needs a common target")
    algebra = f.source.algebra
    s, _, projections = direct_sum_with_maps(algebra, [f.source, g.source])
    h = f.compose(projections[0]).add(g.compose(projections[1]).negate())
    sub, incl = kernel(h)
    return sub, projections[0].compose(incl), projections[1].compose(incl)


def extension_class(ses: ShortExactSequence) -> QMorphism:
    """The connecting 1-cocycle Omega^1(quot) -> sub of a short exact sequence."""
    field = ses.mid.algebra.field
    u = ses.quot
    syz, incl = syzygy_with_inclusion(u, 1)
    res = projective_resolution(u, 1)
    p0 = res.terms[0]
    # an honest lift lam: p0 -> mid with proj o lam = augmentation
    lam = _solve_lift(p0, ses.mid, ses.proj, res.augmentation)
    composite = lam.compose(incl)
    # composite lands in ker(proj) = im(incl of sub); divide by the inclusion
    blocks = {}
    for v in p0.dims:
        sol = field.solve_matrix(ses.incl.blocks[v], composite.blocks[v])
        if sol is None:
            raise RuntimeError("lift does not land in the submodule")
        blocks[v] = sol
    return QMorphism(syz, ses.sub, blocks)


def _solve_lift(p: QModule, mid: QModule, proj: QMorphism, through: QMorphism) -> QMorphism:
    """Some lift h: p -> mid with proj o h = through (p projective)."""
    field = p.algebra.field
    basis = hom_basis(p, mid)
    if not basis:
        if through.is_zero():
            return zero_morphism(p, mid)
        raise RuntimeError("no lift exists")
    stacked = np.stack([proj.compose(h).to_vector() for h in basis], axis=1)
    sol = field.solve_matrix(stacked, through.to_vector().reshape(-1, 1))
    if sol is None:
        raise RuntimeError("no lift exists")
    lift = zero_morphism(p, mid)
    for k in range(len(basis)):
        c = int(sol[k, 0])
        if c % field.p:
            lift = lift.add(basis[k].scale(c))
    return lift


def pd(m: QModule, cap: int = DEFAULT_DIM_CAP) -> int | None:
    """Projective dimension, or None when it exceeds the cap."""
    if m.total_dim == 0:
        return 0
    # a cached resolution may run past the cap; scan only Omega^1..Omega^(cap+1)
    syzygies = projective_resolution(m, cap + 1).syzygies[: cap + 1]
    return next((i for i, (syz, _) in enumerate(syzygies) if syz.total_dim == 0), None)


def injdim(m: QModule, cap: int = DEFAULT_DIM_CAP) -> int | None:
    """Injective dimension, computed over the opposite algebra."""
    return pd(dualize(m), cap)


def global_dimension(algebra, cap: int = DEFAULT_DIM_CAP) -> int | None:
    """Max projective dimension over the simple modules; None beyond cap."""
    worst = 0
    for v in algebra.quiver.vertices:
        d = pd(simple(algebra, v), cap)
        if d is None:
            return None
        worst = max(worst, d)
    return worst
