"""Constructive approximation theory over finite universes.

Right approximations are built from all hom-basis elements, thinned
greedily (slot by slot, in universe order) and then made right-minimal
through the endomorphism criterion: a right approximation f is minimal
exactly when every endomorphism psi of its source with f o psi = 0 lies
in the radical.  When the criterion fails, a non-invertible phi with
f o phi = f exists; Fitting along phi shrinks the source and the loop
repeats.  Left approximations are the duals over the opposite algebra.

The preenvelope iteration for a tilting module T descends in degree:
killing Ext^j(T, -) with a universal extension by the (j-1)-st syzygy of
T cannot recreate any higher degree, because Ext^i(T, Omega^m T) = 0 for
i > m.  Every emitted sequence carries recomputed Ext certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import homology as hgy
from .errors import KernelNotInV, NotSurjective, NotTilting, PreconditionFailed
from .modcat import (
    QModule,
    QMorphism,
    _EndData,
    cokernel,
    decompose,
    direct_sum_with_maps,
    dualize,
    dualize_morphism,
    hom_basis,
    identity_morphism,
    image,
    indecomposable_iso,
    kernel,
    zero_module,
    zero_morphism,
)


@dataclass(frozen=True)
class ApproxSequence:
    """An approximation short exact sequence plus re-checked certificates."""

    kind: str  # "preenvelope" | "precover"
    seq: hgy.ShortExactSequence
    certificates: dict


@dataclass(frozen=True)
class CoresolutionWitness:
    """An exact chain 0 -> X -> T^0 -> ... -> T^m -> 0 with add(T) terms."""

    start: QModule
    steps: tuple[hgy.ShortExactSequence, ...]  # step i: 0 -> C_i -> T^i -> C_{i+1} -> 0
    final: QModule  # C_{m+1} = last cokernel, in add(T) (possibly zero)

    @property
    def depth(self) -> int:
        return len(self.steps)


def in_add(m: QModule, reps: list[QModule], seed: int | None = None) -> bool:
    """Whether every indecomposable summand of m matches some rep."""
    kwargs = {} if seed is None else {"seed": seed}
    for piece, _ in decompose(m, **kwargs):
        if not any(indecomposable_iso(rep, piece) is not None for rep in reps):
            return False
    return True


# -- minimal approximations -------------------------------------------------


def _greedy_slots(x: QModule, add_list: list[QModule]) -> list[tuple[QModule, QMorphism]]:
    """Hom-basis slots thinned so the approximation property survives."""
    field = x.algebra.field
    slots: list[tuple[QModule, QMorphism]] = []
    for piece in add_list:
        for phi in hom_basis(piece, x):
            slots.append((piece, phi))
    if not slots:
        return []

    # pairing matrices per test object: columns grouped by slot
    tests = []
    for probe in add_list:
        probe_basis = hom_basis(probe, x)
        if not probe_basis:
            continue
        target_vecs = np.stack([h.to_vector() for h in probe_basis], axis=1)
        col_groups = []
        for piece, phi in slots:
            comps = [phi.compose(g) for g in hom_basis(probe, piece)]
            if comps:
                cols = []
                for comp in comps:
                    sol = field.solve_matrix(target_vecs, comp.to_vector().reshape(-1, 1))
                    if sol is None:
                        raise RuntimeError("composite escaped the hom space")
                    cols.append(sol[:, 0])
                col_groups.append(np.stack(cols, axis=1))
            else:
                col_groups.append(field.zeros(len(probe_basis), 0))
        tests.append((len(probe_basis), col_groups))

    keep = [True] * len(slots)
    for drop in range(len(slots)):
        keep[drop] = False
        ok = True
        for full_rank, col_groups in tests:
            stacked = [col_groups[i] for i in range(len(slots)) if keep[i]]
            mat = np.hstack(stacked) if stacked else field.zeros(full_rank, 0)
            if field.rank(mat) != full_rank:
                ok = False
                break
        if not ok:
            keep[drop] = True
    return [slot for slot, k in zip(slots, keep) if k]


def _det_line_roots(field, w: QMorphism) -> list[int]:
    """Roots t of det(id + t*w) over F_p, via interpolation."""
    total = w.source.total_dim
    points = list(range(total + 1))
    values = []
    for t in points:
        d = 1
        for v, block in w.blocks.items():
            n = block.shape[0]
            d = (d * field.det(field.add(field.identity(n), field.scale(t, block)))) % field.p
        values.append(d)
    vander = field.mat([[pow(t, j, field.p) for j in range(total + 1)] for t in points])
    coeffs = field.solve_matrix(vander, field.mat(values).reshape(-1, 1))
    if coeffs is None:
        raise RuntimeError("determinant interpolation failed")
    from .modcat import _poly_roots

    return _poly_roots(field, [int(c) for c in coeffs[:, 0]])


def _right_minimize(f: QMorphism, seed: int = 0xC0FFEE) -> QMorphism:
    """Shrink a right approximation to a right-minimal one.

    Invariant kept by each Fitting step: the restriction stays a right
    approximation of the same target.
    """
    field = f.source.algebra.field
    while True:
        u0 = f.source
        if u0.total_dim == 0:
            return f
        end = _EndData(u0)
        # the errant directions: psi with f o psi = 0
        comp_vecs = np.stack([f.compose(e).to_vector() for e in end.basis], axis=1)
        null = field.kernel_basis(comp_vecs)
        if null.shape[1] == 0:
            return f
        rad = end.radical_coords()
        if field.rank(np.hstack([rad, null])) == field.rank(rad):
            return f  # every errant direction is radical: f is right-minimal

        directions = [null[:, i] for i in range(null.shape[1])]
        rng = np.random.default_rng(seed)
        phi = None
        trial = 0
        while phi is None:
            if trial < len(directions):
                coords = directions[trial]
            else:
                mix = rng.integers(0, field.p, size=null.shape[1])
                coords = field.matmul(null, mix.reshape(-1, 1))[:, 0]
            trial += 1
            w = end.from_coords(coords)
            if w.is_zero():
                continue
            for t in _det_line_roots(field, w):
                cand = field.add(end.one, field.scale(t, coords))
                if not end.from_coords(cand).is_isomorphism():
                    phi = cand
                    break
            if trial > len(directions) + 4096:
                raise RuntimeError("non-invertible correction not found")
        stable = end.from_coords(end.power(phi.reshape(-1, 1), u0.total_dim))
        _, incl = image(stable)
        f = f.compose(incl)


def minimal_right_approximation(
    x: QModule, add_list: list[QModule], seed: int = 0xC0FFEE
) -> QMorphism:
    """The right-minimal right add(add_list)-approximation U0 -> x."""
    algebra = x.algebra
    slots = _greedy_slots(x, add_list)
    if not slots:
        return zero_morphism(zero_module(algebra), x)
    u0, _, projections = direct_sum_with_maps(algebra, [piece for piece, _ in slots])
    f = zero_morphism(u0, x)
    for (_, phi), proj in zip(slots, projections):
        f = f.add(phi.compose(proj))
    return _right_minimize(f, seed)


def minimal_left_approximation(
    x: QModule, add_list: list[QModule], seed: int = 0xC0FFEE
) -> QMorphism:
    """The left-minimal left add(add_list)-approximation x -> V0 (by duality)."""
    g = minimal_right_approximation(dualize(x), [dualize(piece) for piece in add_list], seed)
    return dualize_morphism(g)


# -- universal extensions ----------------------------------------------------


def universal_extension(
    a: QModule, e: QModule
) -> tuple[QModule, hgy.ShortExactSequence]:
    """(A', 0 -> A -> A' -> E^k -> 0) with class spanning Ext^1(E, A).

    Kills Ext^1(E, -) against A provided Ext^1(E, E) = 0; verified on
    the output, so misuse fails loudly rather than silently.
    """
    algebra = a.algebra
    k = hgy.ext(e, a, 1).dimension if (a.total_dim and e.total_dim) else 0
    if k == 0:
        ses = hgy.ShortExactSequence(
            incl=identity_morphism(a), proj=zero_morphism(a, zero_module(algebra))
        )
        return a, ses
    classes = hgy.ext(e, a, 1).cocycles
    sequences = [hgy.realize_extension(c, e) for c in classes]
    total_mid, mid_inj, mid_proj = direct_sum_with_maps(algebra, [s.mid for s in sequences])
    total_sub, _, sub_proj = direct_sum_with_maps(algebra, [s.sub for s in sequences])
    total_quot, quot_inj, _ = direct_sum_with_maps(algebra, [s.quot for s in sequences])
    incl_sum = zero_morphism(total_sub, total_mid)
    proj_sum = zero_morphism(total_mid, total_quot)
    for s, mi, mp, sp, qi in zip(sequences, mid_inj, mid_proj, sub_proj, quot_inj):
        incl_sum = incl_sum.add(mi.compose(s.incl).compose(sp))
        proj_sum = proj_sum.add(qi.compose(s.proj).compose(mp))
    # codiagonal a^k -> a: sum of the coordinate projections
    codiag = zero_morphism(total_sub, a)
    for sp in sub_proj:
        codiag = codiag.add(sp)
    a2, leg_mid, leg_a = hgy.pushout(incl_sum, codiag)
    proj = hgy._induced_from_pushout(a2, leg_mid, leg_a, proj_sum, zero_morphism(a, total_quot))
    ses = hgy.ShortExactSequence(incl=leg_a, proj=proj)
    ses.verify()
    leftover = hgy.ext(e, a2, 1).dimension
    if leftover:
        raise RuntimeError(
            f"universal extension left Ext^1 of dimension {leftover}; E has self-extensions?"
        )
    return a2, ses


# -- special approximation sequences -----------------------------------------


def special_preenvelope_tilting(
    a: QModule, t: QModule, n: int, seed: int = 0xC0FFEE
) -> ApproxSequence:
    """0 -> A -> V -> U -> 0 with Ext^i(T, V) = 0 and U in the wedge of T.

    Degree-descending: the step for degree j extends by copies of the
    (j-1)-st syzygy of T, which kills Ext^j(T, -) without reviving the
    already-cleared degrees above j.
    """
    if hgy.pd(t, cap=n) is None:
        raise NotTilting(f"pd of the tilting candidate exceeds {n}")
    for i in range(1, n + 1):
        if hgy.ext(t, t, i).dimension:
            raise NotTilting(f"Ext^{i}(T, T) != 0")
    current = a
    incl_total = identity_morphism(a)
    for j in range(n, 0, -1):
        layer = hgy.syzygy(t, j - 1)
        if layer.total_dim == 0:
            continue
        current, ses = universal_extension(current, layer)
        incl_total = ses.incl.compose(incl_total)
    v = current
    u, proj = cokernel(incl_total)
    ses = hgy.ShortExactSequence(incl=incl_total, proj=proj)
    ses.verify()
    ext_checks = {i: hgy.ext(t, v, i).dimension for i in range(1, n + 1)}
    if any(ext_checks.values()):
        raise RuntimeError(f"preenvelope failed to clear Ext: {ext_checks}")
    witness = in_T_wedge(u, t, n, seed=seed)
    certificates = {
        "ext_T_V": ext_checks,
        "quotient_in_wedge": witness is not None,
    }
    return ApproxSequence(kind="preenvelope", seq=ses, certificates=certificates)


def special_precover_universe(
    x: QModule,
    u_list: list[QModule],
    v_list: list[QModule],
    seed: int = 0xC0FFEE,
) -> ApproxSequence:
    """0 -> K -> U0 -> X -> 0 from the minimal right add(U)-approximation.

    Wakamatsu's lemma puts the kernel of the minimal approximation into
    the right-orthogonal class; both that Ext certificate and membership
    of K in add(v_list) are recomputed here.
    """
    f = minimal_right_approximation(x, u_list, seed)
    if not f.is_surjective():
        raise NotSurjective("approximation misses part of X; are all projectives in U?")
    k, incl = kernel(f)
    ses = hgy.ShortExactSequence(incl=incl, proj=f)
    ses.verify()
    bad = [i for i, u in enumerate(u_list) if k.total_dim and u.total_dim and hgy.ext(u, k, 1).dimension]
    if bad:
        raise KernelNotInV(f"Ext^1(U, K) != 0 for U at positions {bad}")
    if not in_add(k, v_list, seed=seed):
        raise KernelNotInV("kernel has a summand outside the V class")
    return ApproxSequence(
        kind="precover",
        seq=ses,
        certificates={"wakamatsu_ext": True, "kernel_in_v": True},
    )


def special_preenvelope_universe(
    x: QModule,
    u_list: list[QModule],
    v_list: list[QModule],
    seed: int = 0xC0FFEE,
) -> ApproxSequence:
    """0 -> X -> V0 -> C -> 0 from the minimal left add(V)-approximation."""
    f = minimal_left_approximation(x, v_list, seed)
    if not f.is_injective():
        raise PreconditionFailed("left approximation is not injective; are all injectives in V?")
    c, proj = cokernel(f)
    ses = hgy.ShortExactSequence(incl=f, proj=proj)
    ses.verify()
    bad = [i for i, v in enumerate(v_list) if c.total_dim and v.total_dim and hgy.ext(c, v, 1).dimension]
    if bad:
        raise KernelNotInV(f"Ext^1(C, V) != 0 for V at positions {bad}")
    if not in_add(c, u_list, seed=seed):
        raise KernelNotInV("cokernel has a summand outside the U class")
    return ApproxSequence(
        kind="preenvelope",
        seq=ses,
        certificates={"wakamatsu_ext": True, "cokernel_in_u": True},
    )


# -- wedge membership ---------------------------------------------------------


def in_T_wedge(
    x: QModule, t: QModule, n: int, seed: int = 0xC0FFEE
) -> CoresolutionWitness | None:
    """Accept X with an exact add(T)-coresolution of length <= n, else None."""
    t_reps = [rep for rep, _ in decompose(t, seed)]
    steps: list[hgy.ShortExactSequence] = []
    current = x
    for depth in range(n + 1):
        if current.total_dim == 0 or in_add(current, t_reps, seed=seed):
            return CoresolutionWitness(start=x, steps=tuple(steps), final=current)
        if depth == n:
            return None
        f = minimal_left_approximation(current, t_reps, seed)
        if not f.is_injective():
            return None
        quot, proj = cokernel(f)
        ses = hgy.ShortExactSequence(incl=f, proj=proj)
        ses.verify()
        steps.append(ses)
        current = quot
    return None


def in_T_covee(
    x: QModule, t: QModule, n: int, seed: int = 0xC0FFEE
) -> CoresolutionWitness | None:
    """Dual membership: X admits an add(T)-resolution of length <= n."""
    witness = in_T_wedge(dualize(x), dualize(t), n, seed)
    return witness
