"""Constructive approximation theory over finite universes.

The minimal right add(U)-approximation of X, for pairwise non-isomorphic
indecomposables U_1, ..., U_r, is built directly (Auslander-Reiten-Smalo,
Representation Theory of Artin Algebras, I.2 and IV.1): its source is the
sum of U_i^{m_i}, and the maps out of the copies of U_i lift a basis of
Hom(U_i, X) / rad_U(U_i, X) over k_i = End(U_i)/rad, where

    rad_U(U_i, X) = sum_j Hom(U_j, X) o rad(U_i, U_j),

rad(U_i, U_j) = Hom(U_i, U_j) for i != j, and rad(U_i, U_i) is the kernel
of the trace form of End(U_i).  Walking the hom basis and adding
phi o End(U_i) for each chosen phi builds the k_i-span for any residue
field F_q.  Two certificates run on the result: the approximation
property (one rank test per U_j) and right-minimality by the
endomorphism criterion (every psi with f o psi = 0 is radical).  Left
approximations are the duals over the opposite algebra.

What does not depend on X is memoized on the algebra per class, that is
per tuple of member objects (``_ApproxClass``), and built one target at
a time: the first call that reads U_j solves Hom(U_i, U_j) for every i
and keeps, per vertex v, their stacks side by side, so that the
composites Hom(U_j, X) o Hom(U_i, U_j) of all i come from one product
per (j, v); it also keeps the trace form of End(U_j), whose kernel (the
radical) is taken on first use.  Only the members with Hom(U_i, X) != 0
enter a call, so only their columns are ever built; the slot rref and
both certificates run on every call.  Left approximations and the wedge
test reuse the class of the duals, since ``dualize`` returns the same
object each time.

The preenvelope iteration for a tilting module T descends in degree:
killing Ext^j(T, -) with a universal extension by the (j-1)-st syzygy of
T cannot recreate any higher degree, because Ext^i(T, Omega^m T) = 0 for
i > m.  Every sequence is returned only after its Ext certificates are
recomputed; a certificate that fails raises instead.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from . import homology as hgy
from .algebra import memo
from .errors import KernelNotInV, NotSurjective, NotTilting, PreconditionFailed
from .modcat import (
    HomSpace,
    QModule,
    QMorphism,
    _trace_pairing,
    cokernel,
    decompose,
    direct_sum,
    direct_sum_with_maps,
    dualize,
    dualize_morphism,
    hom_basis,
    identity_morphism,
    indecomposable_iso,
    kernel,
    zero_module,
    zero_morphism,
)


class CoresolutionWitness(NamedTuple):
    """An exact chain 0 -> X -> T^0 -> ... -> T^m -> 0 with add(T) terms."""

    start: QModule
    steps: tuple[hgy.ShortExactSequence, ...]  # step i: 0 -> C_i -> T^i -> C_{i+1} -> 0
    final: QModule  # C_{m+1} = last cokernel, in add(T) (possibly zero)

    @property
    def depth(self) -> int:
        return len(self.steps)


def _add_members(m: QModule, reps: list[QModule]) -> set[int] | None:
    """The positions of the reps matching m's indecomposable summands, or None if one matches none."""
    found = set()
    for piece, _ in decompose(m):
        i = next((i for i, rep in enumerate(reps) if indecomposable_iso(rep, piece) is not None), None)
        if i is None:
            return None
        found.add(i)
    return found


def in_add(m: QModule, reps: list[QModule]) -> bool:
    """Whether every indecomposable summand of m matches some rep."""
    return _add_members(m, reps) is not None


# -- minimal approximations -------------------------------------------------


class _Target:
    """One target U_j of a class: every Hom(U_i, U_j) and the trace form of End(U_j).

    ``side[v]`` is row c of U_j at v against columns (i, g, s) with entry
    (c, s) of the g-th map U_i -> U_j at v; member i starts at
    ``offsets[v][i]`` and contributes ``sizes[i]`` maps.
    """

    def __init__(self, field, members: tuple[QModule, ...], j: int):
        target = members[j]
        homs = [hom_basis(u, target) for u in members]
        self.field = field
        self.sizes = [len(hom) for hom in homs]
        self.gram = _trace_pairing(field, homs[j])
        self.side, self.offsets = {}, {}
        for v, d in target.dims.items():
            parts = [
                block.transpose(1, 0, 2).reshape(d, block.shape[0] * block.shape[2])
                for block in (hom.stack(v) for hom in homs)
            ]
            self.offsets[v] = list(itertools.accumulate((part.shape[1] for part in parts), initial=0))
            self.side[v] = np.concatenate(parts, axis=1)

    @functools.cached_property
    def radical(self) -> np.ndarray:
        """A basis of rad End(U_j), the kernel of the trace form."""
        return self.field.kernel_basis(self.gram)


class _ApproxClass:
    """The class add(U_1, ..., U_r) as minimal right approximations read it.

    Built once per tuple of members (``_approx_class``), it holds what does
    not depend on the approximated module X, one target at a time: the
    first read of U_j builds its ``_Target``, that is Hom(U_i, U_j) for
    every i stacked side by side per vertex, and the trace form of
    End(U_j).  One product of Hom(U_j, X) with that side-by-side stack
    gives the composites Hom(U_j, X) o Hom(U_i, U_j) for every i at v.
    A call reads only the targets with Hom(U_j, X) != 0, so a target that
    no X maps from is never solved.
    """

    def __init__(self, field, members: tuple[QModule, ...]):
        self.field = field
        self.members = members
        self._targets: dict[int, _Target] = {}

    def target(self, j: int) -> _Target:
        """The column of U_j, built on first read."""
        if j not in self._targets:
            self._targets[j] = _Target(self.field, self.members, j)
        return self._targets[j]

    def composites(self, j: int, left: HomSpace, live: list[int]) -> dict[int, np.ndarray]:
        """Per i in ``live``, the composites Hom(U_j, X) o Hom(U_i, U_j).

        ``left`` is Hom(U_j, X).  Column (phi, g) of entry i is phi o g
        flattened like ``QMorphism.to_vector``: at each vertex, row (c, s)
        holds entry (c, s) of the composite; a vertex where X or U_i is
        zero contributes no rows.
        """
        column = self.target(j)
        n = len(left)
        pieces = {i: [] for i in live}
        for v in left.offsets:
            phi = left.stack(v)
            _, t, m = phi.shape
            if not t:
                continue
            product = self.field.matmul(phi.reshape(n * t, m), column.side[v])
            for i in live:
                k, s = column.sizes[i], self.members[i].dims[v]
                if s:
                    start = column.offsets[v][i]
                    block = product[:, start : start + k * s].reshape(n, t, k, s)
                    pieces[i].append(block.transpose(1, 3, 0, 2).reshape(t * s, n * k))
        return {
            i: np.concatenate(pieces[i]) if pieces[i] else np.zeros((0, n * column.sizes[i]), dtype=np.int64)
            for i in live
        }


def _approx_class(algebra, add_list: list[QModule]) -> _ApproxClass:
    """The class of ``add_list``, built once per tuple of member objects."""
    members = tuple(add_list)
    return memo(algebra, "approx_class", members, lambda: _ApproxClass(algebra.field, members))


def minimal_right_approximation(x: QModule, add_list: list[QModule]) -> QMorphism:
    """The right-minimal right add(add_list)-approximation f: U0 -> x.

    Precondition: ``add_list`` holds pairwise non-isomorphic
    indecomposables.  Both certificates run on the result, so an input
    that breaks the precondition raises ``PreconditionFailed`` instead of
    returning a map that is not the minimal approximation.
    """
    field = x.algebra.field
    cls = _approx_class(x.algebra, add_list)
    to_x = [hom_basis(u, x) for u in add_list]
    x_sizes = [len(hom) for hom in to_x]
    live = [i for i in range(len(add_list)) if x_sizes[i]]
    columns = {j: cls.target(j) for j in live}
    # composites[i, j], column (phi, g): phi o g for phi in Hom(U_j, X) and
    # g in Hom(U_i, U_j), flattened like QMorphism.to_vector
    composites = {}
    for j in live:
        for i, block in cls.composites(j, to_x[j], live).items():
            composites[i, j] = block

    # phi_k is a slot when it leaves rad_U(U_i, X) + (earlier phi) o End(U_i);
    # that span is End(U_i)-stable, so block k of phi_k o End(U_i) carries a
    # pivot exactly then
    slots: list[tuple[int, int]] = []
    for i in live:
        n = columns[i].sizes[i]
        own = composites[i, i]
        own_rad = field.matmul(own.reshape(-1, n), columns[i].radical).reshape(own.shape[0], -1)
        span = np.hstack([composites[i, j] for j in live if j != i] + [own_rad, own])
        _, pivots, _ = field.rref(span)
        start = span.shape[1] - own.shape[1]
        slots += [(i, k) for k in sorted({(c - start) // n for c in pivots if c >= start})]

    for j in live:
        widths = [columns[t].sizes[j] for t, _ in slots]
        cols = [composites[j, t][:, k * w : (k + 1) * w] for (t, k), w in zip(slots, widths)]
        probe = np.hstack(cols) if cols else field.zeros(composites[j, j].shape[0], 0)
        null = field.kernel_basis(probe)
        if probe.shape[1] - null.shape[1] != x_sizes[j]:
            raise PreconditionFailed(
                f"maps from add_list[{j}] do not factor through the approximation; "
                "are the members pairwise non-isomorphic indecomposables?"
            )
        # the psi with f o psi = 0 form a right ideal of End(U0), and null
        # spans their columns at a copy of U_j.  Were f not right-minimal,
        # the ideal would hold an idempotent e != 0, whose trace rank(e) lies
        # in 1..dim U0 < p; radical diagonal blocks would make it 0
        row = 0
        for (t, _), w in zip(slots, widths):
            if t == j and np.any(field.matmul(columns[j].gram, null[row : row + w])):
                raise PreconditionFailed(
                    f"a non-radical endomorphism of the source kills the approximation at add_list[{j}]; "
                    "are the members pairwise non-isomorphic indecomposables?"
                )
            row += w

    if not slots:
        return zero_morphism(zero_module(x.algebra), x)
    u0 = direct_sum(x.algebra, [add_list[i] for i, _ in slots])
    blocks = {v: np.hstack([to_x[i].stack(v)[k] for i, k in slots]) for v in x.dims}
    return QMorphism(u0, x, blocks)


def minimal_left_approximation(x: QModule, add_list: list[QModule]) -> QMorphism:
    """The left-minimal left add(add_list)-approximation x -> V0 (by duality)."""
    g = minimal_right_approximation(dualize(x), [dualize(piece) for piece in add_list])
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


def special_preenvelope_tilting(a: QModule, t: QModule, n: int) -> hgy.ShortExactSequence:
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
    if in_T_wedge(u, t, n) is None:
        raise RuntimeError("preenvelope failed the quotient_in_wedge certificate")
    return ses


def special_precover_universe(
    x: QModule,
    u_list: list[QModule],
    v_list: list[QModule],
) -> hgy.ShortExactSequence:
    """0 -> K -> U0 -> X -> 0 from the minimal right add(U)-approximation.

    Wakamatsu's lemma puts the kernel of the minimal approximation into
    the right-orthogonal class; both membership of K in add(v_list) and
    that Ext certificate are recomputed here.  K is a sum of the matched
    members, so Ext^1(U, K) is read off Ext^1(U, V) for those V.
    """
    f = minimal_right_approximation(x, u_list)
    if not f.is_surjective():
        raise NotSurjective("approximation misses part of X; are all projectives in U?")
    k, incl = kernel(f)
    ses = hgy.ShortExactSequence(incl=incl, proj=f)
    ses.verify()
    matched = _add_members(k, v_list)
    if matched is None:
        raise KernelNotInV("kernel has a summand outside the V class")
    bad = [
        i for i, u in enumerate(u_list)
        if u.total_dim and any(hgy.ext(u, v_list[j], 1).dimension for j in matched)
    ]
    if bad:
        raise KernelNotInV(f"Ext^1(U, K) != 0 for U at positions {bad}")
    return ses


def special_preenvelope_universe(
    x: QModule,
    u_list: list[QModule],
    v_list: list[QModule],
) -> hgy.ShortExactSequence:
    """0 -> X -> V0 -> C -> 0 from the minimal left add(V)-approximation.

    The mirror of ``special_precover_universe``: C must lie in
    add(u_list), and Ext^1(C, V) is read off Ext^1(U, V) for the matched U.
    """
    f = minimal_left_approximation(x, v_list)
    if not f.is_injective():
        raise PreconditionFailed("left approximation is not injective; are all injectives in V?")
    c, proj = cokernel(f)
    ses = hgy.ShortExactSequence(incl=f, proj=proj)
    ses.verify()
    matched = _add_members(c, u_list)
    if matched is None:
        raise KernelNotInV("cokernel has a summand outside the U class")
    bad = [
        i for i, v in enumerate(v_list)
        if v.total_dim and any(hgy.ext(u_list[j], v, 1).dimension for j in matched)
    ]
    if bad:
        raise KernelNotInV(f"Ext^1(C, V) != 0 for V at positions {bad}")
    return ses


# -- wedge membership ---------------------------------------------------------


def in_T_wedge(x: QModule, t: QModule, n: int) -> CoresolutionWitness | None:
    """Accept X with an exact add(T)-coresolution of length <= n, else None."""
    t_reps = [rep for rep, _ in decompose(t)]
    steps: list[hgy.ShortExactSequence] = []
    current = x
    for depth in range(n + 1):
        if current.total_dim == 0 or in_add(current, t_reps):
            return CoresolutionWitness(start=x, steps=tuple(steps), final=current)
        if depth == n:
            return None
        f = minimal_left_approximation(current, t_reps)
        if not f.is_injective():
            return None
        quot, proj = cokernel(f)
        ses = hgy.ShortExactSequence(incl=f, proj=proj)
        ses.verify()
        steps.append(ses)
        current = quot
    return None


def in_T_covee(x: QModule, t: QModule, n: int) -> CoresolutionWitness | None:
    """Dual membership: X admits an add(T)-resolution of length <= n."""
    return in_T_wedge(dualize(x), dualize(t), n)
