"""Modules, morphisms, hom spaces, duality and decomposition."""

from __future__ import annotations

import importlib.util
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hom_oracle import kron_system, stacks
from kronecker_power import kronecker_projective_power

from quiverglue import PrimeField, QModule, QMorphism, Quiver, build_algebra, relation
from quiverglue import homology as hgy
from quiverglue import modcat
from quiverglue.algebra import memo, memo_table
from quiverglue.linalg import SMALL
from quiverglue.bundled import load_workspace
from quiverglue.errors import (
    AlgebraMismatch,
    FieldTooSmall,
    NonIntegerEntries,
    ShapeMismatch,
    UniverseInconsistent,
    UnknownName,
    UnknownVertex,
)
from quiverglue.glue import glue_tilting
from quiverglue.modcat import (
    HomSpace,
    Universe,
    cokernel,
    decompose,
    direct_sum,
    dualize,
    dualize_morphism,
    hom_basis,
    hom_dim,
    identity_morphism,
    indecomposable_iso,
    injective,
    is_isomorphic,
    kernel,
    projective,
    simple,
    socle_submodule,
    split_summands,
    top_quotient,
)


def unshared(m):
    """A copy of m built with ``QModule``: no recorded summands, so it splits through End(m)."""
    return QModule(m.algebra, m.dims, m.maps)


def test_relation_compliance_enforced(bound_a3):
    # a representation violating ba = 0 must be rejected
    with pytest.raises(ValueError):
        QModule(bound_a3, {"3": 1, "4": 1, "5": 1}, {"a": [[1]], "b": [[1]]})


def test_module_rejects_non_integer_maps(a2, non_integer):
    with pytest.raises(NonIntegerEntries, match="got dtype"):
        QModule(a2, {"1": 1, "2": 1}, {"d": non_integer})


def test_morphism_rejects_non_integer_blocks(a2, non_integer):
    s1 = simple(a2, "1")
    with pytest.raises(NonIntegerEntries, match="got dtype"):
        QMorphism(s1, s1, {"1": non_integer})


def test_unknown_vertices_and_arrows_are_refused(a2):
    # over 1 -> 2 (arrow d) there is no vertex 3, 9 or arrow b to drop silently
    with pytest.raises(UnknownVertex, match="'3'"):
        QModule(a2, {"1": 1, "3": 5}, {"b": [[1]]})
    with pytest.raises(UnknownName, match="'b'"):
        QModule(a2, {"1": 1, "2": 1}, {"b": [[1]]})
    m = QModule(a2, {"1": 1, "2": 1}, {"d": [[1]]})
    with pytest.raises(UnknownVertex, match="'9'"):
        QMorphism(m, m, {"9": [[1]]})
    assert QMorphism(m, m, {"1": [[1]], "2": [[1]]}).to_vector().tolist() == [1, 1]


def test_projective_hom_formula_exhaustive(workspace):
    total = workspace.recollement.total
    for v in total.quiver.vertices:
        p = projective(total, v)
        for _, m in workspace.universe_b.members:
            assert hom_dim(p, m) == m.dims[v]


def test_hom_dims_a2(a2):
    p1, s1 = projective(a2, "1"), simple(a2, "1")
    assert hom_dim(p1, s1) == 1
    assert hom_dim(s1, p1) == 0


def test_kernel_cokernel_basics(a2):
    p1 = projective(a2, "1")
    k, _ = kernel(identity_morphism(p1))
    assert k.is_zero()
    c, proj = cokernel(identity_morphism(p1).scale(0))
    # cokernel of the zero morphism is the target itself
    assert c.dim_vector() == p1.dim_vector()
    assert proj.is_surjective() and proj.is_injective()


def test_cokernel_of_radical_inclusion_is_simple(a2):
    # P(2) -> P(1) includes the radical; the quotient is the top S(1)
    p1, p2 = projective(a2, "1"), projective(a2, "2")
    (incl,) = hom_basis(p2, p1)
    c, _ = cokernel(incl)
    assert is_isomorphic(c, simple(a2, "1")) is not None
    # dims are additive along kernel and image
    k, _ = kernel(incl)
    assert p2.total_dim == k.total_dim + (p1.total_dim - c.total_dim)


def test_standard_modules_bound_a3(bound_a3):
    assert projective(bound_a3, "3").dim_vector() == (1, 1, 0)
    assert injective(bound_a3, "4").dim_vector() == (1, 1, 0)
    assert is_isomorphic(injective(bound_a3, "4"), projective(bound_a3, "3")) is not None
    assert simple(bound_a3, "5").dim_vector() == (0, 0, 1)


def test_injective_via_opposite_on_a2(a2):
    assert is_isomorphic(injective(a2, "2"), projective(a2, "1")) is not None
    assert is_isomorphic(injective(a2, "1"), simple(a2, "1")) is not None


def test_dualize_involution_and_hom(bound_a3):
    for v in bound_a3.quiver.vertices:
        m = projective(bound_a3, v)
        dd = dualize(dualize(m))
        assert dd.equal_presentation(m)
        assert dd is m
        assert dualize(simple(bound_a3, v)).dim_vector() == simple(bound_a3, v).dim_vector()
    m, n = projective(bound_a3, "3"), simple(bound_a3, "4")
    assert hom_dim(m, n) == hom_dim(dualize(n), dualize(m))


def test_memo_contract():
    def build():
        quiver = Quiver(["3", "4", "5"], [("a", "3", "4"), ("b", "4", "5")])
        rels = [relation(quiver, [(1, ["a", "b"])])]
        return build_algebra(quiver, rels, field=PrimeField(101), name="ba3")

    first = build()
    p3, s4 = projective(first, "3"), simple(first, "4")
    assert projective(first, "3") is p3
    basis = hom_basis(p3, p3)
    expected = list(basis)
    # the hom space is the memo's one read-only record: a caller can neither clear nor overwrite it
    assert hom_basis(p3, p3) is basis and list(hom_basis(p3, p3)) == expected
    assert not hasattr(basis, "clear")
    with pytest.raises(TypeError):
        basis[0] = expected[0]
    with pytest.raises(ValueError, match="read-only"):
        basis.rows[0, 0] = 1
    m = direct_sum(first, [p3, s4])
    parts = split_summands(m)
    expected = list(parts)
    parts.clear()
    assert split_summands(m) == expected
    assert hgy.ext(simple(first, "3"), s4, 1) is hgy.ext(simple(first, "3"), s4, 1)

    omega = hgy.syzygy(simple(first, "3"), 1)
    assert kernel(hgy.projective_cover(simple(first, "3")))[0] is omega

    # a rebuilt algebra starts cold: no cached object is shared
    second = build()
    hom_basis(projective(second, "3"), projective(second, "3"))
    split_summands(direct_sum(second, [projective(second, "3"), simple(second, "4")]))
    hgy.ext(simple(second, "3"), simple(second, "4"), 1)
    assert projective(second, "3") is not p3
    assert hgy.syzygy(simple(second, "3"), 1) is not omega
    assert omega.dim_vector() == hgy.syzygy(simple(second, "3"), 1).dim_vector()
    for table in ("module", "direct_sum"):
        assert first._memo[table] and second._memo[table]

    def cached(algebra):
        # an empty hom basis is the () singleton, equal in every table
        return {id(v) for table in algebra._memo.values() for v in table.values() if v != ()}

    assert cached(first) and cached(second)
    assert not cached(first) & cached(second)


def test_dualize_morphism_contravariant(a2):
    p2, p1 = projective(a2, "2"), projective(a2, "1")
    (f,) = hom_basis(p2, p1)
    df = dualize_morphism(f)
    assert df.source.equal_presentation(dualize(p1))
    assert df.target.equal_presentation(dualize(p2))


def test_direct_sum_builds_only_the_module(monkeypatch):
    # a freshly loaded workspace keeps the direct-sum memo cold
    universe = load_workspace().universe_b
    modules = universe.modules()[:4]
    algebra = universe.algebra
    built = []
    init = QMorphism.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QMorphism, "__init__", counting_init)
    total = direct_sum(algebra, modules)
    assert not built
    monkeypatch.undo()
    total_again, injections, projections = modcat.direct_sum_with_maps(algebra, modules)
    assert total_again is total
    for inj, proj in zip(injections, projections):
        assert proj.compose(inj).to_vector().tolist() == identity_morphism(inj.source).to_vector().tolist()


def test_decomposing_a_module_that_is_not_a_sum_leaves_no_summands_entry(a2):
    # only direct_sum writes the summands table; "not a sum" is no entry, never a sum of nothing
    m = QModule(a2, {"1": 2, "2": 2}, {"d": [[1, 0], [0, 1]]})  # P(1)^2, built as one module
    total = direct_sum(a2, [projective(a2, "1"), simple(a2, "2")])
    assert len(decompose(m)) == 1 and len(split_summands(total)) == 2
    table = memo_table(a2, "summands")
    assert m not in table and table[total] == (projective(a2, "1"), simple(a2, "2"))
    # so m stays off the Yoneda route of hom_basis, and End(m) is the 4-dimensional M_2(F_p)
    assert modcat._projective_generators(m) is None and hom_dim(m, m) == 4


def test_direct_sum_is_shared_per_tuple_of_summands(a2):
    p1, s2 = projective(a2, "1"), simple(a2, "2")
    assert direct_sum(a2, [p1, s2]) is direct_sum(a2, [p1, s2])
    assert direct_sum(a2, [s2, p1]) is not direct_sum(a2, [p1, s2])


# -- shared modules ------------------------------------------------------------


def test_first_syzygies_of_intervals_are_shared(a7_intervals):
    # Omega[i, j] = [j + 1, 7] for every i <= j < 7: one object, one resolution per interval
    by_ends = {}
    for m in a7_intervals:
        support = [int(v) for v, d in m.dims.items() if d]
        by_ends[min(support), max(support)] = m
    for j in range(1, 7):
        starts = [by_ends[i, j] for i in range(1, j + 1)]
        omegas = [hgy.syzygy_with_inclusion(m, 1) for m in starts]
        shared = omegas[0][0]
        assert shared.dim_vector() == tuple(int(j < v) for v in range(1, 8))
        for m, (omega, incl) in zip(starts, omegas):
            assert omega is shared
            # each resolution keeps its own validated inclusion into its own P_0
            p0 = hgy.projective_resolution(m, 1).terms[0]
            assert incl.source is shared and incl.target is p0 and incl.is_injective()
            QMorphism(incl.source, incl.target, incl.blocks)
        assert len({id(incl) for _, incl in omegas}) == len(omegas)


def zero_kernel(m):
    """The kernel of m -> 0: m's own presentation, rebuilt by ``submodule_from_bases``."""
    return kernel(modcat.zero_morphism(m, modcat.zero_module(m.algebra)))[0]


def _kernels_with_equal_dims(kronecker_modules):
    groups = {}
    for m in kronecker_modules:
        groups.setdefault(m.dim_vector(), []).append(m)
    pairs = [(a, b) for group in groups.values() for a, b in zip(group, group[1:]) if not a.equal_presentation(b)]
    assert pairs
    return pairs


def test_kernels_with_equal_dims_and_different_maps_stay_distinct(kronecker_modules):
    for a, b in _kernels_with_equal_dims(kronecker_modules):
        ka, kb = zero_kernel(a), zero_kernel(b)
        assert ka.dim_vector() == kb.dim_vector() and not ka.equal_presentation(kb)
        assert ka is not kb
        assert zero_kernel(a) is ka and ka.equal_presentation(a)


def test_a_fingerprint_collision_is_caught_on_the_hit(kronecker_modules, monkeypatch):
    # with the maps left out of the key every equal dim vector collides;
    # the check on the hit must still keep different maps apart
    monkeypatch.setattr(modcat, "_fingerprint", lambda dims, arrows: ("dims only", dims))
    pairs = _kernels_with_equal_dims(kronecker_modules)
    for a, b in pairs:
        ka, kb = zero_kernel(a), zero_kernel(b)
        assert ka.equal_presentation(a) and kb.equal_presentation(b)
        assert ka is not kb
    # the module that filled the slot first is still shared
    a = pairs[0][0]
    assert zero_kernel(a) is zero_kernel(a)


def record_trace_ranks(monkeypatch):
    """The rank of every trace form of End(m) that a split step computes from now on."""
    ranks, pairing = [], modcat._trace_pairing

    def recording(field, end):
        gram = pairing(field, end)
        ranks.append(field.rank(gram))
        return gram

    monkeypatch.setattr(modcat, "_trace_pairing", recording)
    return ranks


def test_decomposing_every_interval_builds_no_end_data(monkeypatch, kronecker_regular):
    # End([i, j]) = F_p is certified from the hom basis alone, and a sum of two intervals splits on
    # its first draw, so neither computes the rank of a trace form; a fresh algebra keeps the split
    # memo cold
    ranks = record_trace_ranks(monkeypatch)
    intervals = [a7_interval_sum([(i, j)], seed=i * 7 + j) for i in range(7) for j in range(i, 7)]
    for m in intervals:
        assert len(decompose(m)) == 1
    assert ranks == []
    assert len(decompose(a7_interval_sum([(0, 2), (1, 4)], seed=1))) == 2
    assert ranks == []
    # End(U) = F_{p^2}: no draw splits U, so only the trace-form certificate can say it is indecomposable
    assert len(decompose(kronecker_regular)) == 1
    assert ranks == [2]


def test_direct_sum_and_iso(a2):
    p1, s1, s2 = projective(a2, "1"), simple(a2, "1"), simple(a2, "2")
    left = direct_sum(a2, [p1, s1])
    right = direct_sum(a2, [p1, s2])
    assert is_isomorphic(left, left) is not None
    assert is_isomorphic(left, right) is None
    assert is_isomorphic(simple(a2, "1"), simple(a2, "2")) is None


def test_iso_witness_is_invertible(a2):
    p1, s1 = projective(a2, "1"), simple(a2, "1")
    m = direct_sum(a2, [s1, p1])
    n = direct_sum(a2, [p1, s1])
    witness = is_isomorphic(m, n)
    assert witness is not None and witness.is_isomorphism()
    inv = witness.inverse()
    assert inv.compose(witness).is_zero() is False
    composed = inv.compose(witness)
    for v, block in composed.blocks.items():
        assert np.array_equal(block, np.eye(block.shape[0], dtype=np.int64))


def test_decompose_multiplicities(a2):
    s1 = simple(a2, "1")
    parts = decompose(direct_sum(a2, [s1, s1]))
    assert len(parts) == 1
    rep, mult = parts[0]
    assert mult == 2 and is_isomorphic(rep, s1) is not None


def test_decompose_projective_indecomposable(a2):
    parts = decompose(projective(a2, "1"))
    assert len(parts) == 1 and parts[0][1] == 1


def test_decompose_mixed_sum(bound_a3):
    m = direct_sum(bound_a3, [projective(bound_a3, "3"), simple(bound_a3, "5")])
    dims = sorted(rep.dim_vector() for rep, _ in decompose(m))
    assert dims == [(0, 0, 1), (1, 1, 0)]


@pytest.mark.parametrize("seed", [0xC0FFEE, 1, 2])
def test_decompose_seed_independent(kronecker_regular, monkeypatch, seed):
    # End/rad is not commutative for either module, so the first split searches the
    # sequence that _SPLIT_SEED starts; Krull-Schmidt fixes the summands whatever it draws
    line = a7_interval_sum([(1, 4), (1, 4), (2, 5)], seed=8)
    low, high = (a7_interval_sum([part], seed=9, algebra=line.algebra) for part in [(1, 4), (2, 5)])
    u = kronecker_regular
    cases = [(line, [high, low, low]), (unshared(direct_sum(u.algebra, [u, u])), [u, u])]
    drawn = []
    monkeypatch.setattr(modcat, "_SPLIT_SEED", seed)
    monkeypatch.setattr(modcat, "Random", lambda s: drawn.append(s) or Random(s))
    for m, expected in cases:
        drawn.clear()
        parts = split_summands(m)
        assert drawn and set(drawn) == {seed}
        assert [piece.dim_vector() for piece, _, _ in parts] == [e.dim_vector() for e in expected]
        assert_summands(parts, expected)


def test_split_summands_give_inclusion_projection(workspace):
    universe = workspace.universe_b
    total = workspace.recollement.total
    m = direct_sum(total, [universe.module("(S(1)|0)"), universe.module("(0|S(3))")])
    parts = split_summands(m)
    assert len(parts) == 2
    for piece, incl, proj in parts:
        composite = proj.compose(incl)
        assert composite.is_isomorphism()


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_decompose_reassembles_to_original(workspace, seed):
    # Krull-Schmidt round trip on random sums of universe members
    rng = np.random.default_rng(seed)
    universe = workspace.universe_b
    total = workspace.recollement.total
    mods = universe.modules()
    picks = [mods[int(k)] for k in rng.integers(0, len(mods), size=3)]
    original = direct_sum(total, picks)
    for route in (original, unshared(original)):
        rebuilt = direct_sum(total, [rep for rep, mult in decompose(route) for _ in range(mult)])
        assert is_isomorphic(route, rebuilt) is not None


def test_field_too_small_guard():
    field = PrimeField(3)
    quiver = Quiver(["1"], [])
    algebra = build_algebra(quiver, [], field=field, name="tiny")
    with pytest.raises(FieldTooSmall):
        QModule(algebra, {"1": 3}, {})


def test_universe_validation_rejects_duplicates(a2):
    p1 = projective(a2, "1")
    u = Universe(a2, [("x", p1), ("y", projective(a2, "1"))])
    with pytest.raises(UniverseInconsistent):
        u.validate()


def test_universe_rejects_decomposable(a2):
    m = direct_sum(a2, [simple(a2, "1"), simple(a2, "2")])
    u = Universe(a2, [("m", m)])
    with pytest.raises(UniverseInconsistent):
        u.validate()


def test_universe_decompose_names_rejects_stranger(a2):
    u = Universe(a2, [("P(1)", projective(a2, "1"))])
    with pytest.raises(UniverseInconsistent):
        u.decompose_names(simple(a2, "2"))


def test_algebra_mismatch(a2, bound_a3):
    with pytest.raises(AlgebraMismatch):
        hom_basis(simple(a2, "1"), simple(bound_a3, "3"))
    with pytest.raises(AlgebraMismatch):
        modcat.zero_morphism(simple(a2, "1"), simple(bound_a3, "3"))


def test_top_and_socle(a2):
    p1 = projective(a2, "1")
    top, _ = top_quotient(p1)
    soc, _ = socle_submodule(p1)
    assert top.dim_vector() == (1, 0)
    assert soc.dim_vector() == (0, 1)


# -- the hom kernel ------------------------------------------------------------


@pytest.fixture(scope="module")
def hom_pairs(workspace, kronecker_modules):
    """Every ordered pair of each bundled universe, and of the random Kronecker modules."""
    groups = [u.modules() for u in (workspace.universe_a, workspace.universe_c, workspace.universe_b)]
    groups.append(kronecker_modules)
    return [(m, n) for group in groups for m in group for n in group]


def test_hom_basis_spans_the_kron_kernel(hom_pairs):
    for m, n in hom_pairs:
        field = m.algebra.field
        system = kron_system(m, n)
        basis = hom_basis(m, n)
        assert len(basis) == system.shape[1] - field.rank(system)
        if basis:
            vecs = np.stack([f.to_vector() for f in basis], axis=1)
            assert field.rank(vecs) == len(basis)
            assert not np.any(field.matmul(system, vecs))


def test_hom_basis_morphisms_revalidate(hom_pairs):
    for m, n in hom_pairs:
        for f in hom_basis(m, n):
            again = QMorphism(m, n, f.blocks)
            assert np.array_equal(again.to_vector(), f.to_vector())


def test_hom_kernel_certificate_catches_a_corrupted_column(workspace):
    universe = workspace.universe_b
    m = universe.module("(P(1)|P(3))")
    modules = (m, direct_sum(universe.algebra, [m, m]))
    # the systems of Hom(m, m) and Hom(m + m, m + m) have 16 and 256 cells, so certified_kernel_rows
    # reduces, reads and certifies the first on Python integers and the second on int64 arrays
    assert [kron_system(x, x).size <= SMALL for x in modules] == [True, False]
    read = PrimeField._kernel_vectors
    for module in modules:
        system = kron_system(module, module)
        assert modcat._hom_basis_compute(module, module)
        # adding a unit vector outside the kernel to the first kernel vector leaves the kernel
        bad = int(np.flatnonzero(system.any(axis=0))[0])

        def corrupted(self, r, pivots, cols, bad=bad):
            vectors = read(self, r, pivots, cols)
            vectors[0][bad] = (vectors[0][bad] + 1) % self.p
            return vectors

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PrimeField, "_kernel_vectors", corrupted)
            with pytest.raises(RuntimeError, match="kernel certificate failed"):
                modcat._hom_basis_compute(module, module)


def test_hom_basis_blocks_are_read_only(workspace):
    universe = workspace.universe_b
    m = universe.module("(P(1)|P(3))")
    f = hom_basis(m, m)[0]
    for block in f.blocks.values():
        if block.size:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 1
    assert np.array_equal(hom_basis(m, m)[0].to_vector(), f.to_vector())


# -- the End(M) kernel -------------------------------------------------------


def a7_algebra(p):
    """A fresh path algebra A7 (1 -> ... -> 7) over F_p."""
    vertices = [str(v) for v in range(1, 8)]
    quiver = Quiver(vertices, [(f"a{v}", v, w) for v, w in zip(vertices, vertices[1:])])
    return build_algebra(quiver, [], field=PrimeField(p), name="A7")


def a7_interval_sum(parts, seed, algebra=None):
    """The sum of the given intervals [i, j] (0-based positions) over a
    path algebra A7 (1 -> ... -> 7), fresh unless one is given,
    conjugated per vertex by a random invertible matrix."""
    vertices = [str(v) for v in range(1, 8)]
    if algebra is None:
        algebra = a7_algebra(101)
    field = algebra.field
    rng = np.random.default_rng(seed)
    dims = {v: sum(i <= k <= j for i, j in parts) for k, v in enumerate(vertices)}
    change = {}
    for v in vertices:
        inv = None
        while inv is None:
            g = field.mat(rng.integers(0, field.p, size=(dims[v], dims[v])))
            inv = field.inverse(g)
        change[v] = (g, inv)
    maps = {}
    for k, (s, t) in enumerate(zip(vertices, vertices[1:])):
        std = field.zeros(dims[t], dims[s])
        row = col = 0
        for i, j in parts:
            at_s, at_t = i <= k <= j, i <= k + 1 <= j
            if at_s and at_t:
                std[row, col] = 1
            col += at_s
            row += at_t
        maps[f"a{s}"] = field.matmul(field.matmul(change[t][0], std), change[s][1])
    return QModule(algebra, dims, maps)


@pytest.fixture(scope="module")
def end_modules(workspace):
    universe = workspace.universe_b
    total = workspace.recollement.total
    return [
        direct_sum(
            total,
            [universe.module("(P(1)|P(3))"), universe.module("(S(2)|0)"), universe.module("(S(2)|0)")],
        ),
        direct_sum(total, [universe.module("(S(1)|0)"), universe.module("(0|S(3))")]),
        a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=3),
    ]


def test_end_radical_is_trace_form_kernel(end_modules):
    # the split step's s = dim End/rad is the rank of _trace_pairing: the form is tr(b_i o b_j), its
    # kernel is an ideal of nilpotents, and each summand of these modules has End/rad = F_p
    radicals = []
    for m in end_modules:
        field = m.algebra.field
        basis = modcat._hom_basis_compute(m, m)
        n = len(basis)
        gram = field.zeros(n, n)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                gram[i, j] = bi.compose(bj).trace()
        assert np.array_equal(modcat._trace_pairing(field, basis), gram)
        radical = field.kernel_basis(gram)
        radicals.append(radical.shape[1])
        for coords in radical.T:
            f, power = basis_combination(basis, coords), identity_morphism(m)
            for _ in range(m.total_dim):
                power = power.compose(f)
            assert power.is_zero()
        assert field.rank(gram) == sum(mult**2 for _, mult in decompose(m))
    assert any(radicals)


def test_decompose_pins_no_end_basis():
    # End bases of the pieces are transient: the hom memo keeps no (x, x) entry
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=4)
    parts = decompose(m)
    assert sorted(mult for _, mult in parts) == [1, 1, 1, 2]
    assert not [key for key in m.algebra._memo.get("hom", {}) if key[0] is key[1]]


# -- splitting along idempotents of End(M) ------------------------------------

kronecker_primes = pytest.mark.parametrize("kronecker_regular", [101, 32003], indirect=True)


def assert_summands(parts, expected):
    """Each piece is isomorphic to its expected module and has proj o incl = id."""
    assert len(parts) == len(expected)
    for (piece, incl, proj), module in zip(parts, expected):
        assert indecomposable_iso(piece, module) is not None
        assert np.array_equal(proj.compose(incl).to_vector(), identity_morphism(piece).to_vector())


@kronecker_primes
def test_kronecker_regular_is_certified_indecomposable(kronecker_regular):
    # End(U) = F_{p^2}: no radical, but End/rad is not F_p either
    u = kronecker_regular
    assert len(hom_basis(u, u)) == 2
    assert modcat._split_module_once(u) is None


@kronecker_primes
def test_kronecker_square_splits_into_two_copies(kronecker_regular):
    # End/rad = M_2(F_{p^2}) as an F_p-algebra: few endomorphisms have eigenvalues in F_p
    u = kronecker_regular
    assert_summands(split_summands(unshared(direct_sum(u.algebra, [u, u]))), [u, u])


@kronecker_primes
def test_kronecker_with_a_simple_splits_through_the_commutative_branch(kronecker_regular, monkeypatch):
    u = kronecker_regular
    s1 = simple(u.algebra, "1")
    assert_summands(split_summands(unshared(direct_sum(u.algebra, [u, s1, u]))), [u, u, s1])

    def no_certificate(*args):
        raise AssertionError("the rank of End(M)'s trace form was computed")

    # End/rad = F_{p^2} x F_p is commutative: the characteristic polynomial of the first draw has
    # a quadratic factor from U and a linear one from S(1), so it splits with no certificate
    monkeypatch.setattr(modcat, "_trace_pairing", no_certificate)
    m = unshared(direct_sum(u.algebra, [s1, u]))
    pieces = modcat._split_module_once(m)
    assert sorted(piece.dim_vector() for piece, _, _ in pieces) == [(1, 0), (2, 2)]
    monkeypatch.undo()
    assert_summands(split_summands(m), [u, s1])


@kronecker_primes
def test_split_does_not_depend_on_the_end_basis(kronecker_regular, monkeypatch):
    # End bases of random elements: Frobenius is linear only on a commutative End/rad
    u = kronecker_regular
    field = u.algebra.field
    rng = np.random.default_rng(5)
    compute = modcat._hom_basis_compute

    def random_end_basis(source, target):
        basis = compute(source, target)
        if source is not target:
            return basis
        mix = None
        while mix is None or field.inverse(mix) is None:
            mix = field.mat(rng.integers(0, field.p, size=(len(basis), len(basis))))

        def combination(column):
            f = modcat.zero_morphism(source, target)
            for c, b in zip(column, basis):
                f = f.add(b.scale(int(c)))
            return f

        rows = np.array([combination(mix[:, k]).to_vector() for k in range(len(basis))], dtype=np.int64)
        return HomSpace(source, target, rows, basis.offsets)

    monkeypatch.setattr(modcat, "_hom_basis_compute", random_end_basis)
    s1, s2 = simple(u.algebra, "1"), simple(u.algebra, "2")
    for _ in range(3):
        assert_summands(split_summands(unshared(direct_sum(u.algebra, [u, u]))), [u, u])
        assert_summands(split_summands(unshared(direct_sum(u.algebra, [u, s1, u]))), [u, u, s1])
        assert_summands(split_summands(unshared(direct_sum(u.algebra, [s1, s2, s1]))), [s2, s1, s1])


@pytest.mark.parametrize("kronecker_regular", [100000007, 3037000493], indirect=True)
def test_decompose_at_a_large_prime_allocates_little(kronecker_regular):
    # nothing in the split scales with p; one int64 per residue would be 800 MB at 100000007.
    # At 3037000493, (p-1)^2 just fits in int64 and max_inner is 1, so every
    # matmul of the split (the draws and the trace form) is summed block by block
    u = kronecker_regular
    m = unshared(direct_sum(u.algebra, [u, simple(u.algebra, "1"), u]))
    tracemalloc.start()
    try:
        parts = decompose(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted((rep.dim_vector(), mult) for rep, mult in parts) == [((1, 0), 1), ((2, 2), 2)]
    assert peak < 2 * 2**20


# -- one split step cuts along every primitive idempotent ----------------------


def test_one_split_step_cuts_along_every_primitive_idempotent():
    # End/rad = M_2(F_p) x F_p^3: F_p[a] for a random a has at least four primitive idempotents
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=8)
    pieces = modcat._split_module_once(m)
    assert len(pieces) > 2
    assert sum(piece.total_dim for piece, _, _ in pieces) == m.total_dim
    total = modcat.zero_morphism(m, m)
    for i, (piece, incl, proj) in enumerate(pieces):
        assert (incl.source, incl.target, proj.source, proj.target) == (piece, m, m, piece)
        total = total.add(incl.compose(proj))
        for j, (other, other_incl, _) in enumerate(pieces):
            expected = identity_morphism(piece) if i == j else modcat.zero_morphism(other, piece)
            assert np.array_equal(proj.compose(other_incl).to_vector(), expected.to_vector())
    assert np.array_equal(total.to_vector(), identity_morphism(m).to_vector())


def first_split_components(monkeypatch, m):
    """The eigenspace bases of the first split step of m, and m's sum of five intervals over A7."""
    seen, compute = [], modcat._primary_components
    monkeypatch.setattr(modcat, "_primary_components", lambda *args: seen.append(compute(*args)) or seen[-1])
    split_summands(m)
    monkeypatch.undo()
    components, degrees = seen[0]
    assert len(components) == len(degrees) > 2
    return components


def corrupt_first_split(monkeypatch, corrupt):
    """The first split step's eigenspace bases passed through ``corrupt`` before the split certifies them."""
    compute = modcat._primary_components

    def corrupted(*args):
        components, degrees = compute(*args)
        return corrupt(components), degrees

    monkeypatch.setattr(modcat, "_primary_components", corrupted)


def test_a_corrupted_split_block_raises_the_named_certificate(monkeypatch):
    # vertex 1 of A7 is a source, so a component without one of its columns there is still a submodule
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=9)
    components = first_split_components(monkeypatch, m)
    k = next(k for k, bases in enumerate(components) if bases["1"].shape[1])

    def drop(components):
        components[k] = dict(components[k], **{"1": components[k]["1"][:, 1:]})
        return components

    with pytest.raises(RuntimeError, match="do not fill the space at vertex 1"):
        modcat._split_into(m, drop(list(components)))
    # through a split: the certificate sees the short basis and the split raises
    corrupt_first_split(monkeypatch, drop)
    with pytest.raises(RuntimeError, match="do not fill"):
        split_summands(unshared(m))


def test_an_unstable_eigenspace_column_raises_the_submodule_error(monkeypatch):
    # a column of one component at vertex 1 joins another: arrow a1 maps it outside that component
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=9)
    components = first_split_components(monkeypatch, m)
    k = next(k for k, bases in enumerate(components) if bases["1"].shape[1])
    other = (k + 1) % len(components)

    def add(components):
        column = components[k]["1"][:, :1]
        components[other] = dict(components[other], **{"1": np.hstack([components[other]["1"], column])})
        return components

    with pytest.raises(ValueError, match="not stable under arrow a1"):
        modcat._split_into(m, add(list(components)))
    corrupt_first_split(monkeypatch, add)
    with pytest.raises(ValueError, match="not stable"):
        split_summands(unshared(m))


def scalar_first_draw(monkeypatch):
    """Every element a the split steps draw from now on, the first one replaced by the identity."""
    draws, compute = [], modcat._primary_components

    def whole_first(field, a, rng):
        if not draws:
            a = {v: field.identity(len(block)) for v, block in a.items()}
        draws.append(a)
        return compute(field, a, rng)

    monkeypatch.setattr(modcat, "_primary_components", whole_first)
    return draws


def test_a_first_draw_that_does_not_split_reaches_the_trace_form_certificate(monkeypatch, kronecker_regular):
    # a scalar first draw leaves the sum of two intervals whole with d = 1, but End/rad = F_p x F_p
    # has s = 2: the certificate refuses, and the next draw splits
    compute = modcat._primary_components
    ranks = record_trace_ranks(monkeypatch)
    draws = scalar_first_draw(monkeypatch)
    m = a7_interval_sum([(0, 2), (1, 4)], seed=1)
    pieces = modcat._split_module_once(m)
    assert ranks == [2] and len(draws) == 2
    assert sorted(piece.dim_vector() for piece, _, _ in pieces) == [(0, 1, 1, 1, 1, 0, 0), (1, 1, 1, 0, 0, 0, 0)]
    # End(U) = F_{p^2} is a field, and a first draw outside F_p generates it: d = s = 2 certifies U
    monkeypatch.setattr(modcat, "_primary_components", lambda *args: draws.append(args[1]) or compute(*args))
    draws.clear()
    ranks.clear()
    assert modcat._split_module_once(kronecker_regular) is None
    assert ranks == [2] and len(draws) == 1


@kronecker_primes
def test_a_scalar_first_draw_on_u_draws_again_and_certifies(monkeypatch, kronecker_regular):
    # d = 1 < s = 2 refuses the scalar draw; the second draw generates F_{p^2}, and s is computed once
    ranks = record_trace_ranks(monkeypatch)
    draws = scalar_first_draw(monkeypatch)
    assert modcat._split_module_once(kronecker_regular) is None
    assert ranks == [2] and len(draws) == 2


def test_a_local_end_with_a_radical_is_certified_by_its_residue_field(monkeypatch, kronecker_modules):
    # End((I, J_size(1))) = F_p[x]/(x^size): every draw has one eigenvalue, so d = 1 = s < dim End
    algebra = kronecker_modules[0].algebra
    ranks = record_trace_ranks(monkeypatch)
    for size in (2, 3):
        m = regular_kronecker(algebra, 1, size, np.random.default_rng(size))
        assert len(modcat._hom_basis_compute(m, m)) == size
        assert modcat._split_module_once(m) is None
    assert ranks == [1, 1]


@pytest.mark.parametrize("seed", [1, 10])
def test_a_projective_power_whose_first_draw_is_whole_certifies_with_one_rank(monkeypatch, seed):
    # End(P(1)^8) = M_8(F_p): in these bases the first draw has an irreducible characteristic
    # polynomial of degree 8 < s = 64, so the step computes s once and draws again
    m = kronecker_projective_power(101, 8, seed)
    degrees, compute = [], modcat._primary_components

    def recording(*args):
        components, found = compute(*args)
        degrees.append(found)
        return components, found

    monkeypatch.setattr(modcat, "_primary_components", recording)
    ranks = record_trace_ranks(monkeypatch)
    pieces = modcat._split_module_once(m)
    assert degrees[0] == [8] and len(degrees) == 2 and len(pieces) > 1
    assert ranks == [64]
    monkeypatch.undo()
    parts = decompose(m)
    assert [(rep.dim_vector(), mult) for rep, mult in parts] == [((1, 2), 8)]
    assert indecomposable_iso(parts[0][0], projective(m.algebra, "1")) is not None


A7_INTERVALS = [(i, j) for i in range(7) for j in range(i, 7)]


@st.composite
def interval_multisets(draw):
    """A7 intervals with multiplicities 1-3, at least one repeated; total dimension at most 84."""
    chosen = draw(st.lists(st.sampled_from(A7_INTERVALS), min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(chosen), max_size=len(chosen)))
    counts[0] = max(counts[0], 2)
    return [iv for iv, count in zip(chosen, counts) for _ in range(count)]


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(interval_multisets(), st.sampled_from([101, 32003]), st.integers(0, 2**16))
def test_decomposition_recovers_the_generated_intervals(parts, p, seed):
    m = a7_interval_sum(parts, seed, a7_algebra(p))
    groups = decompose(m)
    found = sorted(rep.dim_vector() for rep, mult in groups for _ in range(mult))
    assert found == sorted(tuple(int(i <= k <= j) for k in range(7)) for i, j in parts)
    assert sum(rep.total_dim * mult for rep, mult in groups) == m.total_dim


def perfbench_oracles():
    """The benchmark's answer checks, loaded from their file: they share no code with quiverglue."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@settings(max_examples=18, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.sampled_from(A7_INTERVALS), min_size=1, max_size=6),
    st.sampled_from([101, 32003, 3037000493]),
    st.integers(0, 2**16),
)
def test_decompose_agrees_with_the_rank_formula(parts, p, seed):
    # interval multiplicities from ranks of composite maps, as for the barcode of a persistence module
    oracles = perfbench_oracles()
    vertices = [str(v) for v in range(1, 8)]
    m = a7_interval_sum(parts, seed, a7_algebra(p))
    assert oracles.interval_multiplicities(vertices, m.dims, m.maps, lambda v: f"a{v}", p) == Counter(parts)
    groups = decompose(m)
    assert len(groups) == len(set(parts))
    expected = [tuple(int(i <= k <= j) for k in range(7)) for i, j in parts]
    summands = [(rep.dims, rep.maps, count) for rep, count in groups]
    assert oracles.check_dense(vertices, lambda v: f"a{v}", expected, summands, p) is None


def in_random_basis(m, rng):
    """m conjugated at each vertex by a random invertible matrix."""
    field = m.algebra.field
    change = {}
    for v, d in m.dims.items():
        inv = None
        while inv is None:
            g = field.mat(rng.integers(0, field.p, size=(d, d)))
            inv = field.inverse(g)
        change[v] = (g, inv)
    maps = {
        a.name: field.matmul(field.matmul(change[a.target][0], m.maps[a.name]), change[a.source][1])
        for a in m.algebra.quiver.arrows
    }
    return QModule(m.algebra, m.dims, maps)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 3), st.integers(0, 2), st.sampled_from([101, 32003, 3037000493]), st.integers(0, 2**16))
def test_decompose_kronecker_sums_with_a_regular_summand(projectives, regulars, p, seed):
    # P(1)^m + U^k + S(1) with End(U) = F_{p^2}: U gives degree-2 factors, which no draw splits, and
    # End/rad of U^2 holds M_2(F_{p^2}), whose elements a draw often fails to split
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    algebra = build_algebra(quiver, [], field=PrimeField(p), name="kronecker")
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    u = QModule(algebra, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[0, c], [1, 0]]})
    expected = [(projective(algebra, "1"), projectives), (u, regulars), (simple(algebra, "1"), 1)]
    parts = [x for x, count in expected for _ in range(count)]
    groups = decompose(in_random_basis(direct_sum(algebra, parts), np.random.default_rng(seed)))
    assert len(groups) == sum(1 for _, count in expected if count)
    for x, count in expected:
        if count:
            assert [mult for rep, mult in groups if indecomposable_iso(rep, x) is not None] == [count]


# -- derived morphisms are certified by construction ---------------------------

closure_settings = settings(max_examples=60, derandomize=True, deadline=None, database=None)


def kronecker_module(algebra, dims, rng):
    maps = {a: rng.integers(0, algebra.field.p, size=(dims[1], dims[0])) for a in "ab"}
    return QModule(algebra, {"1": dims[0], "2": dims[1]}, maps)


@st.composite
def module_pairs(draw):
    """Two nonzero modules over one fresh algebra: A7 interval sums in a random
    basis, or Kronecker modules (1 => 2) with random maps."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        parts = st.lists(st.sampled_from(A7_INTERVALS), min_size=1, max_size=3)
        m = a7_interval_sum(draw(parts), seed)
        return m, a7_interval_sum(draw(parts), seed + 1, m.algebra)
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    algebra = build_algebra(quiver, [], field=PrimeField(101), name="kronecker")
    rng = np.random.default_rng(seed)
    dims = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    return kronecker_module(algebra, draw(dims), rng), kronecker_module(algebra, draw(dims), rng)


def basis_combination(basis, coords):
    """sum_i coords[i] basis[i] for a nonempty basis, by derived arithmetic."""
    f = modcat.zero_morphism(basis[0].source, basis[0].target)
    for c, b in zip(coords, basis):
        f = f.add(b.scale(int(c)))
    return f


def random_combination(source, target, rng):
    f = modcat.zero_morphism(source, target)
    for b in hom_basis(source, target):
        f = f.add(b.scale(int(rng.integers(0, source.algebra.field.p))))
    return f


def assert_revalidates(f):
    """Rebuilt through the validating constructor, f passes every square check unchanged."""
    again = QMorphism(f.source, f.target, f.blocks)
    assert np.array_equal(again.to_vector(), f.to_vector())


@closure_settings
@given(module_pairs(), st.integers(0, 2**16))
def test_derived_morphisms_are_valid_morphisms(pair, seed):
    m, n = pair
    field = m.algebra.field
    rng = np.random.default_rng(seed)
    f, h = random_combination(m, n, rng), random_combination(m, n, rng)
    g = random_combination(n, m, rng)
    c = int(rng.integers(0, field.p))
    basis = hom_basis(m, m)
    coords = rng.integers(0, field.p, size=len(basis))
    auto = basis_combination(basis, coords)
    derived = [
        g.compose(f), f.compose(g), f.add(h), f.scale(c), f.negate(), identity_morphism(m),
        dualize_morphism(f), auto, g.compose(f.add(h)).add(identity_morphism(m)),
    ]
    if auto.is_isomorphism():
        derived.append(auto.inverse())
    for d in derived:
        assert_revalidates(d)
    # the values are the block-wise formulas
    for v in m.dims:
        assert np.array_equal(g.compose(f).blocks[v], (g.blocks[v] @ f.blocks[v]) % field.p)
        assert np.array_equal(f.add(h).blocks[v], (f.blocks[v] + h.blocks[v]) % field.p)
        assert np.array_equal(f.scale(c).blocks[v], c * f.blocks[v] % field.p)
        assert np.array_equal(f.negate().blocks[v], -f.blocks[v] % field.p)
        assert np.array_equal(dualize_morphism(f).blocks[v], f.blocks[v].T)
        combination = sum(int(k) * b.blocks[v] for k, b in zip(coords, basis)) % field.p
        assert np.array_equal(auto.blocks[v], combination)
        if auto.is_isomorphism():
            assert np.array_equal(auto.inverse().blocks[v] @ auto.blocks[v] % field.p, np.eye(m.dims[v]))
    assert dualize_morphism(f).source is dualize(n) and dualize_morphism(f).target is dualize(m)


def test_add_refuses_different_endpoints(kronecker_modules):
    a, b = _kernels_with_equal_dims(kronecker_modules)[0]
    s = simple(a.algebra, "1")
    # two zero morphisms: no square can fail, only the endpoint check catches the mismatch
    with pytest.raises(ShapeMismatch, match="different endpoints"):
        modcat.zero_morphism(s, a).add(modcat.zero_morphism(s, b))
    with pytest.raises(ShapeMismatch, match="different endpoints"):
        modcat.zero_morphism(a, s).add(modcat.zero_morphism(b, s))
    # an equal presentation is the same endpoint
    total = modcat.zero_morphism(s, a).add(modcat.zero_morphism(s, unshared(a)))
    assert total.source is s and total.target is a


def test_derived_morphisms_skip_the_square_check(end_modules, monkeypatch):
    m = end_modules[2]
    f, g = hom_basis(m, m)[:2]

    def refuse(self):
        raise AssertionError("square check ran")

    monkeypatch.setattr(QMorphism, "_check_squares", refuse)
    inverse = identity_morphism(m).scale(3).inverse()
    derived = (f.compose(g), f.add(g), f.negate(), inverse, dualize_morphism(f), basis_combination([f, g], [2, 3]))
    for d in (*derived, modcat.zero_morphism(m, m)):
        assert d.source.dim_vector() == m.dim_vector()
    zero = modcat.zero_morphism(m, simple(m.algebra, "3"))
    monkeypatch.undo()
    assert_revalidates(zero)
    assert zero.is_zero() and zero.blocks["3"].shape == (1, m.dims["3"])


# -- canonical maps are certified by construction ------------------------------


def canonical_maps(m, n, rng):
    """Every map built through ``QMorphism._certified`` from solved or checked squares:
    inclusions of kernels, images, socles and radicals, cokernel and top projections,
    direct-sum injections and projections, and the inclusions and projections of
    one split step of an unshared copy of m."""
    f = random_combination(m, n, rng)
    maps = [
        kernel(f)[1], modcat.image(f)[1], socle_submodule(m)[1], modcat.radical_submodule(n)[1],
        cokernel(f)[1], top_quotient(m)[1],
    ]
    _, injections, projections = modcat.direct_sum_with_maps(m.algebra, [m, n, m])
    maps += injections + projections
    for _, incl, proj in modcat._split_module_once(unshared(m)) or []:
        maps += [incl, proj]
    return maps


def count_validations(monkeypatch):
    """The argument tuples of every ``QMorphism.__init__`` call from now on."""
    calls, init = [], QMorphism.__init__
    monkeypatch.setattr(QMorphism, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    return calls


@closure_settings
@given(module_pairs(), st.integers(0, 2**16))
def test_canonical_maps_are_valid_morphisms(pair, seed):
    m, n = pair
    for f in canonical_maps(m, n, np.random.default_rng(seed)):
        assert_revalidates(f)


def test_canonical_maps_skip_the_square_check(monkeypatch):
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=10)
    n = a7_interval_sum([(1, 3), (2, 6)], seed=11, algebra=m.algebra)
    calls = count_validations(monkeypatch)
    maps = canonical_maps(m, n, np.random.default_rng(12))
    assert calls == [] and len(maps) > 12
    monkeypatch.undo()
    for f in maps:
        assert_revalidates(f)


def test_decomposing_a_dense_sum_validates_no_morphism(monkeypatch):
    m = a7_interval_sum([(0, 2), (0, 2), (1, 4), (3, 6), (2, 2)], seed=13, algebra=a7_algebra(32003))
    calls = count_validations(monkeypatch)
    groups = decompose(m)
    assert calls == []
    assert sorted((rep.dim_vector(), mult) for rep, mult in groups) == sorted(
        [((1, 1, 1, 0, 0, 0, 0), 2), ((0, 1, 1, 1, 1, 0, 0), 1), ((0, 0, 0, 1, 1, 1, 1), 1), ((0, 0, 1, 0, 0, 0, 0), 1)]
    )


# -- direct sums split through their summands ----------------------------------


def assert_splits_through_summands(parts, monkeypatch, universe=None):
    """split_summands(direct_sum(parts)) is the parts' own splits, with canonical
    inclusions and projections, and matches the End route on an unshared copy."""
    algebra = parts[0].algebra
    m = direct_sum(algebra, parts)
    ended = []
    split_once = modcat._split_module_once
    monkeypatch.setattr(modcat, "_split_module_once", lambda cur: ended.append(cur) or split_once(cur))
    # past the split memo, which may already hold m
    pieces = modcat._split_summands_compute(m)
    monkeypatch.undo()
    assert all(cur is not m for cur in ended)
    assert [id(piece) for piece, _, _ in split_summands(m)] == [id(piece) for piece, _, _ in pieces]
    own = [piece for part in parts for piece, _, _ in split_summands(part)]
    own.sort(key=lambda piece: (-piece.total_dim, piece.dim_vector()))
    assert [id(piece) for piece, _, _ in pieces] == [id(piece) for piece in own]
    field = algebra.field
    total = modcat.zero_morphism(m, m)
    for piece, incl, proj in pieces:
        assert (incl.source, incl.target, proj.source, proj.target) == (piece, m, m, piece)
        assert_revalidates(incl)
        assert_revalidates(proj)
        assert np.array_equal(proj.compose(incl).to_vector(), identity_morphism(piece).to_vector())
        total = total.add(incl.compose(proj))
    assert np.array_equal(total.to_vector(), identity_morphism(m).to_vector())
    # the End route on an unshared copy finds the same multiset
    copy = unshared(m)
    assert sorted(piece.dim_vector() for piece, _, _ in split_summands(copy)) == sorted(
        piece.dim_vector() for piece in own
    )
    if universe is not None:
        assert universe.decompose_names(m) == universe.decompose_names(copy)
    else:
        counts = [sorted((rep.dim_vector(), mult) for rep, mult in decompose(x)) for x in (m, copy)]
        assert counts[0] == counts[1]
    return pieces


def test_nested_sums_split_through_their_summands(monkeypatch):
    a = a7_interval_sum([(0, 2), (1, 4)], seed=1)
    algebra = a.algebra
    b, c = a7_interval_sum([(3, 6)], 2, algebra), a7_interval_sum([(2, 2), (2, 5)], 3, algebra)
    inner = direct_sum(algebra, [a, b])
    pieces = assert_splits_through_summands([inner, c], monkeypatch)
    assert len(pieces) == 5
    assert_splits_through_summands([c, direct_sum(algebra, [inner, b])], monkeypatch)


def test_sums_with_a_zero_summand_split_through_the_others(monkeypatch):
    a = a7_interval_sum([(0, 2), (1, 4)], seed=4)
    zero = modcat.zero_module(a.algebra)
    pieces = assert_splits_through_summands([zero, a, zero, simple(a.algebra, "3")], monkeypatch)
    assert len(pieces) == 3


def test_repeated_summands_share_their_pieces(monkeypatch, kronecker_regular):
    u = kronecker_regular
    s1 = simple(u.algebra, "1")
    pieces = assert_splits_through_summands([u, s1, u], monkeypatch)
    assert [piece for piece, _, _ in pieces] == [u, u, s1]
    assert pieces[0][1] is not pieces[1][1]
    a = a7_interval_sum([(0, 3), (2, 5), (2, 5)], seed=5)
    pieces = assert_splits_through_summands([a, a], monkeypatch)
    assert len(pieces) == 6


def load_perfbench_gen(monkeypatch):
    """The benchmark's input generator, loaded from its file for this test only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_glued_t2_splits_through_its_summands(monkeypatch):
    # one line-glue job: T2 = i_* T1 + one K per c-side summand over A7
    gen = load_perfbench_gen(monkeypatch)
    rec, t1, t3, universes = gen.build_line_glue(next(gen.line_glue_specs(7)))
    result = glue_tilting(rec, t1, 1, t3, 1, *universes)
    parts = list(memo(rec.total, "summands", result.t2, tuple))
    assert direct_sum(rec.total, parts) is result.t2 and len(parts) > 1
    pieces = assert_splits_through_summands(parts, monkeypatch, universe=universes[2])
    assert len(pieces) == 7


# -- Hom systems against the np.kron reference ----------------------------------


def assert_same_hom_kernel(m, n):
    rows = modcat._hom_basis_compute(m, n).rows
    reference = m.algebra.field.kernel_basis(kron_system(m, n)).T
    assert rows.dtype == reference.dtype == np.int64 and rows.shape == reference.shape
    assert rows.tobytes() == reference.tobytes()


@closure_settings
@given(module_pairs())
def test_hom_basis_is_the_kernel_of_the_kron_system(pair):
    # interval sums reach systems on both sides of SMALL cells
    m, n = pair
    for source, target in ((m, n), (n, m), (m, m)):
        assert_same_hom_kernel(source, target)


def test_hom_basis_is_the_kernel_of_the_kron_system_on_kronecker_modules(kronecker_modules):
    for m in kronecker_modules:
        for n in kronecker_modules:
            assert_same_hom_kernel(m, n)


@pytest.mark.parametrize("size", [2, 9])
def test_a_hom_system_without_equations_is_not_eliminated(a2, monkeypatch, size):
    # Hom(S(1)^size, S(1)^size) over 1 -> 2: arrow d runs into vertex 2, where the target is zero
    m = QModule(a2, {"1": size}, {})

    def refuse(*args):
        raise AssertionError("a system without equations was eliminated")

    monkeypatch.setattr(PrimeField, "reduce_rows", refuse)
    monkeypatch.setattr(PrimeField, "_rref_numpy", refuse)
    basis = modcat._hom_basis_compute(m, m)
    expected = np.eye(size * size, dtype=np.int64)
    assert basis.rows.dtype == np.int64 and basis.rows.tobytes() == expected.tobytes()
    assert np.array_equal(np.array([f.to_vector() for f in basis]), expected)
    for f in basis:
        assert_revalidates(f)


# -- isomorphism witnesses between indecomposables -------------------------------


def regular_kronecker(algebra, lam, size, rng=None):
    """The regular Kronecker module (I, J_size(lam)), in a random basis when rng is given."""
    a = np.eye(size, dtype=np.int64)
    b = lam * np.eye(size, dtype=np.int64) + np.eye(size, k=1, dtype=np.int64)
    if rng is not None:
        field = algebra.field
        g, h = (field.mat(rng.integers(0, field.p, size=(size, size))) for _ in range(2))
        assert field.inverse(g) is not None and field.inverse(h) is not None
        a, b = (field.matmul(field.matmul(g, x), field.inverse(h)) for x in (a, b))
    return QModule(algebra, {"1": size, "2": size}, {"a": a, "b": b})


def witness_from_composites(m, n):
    """The witness of the composite rule: the first f of Hom(m, n) with some g o f a unit."""
    back = hom_basis(n, m)
    return next((f for f in hom_basis(m, n) if any(g.compose(f).is_isomorphism() for g in back)), None)


def test_indecomposable_iso_separates_regular_kronecker_modules(kronecker_modules):
    algebra = kronecker_modules[0].algebra
    rng = np.random.default_rng(11)
    for size in (1, 2, 3):
        r0, r1 = regular_kronecker(algebra, 0, size), regular_kronecker(algebra, 1, size)
        assert r0.dim_vector() == r1.dim_vector()
        assert indecomposable_iso(r0, r1) is None and indecomposable_iso(r1, r0) is None
        moved = regular_kronecker(algebra, 1, size, rng)
        f = indecomposable_iso(r1, moved)
        assert f is not None and f.is_isomorphism() and f is witness_from_composites(r1, moved)
        assert witness_from_composites(r0, r1) is None


def test_indecomposable_iso_returns_the_composite_rule_witness(workspace):
    members = workspace.universe_b.modules()
    for m in members:
        for n in members:
            if m.dim_vector() == n.dim_vector():
                assert indecomposable_iso(m, n) is witness_from_composites(m, n)


def test_indecomposable_iso_refuses_a_nonzero_map_that_is_no_isomorphism(field):
    # over k<x, y>/(x, y)^2 the uniserial modules on which x, respectively y, acts are
    # indecomposable with equal dims; Hom between them is the map from top to socle
    quiver = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    algebra = build_algebra(quiver, [relation(quiver, [(1, [a, b])]) for a in "xy" for b in "xy"], field=field)
    shift, zero = [[0, 0], [1, 0]], [[0, 0], [0, 0]]
    m = QModule(algebra, {"1": 2}, {"x": shift, "y": zero})
    n = QModule(algebra, {"1": 2}, {"x": zero, "y": shift})
    assert len(hom_basis(m, n)) == 1 and witness_from_composites(m, n) is None
    assert indecomposable_iso(m, n) is None


# -- Hom from a projective and double duals on random modules ------------------


@closure_settings
@given(module_pairs(), st.integers(0, 2**16))
def test_hom_from_projectives_and_double_duals(pair, seed):
    # dim Hom(P(v), M) = dim M_v, and dualizing twice returns the module itself and the morphism's blocks
    m, n = pair
    algebra = m.algebra
    for x in pair:
        assert {v: hom_dim(projective(algebra, v), x) for v in x.dims} == x.dims
        assert dualize(dualize(x)) is x
    f = random_combination(m, n, np.random.default_rng(seed))
    back = dualize_morphism(dualize_morphism(f))
    assert back.source is m and back.target is n
    assert all(np.array_equal(back.blocks[v], f.blocks[v]) for v in m.dims)


# -- hom spaces as views of their kernel rows -------------------------------------


@closure_settings
@given(module_pairs())
def test_hom_space_views_and_rows_match_the_basis_maps(pair):
    # each per-vertex view is the stack of the basis maps' blocks, each row a map's to_vector, and
    # Ext's batched factoring vectors are the composites g o incl of the enclosing projective's maps
    m, n = pair
    vertices = m.algebra.quiver.vertices
    for source, target in ((m, n), (n, m), (m, m)):
        space = hom_basis(source, target)
        maps = list(space)
        expected = stacks(source, target, maps)
        assert all(np.array_equal(space.stack(v), expected[v]) for v in vertices)
        assert space.rows.shape == (len(maps), sum(source.dims[v] * target.dims[v] for v in vertices))
        assert all(np.array_equal(row, f.to_vector()) for row, f in zip(space.rows, maps))
    res = hgy.projective_resolution(m, 2)
    for k in (1, 2):
        syz, incl = res.syzygies[k - 1]
        enclosing = hom_basis(res.terms[k - 1], n)
        if enclosing and any(syz.dims[v] * n.dims[v] for v in vertices):
            vecs = hgy._factoring_vectors(enclosing, incl)
            assert vecs.tolist() == [g.compose(incl).to_vector().tolist() for g in enclosing]


# -- cached path actions and identities ---------------------------------------------


def naive_action(m, path):
    """The action of a path from the identity, one arrow at a time."""
    field = m.algebra.field
    action = field.identity(m.dims[path.source])
    for name in path.arrows:
        action = field.matmul(m.maps[name], action)
    return action


def test_cached_path_actions_equal_the_naive_chain(workspace):
    # longest paths first, on fresh copies, so a basis path's prefixes are first computed inside it
    # (the constructor's relation check has already computed the relation paths)
    total = workspace.recollement.total
    assert total.relations
    modules = [*workspace.universe_b.modules(), a7_interval_sum([(0, 4), (2, 6), (1, 3)], seed=6)]
    for m in map(unshared, modules):
        algebra = m.algebra
        paths = [*algebra.basis, *(path for rel in algebra.relations for _, path in rel.terms)]
        for path in sorted(paths, key=lambda path: -len(path.arrows)):
            action = m.path_action(path)
            assert action is m.path_action(path)
            assert np.array_equal(action, naive_action(m, path))
            if action.size:
                with pytest.raises(ValueError, match="read-only"):
                    action[0, 0] = 1


def test_the_identity_is_built_once_with_read_only_blocks(workspace):
    m = unshared(workspace.universe_b.module("(P(1)|P(3))"))
    ident = identity_morphism(m)
    assert identity_morphism(m) is ident
    for v, block in ident.blocks.items():
        assert np.array_equal(block, np.eye(m.dims[v], dtype=np.int64))
        if block.size:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0
