"""Approximation machinery: universal extensions, envelopes, covers, wedges."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hom_oracle import stacks

from quiverglue import approx as approx_module
from quiverglue import homology as hgy
from quiverglue.approx import (
    _approx_class,
    in_T_covee,
    in_T_wedge,
    minimal_left_approximation,
    minimal_right_approximation,
    special_precover_universe,
    special_preenvelope_tilting,
    special_preenvelope_universe,
    universal_extension,
)
from quiverglue.bundled import load_workspace
from quiverglue.errors import KernelNotInV, NotSurjective, NotTilting, PreconditionFailed
from quiverglue.modcat import (
    QModule,
    decompose,
    direct_sum,
    hom_basis,
    injective,
    is_isomorphic,
    projective,
    simple,
)


def test_universal_extension_trivial_when_ext_vanishes(a2):
    p1, s2 = projective(a2, "1"), simple(a2, "2")
    a2_mod, ses = universal_extension(p1, s2)
    assert a2_mod is p1
    assert ses.quot.is_zero()


def test_universal_extension_realizes_p1(a2):
    s1, s2 = simple(a2, "1"), simple(a2, "2")
    bigger, ses = universal_extension(s2, s1)
    assert is_isomorphic(bigger, projective(a2, "1")) is not None
    assert ses.quot.dim_vector() == s1.dim_vector()
    assert hgy.ext(s1, bigger, 1).dimension == 0


def test_universal_extension_idempotent(bound_a3):
    s4, s3 = simple(bound_a3, "4"), simple(bound_a3, "3")
    first, _ = universal_extension(s4, s3)
    assert hgy.ext(s3, first, 1).dimension == 0
    second, ses2 = universal_extension(first, s3)
    assert second is first  # k = 0 the second time
    assert ses2.quot.is_zero()


@pytest.mark.parametrize("seed", [7, 8])
def test_universal_extension_random_pairs(bound_a3, seed):
    rng = np.random.default_rng(seed)
    mods = [projective(bound_a3, v) for v in "345"] + [simple(bound_a3, v) for v in "345"]
    for _ in range(10):
        a = mods[int(rng.integers(0, len(mods)))]
        e = mods[int(rng.integers(0, len(mods)))]
        bigger, _ = universal_extension(a, e)
        assert hgy.ext(e, bigger, 1).dimension == 0


def test_minimal_right_approximation_is_cover_for_projectives(bound_a3):
    s4 = simple(bound_a3, "4")
    f = minimal_right_approximation(s4, [projective(bound_a3, v) for v in "345"])
    assert f.is_surjective()
    # the minimal approximation by projectives is the projective cover P(4)
    assert f.source.dim_vector() == (0, 1, 1)


def test_minimal_right_approximation_drops_redundancy(a2):
    p1 = projective(a2, "1")
    # approximating P(1) by itself: the identity slot suffices
    f = minimal_right_approximation(p1, [p1, simple(a2, "2")])
    assert f.source.dim_vector() == p1.dim_vector()
    assert f.is_isomorphism()


def test_minimal_left_approximation_dual(a2):
    s1 = simple(a2, "1")
    f = minimal_left_approximation(s1, [projective(a2, "1"), simple(a2, "2")])
    assert f.source is s1
    # Hom(S(1), P(1)) = 0 and Hom(S(1), S(2)) = 0: the approximation is zero
    assert f.target.is_zero()


@pytest.mark.parametrize("side", ["a", "c", "b"])
def test_minimal_approximations_by_projectives_and_injectives(univ_a, univ_c, univ_b, side):
    # the oracles come from tops and socles, not from approximation code
    universe = {"a": univ_a, "c": univ_c, "b": univ_b}[side]
    algebra = universe.algebra
    projectives = [projective(algebra, v) for v in algebra.quiver.vertices]
    injectives = [injective(algebra, v) for v in algebra.quiver.vertices]
    for x in universe.modules():
        f = minimal_right_approximation(x, projectives)
        assert f.is_surjective()
        assert f.source.dim_vector() == hgy.projective_cover(x).source.dim_vector()
        g = minimal_left_approximation(x, injectives)
        assert g.is_injective()
        assert g.target.dim_vector() == hgy.injective_envelope(x).target.dim_vector()


@pytest.mark.parametrize("side", ["a", "c", "b"])
def test_minimal_approximation_of_a_member_of_add_is_an_isomorphism(univ_a, univ_c, univ_b, side):
    universe = {"a": univ_a, "c": univ_c, "b": univ_b}[side]
    mods = universe.modules()
    for i, m in enumerate(mods):
        x = direct_sum(universe.algebra, [m, mods[(i + 1) % len(mods)], m])
        f = minimal_right_approximation(x, mods)
        assert f.is_isomorphism()


def test_minimal_approximation_counts_copies_over_the_residue_field(kronecker_regular):
    u = kronecker_regular
    assert len(decompose(u)) == 1 and len(hom_basis(u, u)) == 2
    x = direct_sum(u.algebra, [u, u])
    f = minimal_right_approximation(x, [u])
    # Hom(U, X) has F_101-dimension 4 but F_{101^2}-dimension 2: two copies of U
    assert f.source.dim_vector() == (4, 4)
    assert f.is_isomorphism()


def test_minimal_approximation_reads_each_members_own_radical(kronecker_regular):
    # U = (k^2, k^2; I, J) with J a nilpotent Jordan block has End(U) = k[t]/(t^2), so
    # rad End(U) != 0, while End(S(2)) = k: the two columns differ in size
    algebra = kronecker_regular.algebra
    u = QModule(algebra, {"1": 2, "2": 2}, {"a": [[1, 0], [0, 1]], "b": [[0, 1], [0, 0]]})
    s2 = simple(algebra, "2")
    assert len(decompose(u)) == 1 and len(hom_basis(u, u)) == 2
    cls = _approx_class(algebra, [s2, u])
    assert cls.target(1).radical.shape == (2, 1) and cls.target(0).radical.shape == (1, 0)
    for x in (direct_sum(algebra, [u, s2]), direct_sum(algebra, [u, u, s2, s2])):
        f = minimal_right_approximation(x, [s2, u])
        # Hom(U, X) has dimension 2 per copy of U, but the radical leaves one slot per copy
        assert f.source.dim_vector() == x.dim_vector()
        assert f.is_isomorphism()


def test_minimal_approximation_rejects_a_repeated_member(a2, kronecker_regular):
    p1 = projective(a2, "1")
    with pytest.raises(PreconditionFailed, match="do not factor"):
        minimal_right_approximation(p1, [p1, p1])
    with pytest.raises(PreconditionFailed, match="do not factor"):
        minimal_right_approximation(kronecker_regular, [kronecker_regular, kronecker_regular])


def test_minimal_approximation_rejects_a_decomposable_member(a2):
    # P(1) + S(2) -> P(1) approximates, but kills the summand S(2): not right-minimal
    p1, s2 = projective(a2, "1"), simple(a2, "2")
    with pytest.raises(PreconditionFailed, match="non-radical"):
        minimal_right_approximation(p1, [direct_sum(a2, [p1, s2])])


def test_a_built_class_still_certifies_every_call(a2):
    # the class of [P(1), P(1)] and of [P(1) + S(2)] is memoized by the first call;
    # the certificates run again on the second
    p1, s2 = projective(a2, "1"), simple(a2, "2")
    for _ in range(2):
        with pytest.raises(PreconditionFailed, match="do not factor"):
            minimal_right_approximation(p1, [p1, p1])
        with pytest.raises(PreconditionFailed, match="non-radical"):
            minimal_right_approximation(p1, [direct_sum(a2, [p1, s2])])


# -- the approximation class ---------------------------------------------------


def _block_products(field, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row (a, c), column (i, j): entry (a, c) of left[i] @ right[j].

    ``left`` (n, t, m) and ``right`` (k, m, s) are stacks of blocks at one
    vertex; all n * k products come from one matrix product.
    """
    n, t, m = left.shape
    k, _, s = right.shape
    # rows (i, a) times columns (j, c)
    prod = field.matmul(left.reshape(n * t, m), right.transpose(1, 0, 2).reshape(m, k * s))
    return prod.reshape(n, t, k, s).transpose(1, 3, 0, 2).reshape(t * s, n * k)


@pytest.mark.parametrize("side", ["a", "c", "b"])
def test_class_composites_equal_block_products(univ_a, univ_c, univ_b, side):
    universe = {"a": univ_a, "c": univ_c, "b": univ_b}[side]
    members = universe.modules()
    algebra = universe.algebra
    cls = _approx_class(algebra, members)
    assert cls.members == tuple(members)
    for x in members:
        to_x = [stacks(u, x, list(hom_basis(u, x))) for u in members]
        live = [i for i, u in enumerate(members) if hom_basis(u, x)]
        for j in live:
            composites = cls.composites(j, hom_basis(members[j], x), live)
            assert sorted(composites) == live
            for i in live:
                right = stacks(members[i], members[j], list(hom_basis(members[i], members[j])))
                expected = np.concatenate(
                    [_block_products(algebra.field, to_x[j][v], right[v]) for v in algebra.quiver.vertices]
                )
                assert np.array_equal(composites[i], expected)


def test_a_class_computes_each_trace_form_once(monkeypatch):
    # a freshly loaded workspace keeps the class memo cold
    universe = load_workspace().universe_b
    members = universe.modules()
    calls = []
    pairing = approx_module._trace_pairing

    def counting(*args):
        calls.append(args)
        return pairing(*args)

    monkeypatch.setattr(approx_module, "_trace_pairing", counting)
    for x in members:
        assert minimal_right_approximation(x, members).is_isomorphism()
    assert len(calls) == len(members)


def test_a_class_solves_only_the_targets_a_call_reads(monkeypatch):
    # a freshly loaded workspace keeps the hom and class memos cold
    universe = load_workspace().universe_b
    members = universe.modules()
    calls = []
    basis = approx_module.hom_basis

    def counting(source, target):
        calls.append((source, target))
        return basis(source, target)

    monkeypatch.setattr(approx_module, "hom_basis", counting)
    x = universe.module("(S(1)|0)")
    assert minimal_right_approximation(x, members).is_isomorphism()
    live = [u for u in members if basis(u, x)]
    assert x in live and len(live) < len(members)
    # one Hom(U_i, X) per member for the call, and one column Hom(-, U_j) per live U_j for the class
    targets = Counter(id(target) for _, target in calls)
    expected = Counter({id(u): len(members) for u in live})
    expected[id(x)] += len(members)
    assert targets == expected
    assert len(calls) == len(members) * (1 + len(live))


def test_the_class_is_keyed_on_every_member(univ_b):
    # two classes that share their first member are different classes
    members = univ_b.modules()
    first = members[0]
    x, other = next((x, m) for x in members[1:] for m in members[1:] if m is not x and hom_basis(m, x))
    assert minimal_right_approximation(x, [first, x]).is_isomorphism()
    g = minimal_right_approximation(x, [first, other])
    assert _approx_class(univ_b.algebra, [first, other]).members == (first, other)
    # the same class in the other order is built afresh; both give one U0
    h = minimal_right_approximation(x, [other, first])
    assert is_isomorphic(g.source, h.source) is not None
    assert not g.is_zero()


def test_special_preenvelope_trivial_case(a2):
    t = direct_sum(a2, [projective(a2, "1"), simple(a2, "2")])
    s1 = simple(a2, "1")
    env = special_preenvelope_tilting(s1, t, 1)
    assert env.mid.dim_vector() == s1.dim_vector()
    assert env.quot.is_zero()


def test_special_preenvelope_enforces_the_quotient_in_wedge_certificate(a2, monkeypatch):
    t = direct_sum(a2, [projective(a2, "1"), simple(a2, "2")])
    monkeypatch.setattr(approx_module, "in_T_wedge", lambda *args, **kwargs: None)
    with pytest.raises(RuntimeError, match="quotient_in_wedge"):
        special_preenvelope_tilting(simple(a2, "1"), t, 1)


def test_special_preenvelope_summands_from_syzygies(bound_a3):
    t = direct_sum(bound_a3, [projective(bound_a3, "3"), projective(bound_a3, "4"), simple(bound_a3, "3")])
    s4 = simple(bound_a3, "4")
    env = special_preenvelope_tilting(s4, t, 2)
    for i in (1, 2):
        assert hgy.ext(t, env.mid, i).dimension == 0
    allowed = [projective(bound_a3, "3"), projective(bound_a3, "4"), simple(bound_a3, "3"),
               hgy.syzygy(simple(bound_a3, "3"), 1)]
    for rep, _ in decompose(env.quot):
        assert any(is_isomorphic(rep, x) is not None for x in allowed)


def test_special_preenvelope_rejects_non_tilting(bound_a3):
    s3, s4 = simple(bound_a3, "3"), simple(bound_a3, "4")
    with pytest.raises(NotTilting):
        special_preenvelope_tilting(s4, s3, 1)  # pd S(3) = 2 exceeds n = 1
    with pytest.raises(NotTilting):
        # Ext^1(S(3), S(4)) != 0 violates self-orthogonality
        special_preenvelope_tilting(s4, direct_sum(bound_a3, [s3, s4]), 2)


def test_precover_whole_category_case(a2, univ_a):
    # (mod, add T) pair: U-class is everything, so K = 0 for projectives
    u_mods = univ_a.modules()
    v_mods = [univ_a.module("P(1)"), univ_a.module("S(1)")]
    seq = special_precover_universe(univ_a.module("P(1)"), u_mods, v_mods)
    assert seq.sub.is_zero()


def test_precover_bound_a3_cotilting_pair(bound_a3, univ_c):
    # (add(projectives), mod): the precover of S(4) uses only projectives
    u_mods = [univ_c.module(n) for n in ("P(3)", "P(4)", "P(5)")]
    seq = special_precover_universe(univ_c.module("S(4)"), u_mods, univ_c.modules())
    for rep, _ in decompose(seq.mid):
        assert any(is_isomorphic(rep, u) is not None for u in u_mods)
    # Wakamatsu certificate re-runs
    for u in u_mods:
        assert hgy.ext(u, seq.sub, 1).dimension == 0


def test_precover_not_surjective_without_projectives(bound_a3, univ_c):
    with pytest.raises(NotSurjective):
        special_precover_universe(
            univ_c.module("P(3)"), [univ_c.module("S(4)")], univ_c.modules()
        )


def test_preenvelope_universe_dual(bound_a3, univ_c):
    u_mods = [univ_c.module(n) for n in ("P(3)", "P(4)", "P(5)")]
    seq = special_preenvelope_universe(univ_c.module("S(3)"), u_mods, univ_c.modules())
    assert seq.sub.dim_vector() == univ_c.module("S(3)").dim_vector()
    for rep, _ in decompose(seq.quot):
        assert any(is_isomorphic(rep, u) is not None for u in u_mods)


# Two classes of Lambda that are not closed under extensions, so Wakamatsu's
# lemma does not apply.  The precover of (P(1)|S(4)) over PRECOVER_U has the
# kernel (0|P(5)) + (S(2)|0), and the preenvelope of (S(1)|P(3)) over
# PREENVELOPE_V has the cokernel (0|S(3)).
PRECOVER_U = ("(0|P(5))", "(P(1)|0)", "(P(1)|P(3))", "(S(2)|0)", "(S(2)|P(4))", "(S(1)|0)")
PREENVELOPE_V = ("(0|P(3))", "(0|P(4))", "(0|S(3))", "(P(1)|P(3))", "(S(1)|S(3))", "(S(1)|0)")


def test_precover_raises_when_ext_to_the_kernel_survives(univ_b):
    u_mods = [univ_b.module(n) for n in PRECOVER_U]
    with pytest.raises(KernelNotInV, match=r"Ext\^1\(U, K\) != 0 .*\[5\]"):
        special_precover_universe(univ_b.module("(P(1)|S(4))"), u_mods, univ_b.modules())


def test_precover_raises_when_the_kernel_leaves_the_v_class(univ_b):
    # (S(2)|0) is a kernel summand and a member of U; the class check comes first
    u_mods = [univ_b.module(n) for n in PRECOVER_U]
    v_mods = [m for name, m in univ_b.members if name != "(S(2)|0)"]
    with pytest.raises(KernelNotInV, match="outside the V class"):
        special_precover_universe(univ_b.module("(P(1)|S(4))"), u_mods, v_mods)


def test_preenvelope_raises_when_ext_from_the_cokernel_survives(univ_b):
    v_mods = [univ_b.module(n) for n in PREENVELOPE_V]
    with pytest.raises(KernelNotInV, match=r"Ext\^1\(C, V\) != 0 .*\[5\]"):
        special_preenvelope_universe(univ_b.module("(S(1)|P(3))"), univ_b.modules(), v_mods)


def test_preenvelope_raises_when_the_cokernel_leaves_the_u_class(univ_b):
    # the cokernel (0|S(3)) is a member of V; the class check comes first
    u_mods = [m for name, m in univ_b.members if name != "(0|S(3))"]
    v_mods = [univ_b.module(n) for n in PREENVELOPE_V]
    with pytest.raises(KernelNotInV, match="outside the U class"):
        special_preenvelope_universe(univ_b.module("(S(1)|P(3))"), u_mods, v_mods)


def test_in_T_wedge_membership(a2, bound_a3):
    t1 = direct_sum(a2, [projective(a2, "1"), simple(a2, "2")])
    # members of add(T) are accepted at depth 0
    w = in_T_wedge(projective(a2, "1"), t1, 1)
    assert w is not None and w.depth == 0
    # S(1) has the coresolution 0 -> S(1) -> ... wait: Hom(S(1), T) = 0, so it is rejected
    assert in_T_wedge(simple(a2, "1"), t1, 1) is None

    t3 = direct_sum(bound_a3, [projective(bound_a3, "3"), projective(bound_a3, "4"), simple(bound_a3, "3")])
    w = in_T_wedge(simple(bound_a3, "4"), t3, 2)
    assert w is not None and w.depth == 1
    w5 = in_T_wedge(simple(bound_a3, "5"), t3, 2)
    assert w5 is not None and w5.depth == 2
    # every projective is accepted for a verified tilting module
    for v in "345":
        assert in_T_wedge(projective(bound_a3, v), t3, 2) is not None


def test_in_T_covee_dual_membership(bound_a3):
    t3c = direct_sum(bound_a3, [projective(bound_a3, v) for v in "345"])
    for v in "345":
        assert in_T_covee(injective(bound_a3, v), t3c, 2) is not None
    # S(3) = I(3) is injective, accepted at depth 0 through duality
    assert in_T_covee(simple(bound_a3, "3"), t3c, 2) is not None


def test_wedge_witness_chain_is_exact(bound_a3):
    t3 = direct_sum(bound_a3, [projective(bound_a3, "3"), projective(bound_a3, "4"), simple(bound_a3, "3")])
    w = in_T_wedge(simple(bound_a3, "5"), t3, 2)
    assert w is not None
    for step in w.steps:
        step.verify()
    # chain glues: quotient of one step is the start of the next
    for first, second in zip(w.steps, w.steps[1:]):
        assert first.quot.dim_vector() == second.sub.dim_vector()
