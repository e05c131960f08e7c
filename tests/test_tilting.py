"""Tilting/cotilting verification and cotorsion pairs over universes."""

from __future__ import annotations

import re

import pytest

from quiverglue import homology as hgy
from quiverglue import approx, tilting
from quiverglue.approx import in_T_covee, in_T_wedge
from quiverglue.errors import NotTilting, UniverseInconsistent
from quiverglue.modcat import (
    decompose,
    direct_sum,
    dualize,
    injective,
    projective,
    simple,
)
from quiverglue.tilting import (
    CotorsionPairData,
    cotorsion_pair_from_cotilting,
    cotorsion_pair_from_tilting,
    find_tilting_degree,
    is_tilting_cotorsion_pair,
    verify_cotilting,
    verify_pair_axioms,
    verify_tilting,
)


@pytest.fixture(scope="module")
def la(rec):
    return rec.a_algebra


@pytest.fixture(scope="module")
def lc(rec):
    return rec.c_algebra


@pytest.fixture(scope="module")
def t1_tilt(la):
    return direct_sum(la, [projective(la, "1"), simple(la, "2")])


@pytest.fixture(scope="module")
def t1_cotilt(la):
    return direct_sum(la, [projective(la, "1"), simple(la, "1")])


@pytest.fixture(scope="module")
def t3_tilt(lc):
    return direct_sum(lc, [projective(lc, "3"), projective(lc, "4"), simple(lc, "3")])


@pytest.fixture(scope="module")
def t3_cotilt(lc):
    return direct_sum(lc, [projective(lc, v) for v in "345"])


def test_regular_module_is_tilting(a2, bound_a3):
    for algebra in (a2, bound_a3):
        reg = direct_sum(algebra, [projective(algebra, v) for v in algebra.quiver.vertices])
        for n in (1, 2):
            assert verify_tilting(reg, n).ok


def test_injective_cogenerator_is_cotilting(a2, bound_a3):
    for algebra, n in ((a2, 1), (bound_a3, 2)):
        cog = direct_sum(algebra, [injective(algebra, v) for v in algebra.quiver.vertices])
        assert verify_cotilting(cog, n).ok


def test_paper_inputs_certify(t1_tilt, t1_cotilt, t3_tilt, t3_cotilt):
    assert verify_tilting(t1_tilt, 1).ok
    assert verify_cotilting(t1_cotilt, 1).ok
    assert verify_tilting(t3_tilt, 2).ok
    assert verify_cotilting(t3_cotilt, 2).ok


def test_t3_is_exactly_2_tilting(t3_tilt):
    check = verify_tilting(t3_tilt, 1)
    assert not check.ok
    assert any("(P1)" in msg or "(P3)" in msg for msg in check.failures)
    assert find_tilting_degree(t3_tilt) == 2


def test_refutation_names_axiom(bound_a3):
    # S(4) alone: P(3) has no add(S(4))-coresolution
    check = verify_tilting(simple(bound_a3, "4"), 2)
    assert not check.ok
    assert any("(P3)" in msg for msg in check.failures)


def test_pairs_match_paper(t1_tilt, t1_cotilt, t3_tilt, t3_cotilt, univ_a, univ_c):
    pair = cotorsion_pair_from_tilting(t1_tilt, 1, univ_a)
    assert set(pair.u_names) == {"P(1)", "S(2)"}
    assert set(pair.v_names) == {"P(1)", "S(1)", "S(2)"}

    pair = cotorsion_pair_from_cotilting(t1_cotilt, 1, univ_a)
    assert set(pair.u_names) == {"P(1)", "S(1)", "S(2)"}
    assert set(pair.v_names) == {"P(1)", "S(1)"}

    pair = cotorsion_pair_from_tilting(t3_tilt, 2, univ_c)
    assert set(pair.u_names) == {"P(3)", "P(4)", "P(5)", "S(3)", "S(4)"}
    assert set(pair.v_names) == {"P(3)", "P(4)", "S(3)"}

    pair = cotorsion_pair_from_cotilting(t3_cotilt, 2, univ_c)
    assert set(pair.u_names) == {"P(3)", "P(4)", "P(5)"}
    assert set(pair.v_names) == {"P(3)", "P(4)", "P(5)", "S(3)", "S(4)"}


def test_trivial_tilting_pair(lc, univ_c):
    # T = the regular module: the pair is (projectives, everything)
    reg = direct_sum(lc, [projective(lc, v) for v in "345"])
    pair = cotorsion_pair_from_tilting(reg, 1, univ_c)
    assert set(pair.u_names) == {"P(3)", "P(4)", "P(5)"}
    assert set(pair.v_names) == set(univ_c.names())
    for v in "345":
        assert univ_c.find_member(injective(lc, v)) in set(pair.v_names)


def test_wedge_cap_intersection_is_add_t(t3_tilt, univ_c):
    # members of both the wedge and the co-wedge are exactly add T
    wedge = {n for n, x in univ_c.members if in_T_wedge(x, t3_tilt, 2) is not None}
    cowedge = {n for n, x in univ_c.members if in_T_covee(x, t3_tilt, 2) is not None}
    t_names = {univ_c.find_member(rep) for rep, _ in decompose(t3_tilt)}
    assert wedge & cowedge == t_names


def test_wedge_orthogonal_to_cowedge(t3_tilt, univ_c):
    wedge = [x for _, x in univ_c.members if in_T_wedge(x, t3_tilt, 2) is not None]
    cowedge = [x for _, x in univ_c.members if in_T_covee(x, t3_tilt, 2) is not None]
    for u in wedge:
        for v in cowedge:
            for i in (1, 2, 3):
                assert hgy.ext(u, v, i).dimension == 0


def test_hereditary_equivalences(t3_tilt, univ_c):
    pair = cotorsion_pair_from_tilting(t3_tilt, 2, univ_c)
    u_mods, v_mods = pair.u_modules(), pair.v_modules()
    # Ext^2 = 0 implies all higher degrees vanish up to the cap
    for u in u_mods:
        for v in v_mods:
            for i in (1, 2, 3, 4):
                assert hgy.ext(u, v, i).dimension == 0
    # u-list closed under syzygies inside the universe
    u_names = set(pair.u_names)
    for u in u_mods:
        syz = hgy.syzygy(u, 1)
        for rep, _ in decompose(syz):
            assert pair.universe.find_member(rep) in u_names
    # v-list closed under cosyzygies inside the universe
    v_names = set(pair.v_names)
    for v in v_mods:
        cosyz = hgy.cosyzygy(v, 1)
        for rep, _ in decompose(cosyz):
            assert pair.universe.find_member(rep) in v_names


# a cotorsion pair on the bound A3 universe that is not hereditary: Ext^2(S(3), P(5)) != 0
NON_HEREDITARY = ("P(3)", "P(4)", "P(5)", "S(3)")


def test_pair_axiom_checker(univ_c, t3_tilt):
    pair = cotorsion_pair_from_tilting(t3_tilt, 2, univ_c)
    u, v = list(pair.u_names), list(pair.v_names)
    assert verify_pair_axioms(univ_c, u, v) is None
    # each failure names the first identity that fails
    with pytest.raises(UniverseInconsistent, match=re.escape("Ext^1(U, V) = 0 fails at (S(3), S(4))")):
        verify_pair_axioms(univ_c, v, u)
    with pytest.raises(UniverseInconsistent, match=re.escape("Ext^2(U, V) = 0 fails at (S(3), P(5))")):
        verify_pair_axioms(univ_c, list(NON_HEREDITARY), list(NON_HEREDITARY))
    with pytest.raises(UniverseInconsistent, match="^V = U-perp fails"):
        verify_pair_axioms(univ_c, u, v[1:])
    with pytest.raises(UniverseInconsistent, match="^U = perp-V fails"):
        verify_pair_axioms(univ_c, u[1:], v)


def test_recognition_accepts_paper_pair(t3_tilt, univ_c):
    pair = cotorsion_pair_from_tilting(t3_tilt, 2, univ_c)
    decision = is_tilting_cotorsion_pair(pair)
    assert decision.accepted and decision.n == 2
    assert set(decision.t_names) == {"P(3)", "P(4)", "S(3)"}


def test_recognition_accepts_projective_pair(lc, univ_c):
    reg = direct_sum(lc, [projective(lc, v) for v in "345"])
    pair = cotorsion_pair_from_tilting(reg, 1, univ_c)
    decision = is_tilting_cotorsion_pair(pair)
    assert decision.accepted
    # the core is the projectives
    assert set(decision.t_names) == {"P(3)", "P(4)", "P(5)"}


def test_recognition_rejects_a_pair_failing_the_axioms(univ_c):
    # recognition holds only for hereditary cotorsion pairs, so it certifies the pair first
    broken = CotorsionPairData(universe=univ_c, u_names=NON_HEREDITARY, v_names=NON_HEREDITARY, kind=("plain",))
    with pytest.raises(UniverseInconsistent, match=re.escape("Ext^2(U, V) = 0 fails")):
        is_tilting_cotorsion_pair(broken)


def test_non_tilting_input_raises(lc, univ_c):
    with pytest.raises(NotTilting):
        cotorsion_pair_from_tilting(simple(lc, "4"), 1, univ_c)


def test_cotilting_direct_and_dual_routes_agree(t1_cotilt, t3_cotilt):
    # verify_cotilting internally runs the dualized tilting check and
    # raises on disagreement; reaching here means both agree
    assert verify_cotilting(t1_cotilt, 1).ok
    assert verify_cotilting(t3_cotilt, 2).ok


@pytest.mark.parametrize(
    "kind, member, route",
    [("tilting", "in_T_wedge", "wedge"), ("cotilting", "in_T_covee", "coresolution")],
)
def test_pair_routes_disagree_when_a_member_is_dropped(
    monkeypatch, kind, member, route, t3_tilt, t3_cotilt, univ_c
):
    # S(4) is in the (co)resolution class of both pairs and is neither projective
    # nor injective, so dropping it from the membership test leaves the axioms intact
    t = t3_tilt if kind == "tilting" else t3_cotilt
    build = cotorsion_pair_from_tilting if kind == "tilting" else cotorsion_pair_from_cotilting
    pair = build(t, 2, univ_c)
    other = sorted(pair.u_names if kind == "tilting" else pair.v_names)
    assert "S(4)" in other
    dropped = univ_c.module("S(4)")
    original = getattr(tilting, member)

    def without_s4(x, *args, **kwargs):
        return None if x is dropped else original(x, *args, **kwargs)

    monkeypatch.setattr(tilting, member, without_s4)
    witnessed = [name for name in other if name != "S(4)"]
    expected = f"perp route {other} disagrees with {route} route {witnessed}"
    with pytest.raises(UniverseInconsistent) as err:
        build(t, 2, univ_c)
    assert str(err.value) == expected


@pytest.mark.parametrize("t, n", [("t1_cotilt", 1), ("t3_cotilt", 2)])
def test_cotilting_check_tests_each_injective_once(monkeypatch, request, t, n):
    # (C3) already tests D I(v) = P_op(v) against DT; the dual route adds only Ext^i(DT, DT)
    t = request.getfixturevalue(t)
    calls = []
    original = approx.in_T_wedge

    def counting(x, *args, **kwargs):
        calls.append(x)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(approx, "in_T_wedge", counting)
    monkeypatch.setattr(tilting, "in_T_wedge", counting)
    assert verify_cotilting(t, n).ok
    assert len(calls) == len(t.algebra.quiver.vertices)


@pytest.mark.parametrize(
    "side, direct, dual",
    [
        ("direct", ("(C2) Ext^1(T, T) has dimension 1",), ()),
        ("dual", (), ("(P2) Ext^1(T, T) has dimension 1",)),
    ],
)
def test_cotilting_routes_disagree_when_one_ext_reads_nonzero(monkeypatch, t1_cotilt, side, direct, dual):
    # Ext^1(T, T) over the algebra against Ext^1(DT, DT) over its opposite
    faked = t1_cotilt if side == "direct" else dualize(t1_cotilt)
    original = hgy.ext

    def ext(m, n, i):
        if m is faked and n is faked and i == 1:
            return hgy.ExtGroup(i, m, n, 1, ())
        return original(m, n, i)

    monkeypatch.setattr(hgy, "ext", ext)
    with pytest.raises(RuntimeError) as err:
        verify_cotilting(t1_cotilt, 1)
    assert str(err.value) == f"cotilting routes disagree: direct={direct}, dual={dual}"
