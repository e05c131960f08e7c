"""Glued cotorsion pairs, the pushout construction, and both glue routes."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiverglue import PrimeField, Quiver, build_algebra
from quiverglue import glue as glue_module
from quiverglue import homology as hgy
from quiverglue.bundled import load_workspace
from quiverglue.errors import ExactnessMissing, PreconditionFailed, UniverseInconsistent
from quiverglue.glue import (
    dual_glue_cross_check,
    glue_cotilting,
    glue_tilting,
    glued_classes,
    k_construction,
)
from quiverglue.modcat import (
    QModule,
    Universe,
    decompose,
    direct_sum,
    injective,
    is_isomorphic,
    projective,
    simple,
)
from quiverglue.recollement import build_recollement

EXPECTED_5_2 = {"(S(2)|0)", "(S(2)|P(4))", "(P(1)|0)", "(P(1)|P(3))", "(S(1)|S(3))"}
EXPECTED_5_1 = {"(0|P(5))", "(S(1)|0)", "(P(1)|P(3))", "(P(1)|P(4))", "(P(1)|0)"}


@pytest.fixture(scope="module")
def la(rec):
    return rec.a_algebra


@pytest.fixture(scope="module")
def lc(rec):
    return rec.c_algebra


@pytest.fixture(scope="module")
def tilting_inputs(la, lc):
    t1 = direct_sum(la, [projective(la, "1"), simple(la, "2")])
    t3 = direct_sum(lc, [projective(lc, "3"), projective(lc, "4"), simple(lc, "3")])
    return t1, t3


@pytest.fixture(scope="module")
def cotilting_inputs(la, lc):
    t1 = direct_sum(la, [projective(la, "1"), simple(la, "1")])
    t3 = direct_sum(lc, [projective(lc, v) for v in "345"])
    return t1, t3


@pytest.fixture(scope="module")
def tilt_result(rec, tilting_inputs, univ_a, univ_c, univ_b):
    t1, t3 = tilting_inputs
    return glue_tilting(rec, t1, 1, t3, 2, univ_a, univ_c, univ_b)


@pytest.fixture(scope="module")
def cotilt_result(rec, cotilting_inputs, univ_a, univ_c, univ_b):
    t1, t3 = cotilting_inputs
    return glue_cotilting(rec, t1, 1, t3, 2, univ_a, univ_c, univ_b)


def test_glued_tilting_matches_paper(tilt_result):
    assert tilt_result.basic_names == frozenset(EXPECTED_5_2)
    assert all(mult == 1 for mult in tilt_result.decomposition.values())
    assert tilt_result.n2 == 2


def test_glued_cotilting_matches_paper(cotilt_result):
    assert cotilt_result.basic_names == frozenset(EXPECTED_5_1)
    assert cotilt_result.n2 == 2


def test_glued_classes_membership(tilt_result):
    glued = tilt_result.glued
    # V2 = members restricting into V1 and V3
    assert set(glued.v2_names) == {
        "(S(1)|0)", "(0|P(3))", "(S(2)|P(4))", "(P(1)|P(3))", "(S(1)|P(3))",
        "(0|S(3))", "(S(2)|0)", "(P(1)|P(4))", "(S(1)|S(3))", "(P(1)|0)", "(0|P(4))",
    }
    assert set(glued.t2_names) == EXPECTED_5_2


def test_glued_pair_orthogonality(tilt_result, univ_b):
    glued = tilt_result.glued
    for u in glued.u2_modules():
        for v in glued.v2_modules():
            assert hgy.ext(u, v, 1).dimension == 0
            assert hgy.ext(u, v, 2).dimension == 0


def test_projectives_and_injectives_sit_correctly(tilt_result, rec, univ_b):
    from quiverglue.modcat import injective as inj

    glued = tilt_result.glued
    u2, v2 = set(glued.u2_names), set(glued.v2_names)
    for v in rec.total.quiver.vertices:
        assert univ_b.find_member(projective(rec.total, v)) in u2
        assert univ_b.find_member(inj(rec.total, v)) in v2


def test_k_construction_trivial_cases(rec, tilt_result, lc):
    # the a-side pair from T1 = the regular module has V1 = everything,
    # so every preenvelope is trivial and K = j_! T''
    for name in ("P(3)", "P(4)"):
        summand = projective(lc, name[2])
        kc = k_construction(tilt_result.glued, summand)
        assert is_isomorphic(kc.k, rec.j_lower_shriek(summand)) is not None
    s3 = simple(lc, "3")
    kc = k_construction(tilt_result.glued, s3)
    assert is_isomorphic(kc.k, rec.j_lower_shriek(s3)) is not None


def test_k_construction_rows_verify(rec, tilting_inputs, tilt_result, lc):
    _, t3 = tilting_inputs
    for rep, _ in decompose(t3):
        kc = k_construction(tilt_result.glued, rep)
        kc.row_upper.verify()
        kc.row_left.verify()
        # upper row: 0 -> j_! T'' -> K -> i_* U -> 0
        assert kc.row_upper.sub.dim_vector() == rec.j_lower_shriek(rep).dim_vector()
        # left row quotient is j_* T''
        assert kc.row_left.quot.dim_vector() == rec.j_star(rep).dim_vector()
        # K lands in the glued core
        assert set(kc.member_names) <= set(tilt_result.glued.t2_names)


def test_k_construction_guards(tilt_result, cotilt_result, la, lc):
    # a cotilting glued pair has no a-side tilting module to take preenvelopes in
    with pytest.raises(PreconditionFailed, match="a-side tilting"):
        k_construction(cotilt_result.glued, simple(lc, "3"))
    with pytest.raises(PreconditionFailed, match="c-side algebra"):
        k_construction(tilt_result.glued, simple(la, "1"))
    # K is certified against the glued core it is handed
    no_core = tilt_result.glued._replace(t2_names=())
    with pytest.raises(UniverseInconsistent, match="outside the glued core"):
        k_construction(no_core, simple(lc, "3"))


def test_trivial_gluing_gives_projectives(rec, univ_a, univ_c, univ_b, la, lc):
    t1 = direct_sum(la, [projective(la, v) for v in la.quiver.vertices])
    t3 = direct_sum(lc, [projective(lc, v) for v in lc.quiver.vertices])
    result = glue_tilting(rec, t1, 1, t3, 1, univ_a, univ_c, univ_b)
    projective_names = {
        univ_b.find_member(projective(rec.total, v)) for v in rec.total.quiver.vertices
    }
    assert result.basic_names == frozenset(projective_names)


def test_trivial_cotilting_glue(rec, univ_a, univ_c, univ_b, la, lc):
    """Gluing the injective cogenerators.

    The glued recipe is asymmetric (the right class is functor-defined,
    the left class is its perpendicular), so the glued core is NOT the
    injective cogenerator of the middle algebra; the honest trivial
    statements are that every middle injective lands in V2 and that the
    result is a verified 1-cotilting module.
    """
    from quiverglue.modcat import injective as inj

    t1 = direct_sum(la, [inj(la, v) for v in la.quiver.vertices])
    t3 = direct_sum(lc, [inj(lc, v) for v in lc.quiver.vertices])
    result = glue_cotilting(rec, t1, 1, t3, 1, univ_a, univ_c, univ_b)
    injective_names = {
        univ_b.find_member(inj(rec.total, v)) for v in rec.total.quiver.vertices
    }
    assert injective_names <= set(result.glued.v2_names)
    assert result.n2 == 1
    # V2 is cut out by the restrictions landing in add(outer injectives):
    # hand enumeration over the 15 members gives exactly these nine
    assert set(result.glued.v2_names) == {
        "(S(1)|0)", "(0|P(3))", "(P(1)|P(3))", "(S(1)|P(3))", "(0|S(3))",
        "(P(1)|P(4))", "(S(1)|S(3))", "(P(1)|0)", "(0|P(4))",
    }
    assert result.basic_names == frozenset(
        {"(S(1)|0)", "(P(1)|P(4))", "(P(1)|0)", "(P(1)|P(3))", "(S(1)|S(3))"}
    )


def test_bounds_on_glued_modules(tilt_result, cotilt_result, univ_b):
    # pd of the glued tilting module within max(n1, n3) = 2
    assert hgy.pd(tilt_result.t2, cap=2) is not None
    # pd over U2 within max(n1+1, n3) = 2
    for name in tilt_result.glued.u2_names:
        assert hgy.pd(univ_b.module(name), cap=2) is not None
    # id over V2 within max(n1+1, n3) = 2 for the cotilting glue
    for name in cotilt_result.glued.v2_names:
        assert hgy.injdim(univ_b.module(name), cap=2) is not None


def test_constructive_route_equals_brute_force(tilt_result):
    # add(i_* T1 (+) K) against the u2 & v2 intersection
    assert tilt_result.basic_names == frozenset(tilt_result.glued.t2_names)


def test_prop_2_9_gating(rec, tilting_inputs, univ_a, univ_c, univ_b, monkeypatch):
    # i^* is not exact here, so the i_*/j_! shortcut check must be gated off:
    # the glue decomposes each K and T2, but never i_* T1 (+) j_! T3
    assert rec.exactness["i_upper_star"] is False
    t1, t3 = tilting_inputs
    calls = []
    original = Universe.decompose_names

    def counting(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(Universe, "decompose_names", counting)
    tilt_result = glue_tilting(rec, t1, 1, t3, 2, univ_a, univ_c, univ_b)
    assert len(calls) == len(decompose(t3)) + 1
    assert calls[-1] is tilt_result.t2
    # even so, for this example every core summand IS of the stated form
    la, lc = rec.a_algebra, rec.c_algebra
    images = [rec.i_star(projective(la, "1")), rec.i_star(simple(la, "2")),
              rec.i_star(simple(la, "1")), rec.i_star(projective(la, "2"))]
    images += [rec.j_lower_shriek(m) for m in
               [projective(lc, "3"), projective(lc, "4"), projective(lc, "5"),
                simple(lc, "3"), simple(lc, "4")]]
    for name in tilt_result.glued.t2_names:
        member = tilt_result.glued.universe.module(name)
        assert any(is_isomorphic(member, img) is not None for img in images)


def test_duality_cross_check_routes(rec, cotilting_inputs, univ_a, univ_c, univ_b):
    """Both glue routes succeed; they agree only when the recipe is self-dual.

    The glued pair puts the functor conditions on the right class V2 and
    takes perp-V2 for the left one.  Under duality the opposite
    recollement computes the mirror recipe: functor conditions on the
    left class L (through i^! and j^*), its perpendicular on the right.
    The two cores coincide exactly when perp-V2 equals L.  On this input
    the left classes cut out by i^! and by i^* are equal, because
    perp-T1 is all of mod A, so i^* not being exact is not what
    separates them: perp-V2 (7 members) is strictly smaller than L (10).
    """
    t1, t3 = cotilting_inputs
    cotilt_names, dual_tilt_names = dual_glue_cross_check(
        rec, t1, 1, t3, 2, univ_a, univ_c, univ_b
    )
    assert cotilt_names == frozenset(EXPECTED_5_1)
    assert rec.exactness["i_upper_star"] is False
    assert dual_tilt_names != cotilt_names
    # the mirror core consists of members whose c-restriction is
    # projective (the mirror candidate class), hand-checkable per member
    mirror = frozenset(
        {"(0|P(3))", "(0|P(4))", "(0|P(5))", "(P(1)|P(3))", "(S(1)|P(3))"}
    )
    assert dual_tilt_names == mirror
    for name in dual_tilt_names:
        c_part = rec.j_upper_star(univ_b.module(name))
        from quiverglue.approx import in_add
        from quiverglue.modcat import projective as proj

        assert in_add(c_part, [proj(rec.c_algebra, v) for v in rec.c_vertices])


def test_gluing_requires_exactness():
    from quiverglue import PrimeField, Quiver, build_algebra, relation
    from quiverglue.recollement import build_recollement

    quiver = Quiver(["1", "3", "4"], [("a", "3", "4"), ("x", "4", "1")])
    algebra = build_algebra(
        quiver, [relation(quiver, [(1, ["a", "x"])])], field=PrimeField(101), name="nonflat"
    )
    rec_bad = build_recollement(algebra, ["1"])
    assert rec_bad.exactness["j_lower_shriek"] is False
    with pytest.raises(ExactnessMissing):
        glued_classes(rec_bad, None, None, None)


def test_seed_and_prime_robustness(monkeypatch, tilting_inputs, cotilting_inputs):
    """Criterion-10 style check at the library level, small slice."""
    from quiverglue import modcat
    from quiverglue.bundled import load_workspace
    from quiverglue.glue import glue_tilting as gt

    outcomes = set()
    for seed in (0xC0FFEE, 1, 2):
        monkeypatch.setattr(modcat, "_SPLIT_SEED", seed)
        ws = load_workspace()
        kind, t1, n1, t3, n3, expected = ws.example_inputs("5-2")
        result = gt(ws.recollement, t1, n1, t3, n3, ws.universe_a, ws.universe_c,
                    ws.universe_b)
        outcomes.add((result.basic_names, result.n2))
    assert len(outcomes) == 1


# -- gluing over A7 --------------------------------------------------------------


def interval_universe(algebra) -> Universe:
    """Every interval [i, j] of a line algebra v_1 -> ... -> v_n, in the standard basis."""
    vertices = algebra.quiver.vertices
    members = []
    for i in range(len(vertices)):
        for j in range(i, len(vertices)):
            inside = set(vertices[i : j + 1])
            maps = {a.name: [[1]] for a in algebra.quiver.arrows if {a.source, a.target} <= inside}
            members.append((f"[{vertices[i]},{vertices[j]}]", QModule(algebra, {v: 1 for v in inside}, maps)))
    return Universe(algebra, members)


def rescaled(m: QModule, v: str, c: int) -> QModule:
    """An isomorphic copy of m: the basis at v scaled by c."""
    field = m.algebra.field
    maps = {}
    for a in m.algebra.quiver.arrows:
        block = m.maps[a.name]
        if a.target == v:
            block = field.scale(c, block)
        if a.source == v:
            block = field.scale(field.inv_scalar(c), block)
        maps[a.name] = block
    return QModule(m.algebra, m.dims, maps)


@pytest.fixture(scope="module")
def a7_glue(a7_intervals):
    """A7 = 1 -> ... -> 7 with a = {4..7}, and the complete interval universes."""
    rec = build_recollement(a7_intervals[0].algebra, ["4", "5", "6", "7"])
    universes = tuple(interval_universe(alg) for alg in (rec.a_algebra, rec.c_algebra, rec.total))
    assert [len(u) for u in universes] == [10, 6, 28]
    return rec, universes


def generator(algebra, kind: str) -> QModule:
    make = projective if kind == "proj" else injective
    return direct_sum(algebra, [make(algebra, v) for v in algebra.quiver.vertices])


T_KINDS = [("proj", "proj"), ("proj", "inj"), ("inj", "proj"), ("inj", "inj")]


@pytest.mark.parametrize("kinds", T_KINDS, ids=["-".join(k) for k in T_KINDS])
def test_a7_glue_sweeps_only_non_members(a7_glue, monkeypatch, kinds):
    rec, (univ_a7a, univ_a7c, univ_a7) = a7_glue
    calls = {"precover": [], "preenvelope": []}
    for kind, name in (("precover", "special_precover_universe"), ("preenvelope", "special_preenvelope_universe")):
        original = getattr(glue_module, name)

        def counting(x, *args, original=original, kind=kind):
            calls[kind].append(x)
            return original(x, *args)

        monkeypatch.setattr(glue_module, name, counting)
    t1, t3 = generator(rec.a_algebra, kinds[0]), generator(rec.c_algebra, kinds[1])
    result = glue_tilting(rec, t1, 1, t3, 1, univ_a7a, univ_a7c, univ_a7)
    # a tilting module over A7 has one summand per simple; type A summands are intervals
    assert len(result.decomposition) == 7 and set(result.decomposition) <= set(univ_a7.names())
    assert result.n2 == 1
    glued = result.glued
    u2, v2 = set(glued.u2_names), set(glued.v2_names)
    assert len(calls["precover"]) == len(univ_a7) - len(u2)
    assert len(calls["preenvelope"]) == len(univ_a7) - len(v2)
    assert {univ_a7.find_member(x) for x in calls["precover"]} == set(univ_a7.names()) - u2
    assert {univ_a7.find_member(x) for x in calls["preenvelope"]} == set(univ_a7.names()) - v2


@pytest.mark.parametrize("kinds", T_KINDS, ids=["-".join(k) for k in T_KINDS])
def test_a7_glue_names_a_repeated_universe_member(a7_glue, kinds):
    rec, (univ_a7a, univ_a7c, univ_a7) = a7_glue
    copy = rescaled(univ_a7.module("[1,6]"), "3", 5)
    universe = Universe(rec.total, univ_a7.members + [("copy of [1,6]", copy)])
    t1, t3 = generator(rec.a_algebra, kinds[0]), generator(rec.c_algebra, kinds[1])
    with pytest.raises(UniverseInconsistent, match=re.escape("members [1,6] and copy of [1,6] are isomorphic")):
        glue_tilting(rec, t1, 1, t3, 1, univ_a7a, univ_a7c, universe)


def test_example_5_2_names_a_repeated_universe_member():
    ws = load_workspace()
    kind, t1, n1, t3, n3, _ = ws.example_inputs("5-2")
    member = ws.universe_b.module("(P(1)|P(3))")
    vertex = next(a.target for a in ws.universe_b.algebra.quiver.arrows if member.maps[a.name].any())
    universe = Universe(ws.universe_b.algebra, ws.universe_b.members + [("copy", rescaled(member, vertex, 3))])
    with pytest.raises(UniverseInconsistent, match=re.escape("members (P(1)|P(3)) and copy are isomorphic")):
        glue_tilting(ws.recollement, t1, n1, t3, n3, ws.universe_a, ws.universe_c, universe)


# -- the theorem over generated type-A recollements ----------------------------------


def type_a_interval_universe(algebra):
    """Every interval of a quiver whose vertices are positions of a line, as ``[i,j]``.

    For any orientation of A_n the intervals are exactly the indecomposables
    (Gabriel): their dimension vectors are the positive roots.  An interval
    is a run of consecutive positions that are all vertices of ``algebra``.
    """
    vertices = set(algebra.quiver.vertices)
    members = []
    for i in sorted(int(v) for v in vertices):
        j = i
        while str(j) in vertices:
            inside = {str(k) for k in range(i, j + 1)}
            maps = {a.name: [[1]] for a in algebra.quiver.arrows if {a.source, a.target} <= inside}
            members.append((f"[{i},{j}]", QModule(algebra, {v: 1 for v in inside}, maps)))
            j += 1
    return Universe(algebra, members)


def generator(algebra, kind):
    """The projective generator or the injective cogenerator, a 1-tilting module over a hereditary algebra."""
    make = projective if kind == "proj" else injective
    return direct_sum(algebra, [make(algebra, v) for v in algebra.quiver.vertices])


@st.composite
def type_a_recollements(draw):
    """A_n, n <= 7, in a random orientation, with a the successor closure of a random vertex."""
    n = draw(st.sampled_from([7, 4, 6, 3, 5, 2]))
    vertices = [str(k) for k in range(1, n + 1)]
    forward = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    edges = zip(vertices, vertices[1:], forward)
    arrows = [(f"x{k}", v, w) if ahead else (f"x{k}", w, v) for k, (v, w, ahead) in enumerate(edges)]
    a_side = {draw(st.sampled_from(vertices))}
    while grown := {t for _, s, t in arrows if s in a_side} - a_side:
        a_side |= grown
    # an a-side closed under successors has no arrow a -> c, so build_recollement accepts it
    assume(len(a_side) < n)
    total = build_algebra(Quiver(vertices, arrows), [], field=PrimeField(101), name=f"A{n}")
    kinds = st.sampled_from(["proj", "inj"])
    return build_recollement(total, sorted(a_side, key=int)), draw(kinds), draw(kinds)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(type_a_recollements())
def test_glued_type_a_tilting_modules_have_one_summand_per_vertex(drawn):
    # T1 and T3 are each Lambda or D(Lambda), 1-tilting over a hereditary algebra; the glued T2 is
    # tilting of degree at most max(n1, n3) = 1, with |Q_0| pairwise non-isomorphic summands
    rec, t1_kind, t3_kind = drawn
    universes = [type_a_interval_universe(alg) for alg in (rec.a_algebra, rec.c_algebra, rec.total)]
    t1, t3 = generator(rec.a_algebra, t1_kind), generator(rec.c_algebra, t3_kind)
    result = glue_tilting(rec, t1, 1, t3, 1, *universes)
    assert result.n2 <= 1
    vertex_count = len(rec.total.quiver.vertices)
    assert len(result.basic_names) == vertex_count
    assert len(decompose(result.t2)) == vertex_count
