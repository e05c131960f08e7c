"""Six functors, adjunctions, natural identities, canonical sequences."""

from __future__ import annotations

import numpy as np
import pytest

from quiverglue import PrimeField, Quiver, build_algebra, relation
from quiverglue import homology as hgy
from quiverglue.errors import AlgebraMismatch, NotTriangular
from quiverglue.modcat import (
    hom_basis,
    hom_dim,
    identity_morphism,
    injective,
    is_isomorphic,
    projective,
    simple,
)
from quiverglue.recollement import build_recollement, verify_exactness


def test_corner_algebras(rec):
    assert rec.a_algebra.dim == 3
    assert rec.c_algebra.dim == 5
    assert rec.a_vertices == ("1", "2")
    assert rec.c_vertices == ("3", "4", "5")


def test_not_triangular_rejected(workspace):
    total = workspace.recollement.total
    with pytest.raises(NotTriangular):
        build_recollement(total, ["3", "4", "5"])  # e: 3 -> 1 crosses a -> c


def test_degenerate_partitions(workspace):
    total = workspace.recollement.total
    everything = build_recollement(total, list(total.quiver.vertices))
    assert everything.c_algebra.dim == 0
    nothing = build_recollement(total, [])
    assert nothing.a_algebra.dim == 0
    m = projective(total, "3")
    assert everything.j_upper_star(m).is_zero()
    assert nothing.i_shriek(m).is_zero()
    assert everything.i_shriek(m).dim_vector() == m.dim_vector()


def test_functor_formulas_match_paper(rec, univ_b):
    la, lc = rec.a_algebra, rec.c_algebra
    cases = [
        (rec.i_star(projective(la, "1")), "(P(1)|0)"),
        (rec.i_star(simple(la, "2")), "(S(2)|0)"),
        (rec.j_lower_shriek(projective(lc, "3")), "(P(1)|P(3))"),
        (rec.j_lower_shriek(projective(lc, "4")), "(S(2)|P(4))"),
        (rec.j_lower_shriek(simple(lc, "3")), "(S(1)|S(3))"),
        (rec.j_star(projective(lc, "3")), "(0|P(3))"),
    ]
    for module, expected in cases:
        assert is_isomorphic(module, univ_b.module(expected)) is not None


def test_exactness_certificates(rec):
    assert rec.exactness == {
        "i_star": True,
        "j_star": True,
        "i_shriek": True,
        "j_upper_star": True,
        "j_lower_shriek": True,
        "i_upper_star": False,
    }
    assert verify_exactness(rec) == rec.exactness


def test_j_shriek_can_fail_exactness():
    # total algebra 3 -> 4 -> 1 with the composite killed: the connecting
    # bimodule is the simple right module at 4, which is not flat
    quiver = Quiver(["1", "3", "4"], [("a", "3", "4"), ("x", "4", "1")])
    algebra = build_algebra(
        quiver, [relation(quiver, [(1, ["a", "x"])])], field=PrimeField(101), name="nonflat"
    )
    rec = build_recollement(algebra, ["1"])
    assert rec.exactness["j_lower_shriek"] is False
    assert rec.exactness["i_shriek"] is True
    assert verify_exactness(rec) == rec.exactness


def test_natural_isos_prop(rec, univ_a, univ_c):
    # i^* i_* = Id, i^! i_* = Id on the a-side
    for _, x in univ_a.members:
        assert is_isomorphic(rec.i_upper_star(rec.i_star(x)), x) is not None
        assert rec.i_shriek(rec.i_star(x)).equal_presentation(x)
    # j^* j_! = Id, j^* j_* = Id on the c-side
    for _, y in univ_c.members:
        assert rec.j_upper_star(rec.j_lower_shriek(y)).equal_presentation(y)
        assert rec.j_upper_star(rec.j_star(y)).equal_presentation(y)


def test_vanishing_composites(rec, univ_a, univ_c):
    # i^* j_! = 0 and i^! j_* = 0
    for _, y in univ_c.members:
        assert rec.i_upper_star(rec.j_lower_shriek(y)).is_zero()
        assert rec.i_shriek(rec.j_star(y)).is_zero()
    # j^* kills the image of i_*
    for _, x in univ_a.members:
        assert rec.j_upper_star(rec.i_star(x)).is_zero()


def test_adjunction_dimensions_exhaustive(rec, univ_a, univ_c, univ_b):
    for _, m in univ_b.members:
        for _, x in univ_a.members:
            assert hom_dim(rec.i_upper_star(m), x) == hom_dim(m, rec.i_star(x))
            assert hom_dim(rec.i_star(x), m) == hom_dim(x, rec.i_shriek(m))
        for _, y in univ_c.members:
            assert hom_dim(rec.j_lower_shriek(y), m) == hom_dim(y, rec.j_upper_star(m))
            assert hom_dim(rec.j_upper_star(m), y) == hom_dim(m, rec.j_star(y))


def test_projectivity_and_injectivity_preservation(rec):
    la, lc, total = rec.a_algebra, rec.c_algebra, rec.total
    # i^* sends projectives to projectives; i^! sends injectives to injectives
    a_projectives = [projective(la, v) for v in la.quiver.vertices]
    a_injectives = [injective(la, v) for v in la.quiver.vertices]
    for v in total.quiver.vertices:
        image = rec.i_upper_star(projective(total, v))
        if not image.is_zero():
            from quiverglue.modcat import decompose

            for rep, _ in decompose(image):
                assert any(is_isomorphic(rep, p) is not None for p in a_projectives)
        image = rec.i_shriek(injective(total, v))
        if not image.is_zero():
            from quiverglue.modcat import decompose

            for rep, _ in decompose(image):
                assert any(is_isomorphic(rep, i) is not None for i in a_injectives)
    # j_! sends projectives to projectives; j_* injectives to injectives
    for v in lc.quiver.vertices:
        jp = rec.j_lower_shriek(projective(lc, v))
        assert is_isomorphic(jp, projective(total, v)) is not None
        ji = rec.j_star(injective(lc, v))
        assert hgy.injdim(ji) == 0


def test_ext_adjunction_prop7(rec, univ_a, univ_c, univ_b):
    # i^! exact: Ext^1(i_* X, M) = Ext^1(X, i^! M); dual for j_!
    for _, x in univ_a.members:
        for _, m in univ_b.members:
            left = hgy.ext(rec.i_star(x), m, 1).dimension
            i_shriek_m = rec.i_shriek(m)
            right = (
                hgy.ext(x, i_shriek_m, 1).dimension if i_shriek_m.total_dim else 0
            )
            assert left == right
    for _, z in univ_c.members:
        for _, m in univ_b.members:
            left = hgy.ext(rec.j_lower_shriek(z), m, 1).dimension
            j_star_m = rec.j_upper_star(m)
            right = hgy.ext(z, j_star_m, 1).dimension if j_star_m.total_dim else 0
            assert left == right


def test_canonical_sequences_on_all_members(rec, univ_b):
    for _, m in univ_b.members:
        upper = rec.canonical_sequence_upper(m)
        # i^! is exact here, so the upper sequence is short exact throughout
        assert upper.exact_left and upper.exact_middle and upper.exact_right
        lower = rec.canonical_sequence_lower(m)
        # the lower sequence is always right exact
        assert lower.exact_middle and lower.exact_right


def test_canonical_sequence_degenerations(rec, univ_a, univ_c):
    x = univ_a.module("P(1)")
    m = rec.i_star(x)
    upper = rec.canonical_sequence_upper(m)
    # M in the image of i_*: the unit is an isomorphism
    assert upper.first.is_isomorphism()
    y = univ_c.module("P(3)")
    m = rec.j_star(y)
    assert rec.i_shriek(m).is_zero()


def test_canonical_lower_can_fail_left_exactness(rec, univ_b):
    # for (0|S(3)) the counit j_! j^* -> id kills the induced a-block
    lower = rec.canonical_sequence_lower(univ_b.module("(0|S(3))"))
    assert lower.exact_middle and lower.exact_right
    assert not lower.exact_left


def test_canonical_upper_middle_dims_additive(rec, univ_b):
    m = univ_b.module("(P(1)|P(3))")
    upper = rec.canonical_sequence_upper(m)
    assert upper.first.source.total_dim + upper.second.target.total_dim == m.total_dim


def test_functor_morphism_actions(rec, univ_c):
    from quiverglue.modcat import hom_basis

    p3, s3 = univ_c.module("P(3)"), univ_c.module("S(3)")
    for f in hom_basis(p3, s3):
        jf = rec.j_lower_shriek_mor(f)
        assert rec.j_upper_star_mor(jf).blocks["3"].tolist() == f.blocks["3"].tolist()


def _same_morphism(f, g) -> bool:
    return (
        f.source.equal_presentation(g.source)
        and f.target.equal_presentation(g.target)
        and np.array_equal(f.to_vector(), g.to_vector())
    )


@pytest.mark.parametrize(
    "functor, side",
    [
        ("i_star", "a"),
        ("j_star", "c"),
        ("i_shriek", "b"),
        ("j_upper_star", "b"),
        ("i_upper_star", "b"),
        ("j_lower_shriek", "c"),
    ],
)
def test_functor_morphism_actions_are_functorial(rec, univ_a, univ_c, univ_b, functor, side):
    # F(id) = id and F(g o f) = F(g) o F(f) over every composable pair of hom-basis maps
    mods = {"a": univ_a, "c": univ_c, "b": univ_b}[side].modules()
    on_objects, on_maps = getattr(rec, functor), getattr(rec, f"{functor}_mor")
    pairs = 0
    for y in mods:
        assert _same_morphism(on_maps(identity_morphism(y)), identity_morphism(on_objects(y)))
        for x in mods:
            for f in hom_basis(x, y):
                for z in mods:
                    for g in hom_basis(y, z):
                        assert _same_morphism(on_maps(g.compose(f)), on_maps(g).compose(on_maps(f)))
                        pairs += 1
    assert pairs > 0


def test_algebra_mismatch_guard(rec, univ_c):
    with pytest.raises(AlgebraMismatch):
        rec.i_star(univ_c.module("P(3)"))
