"""Resolutions, Ext, extension realization, pushouts, dimensions."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hom_oracle import arrow_kernel

from quiverglue import PrimeField, QModule, QMorphism, Quiver, build_algebra
from quiverglue import homology as hgy
from quiverglue import modcat
from quiverglue.algebra import memo_table
from quiverglue.bundled import load_workspace
from quiverglue.modcat import (
    cokernel,
    direct_sum,
    direct_sum_with_maps,
    dualize,
    hom_basis,
    hom_dim,
    identity_morphism,
    injective,
    is_isomorphic,
    kernel,
    projective,
    radical_submodule,
    simple,
    top_quotient,
    zero_morphism,
)


def test_short_exact_sequence_names_the_first_failure(a2):
    # 0 -> S2 -> P1 -> S1 -> 0 over 1 -> 2, and broken copies of it: each raises the
    # first failing test, in the order injective, surjective, zero composite, exact
    p1, s1, s2 = projective(a2, "1"), simple(a2, "1"), simple(a2, "2")
    zero = QModule(a2, {}, {"d": np.zeros((0, 0), dtype=np.int64)})
    incl = QMorphism(s2, p1, {"1": np.zeros((1, 0), dtype=np.int64), "2": np.eye(1, dtype=np.int64)})
    proj = QMorphism(p1, s1, {"1": np.eye(1, dtype=np.int64), "2": np.zeros((0, 1), dtype=np.int64)})
    hgy.ShortExactSequence(incl, proj).verify()
    cases = [
        (zero_morphism(s2, p1), zero_morphism(p1, s1), "left map is not injective"),
        (incl, zero_morphism(p1, s1), "right map is not surjective"),
        (identity_morphism(p1), identity_morphism(p1), "composite is nonzero"),
        (zero_morphism(zero, p1), proj, "not exact at the middle, vertex 2"),
    ]
    for left, right, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            hgy.ShortExactSequence(left, right).verify()


def test_projective_cover_of_simple(bound_a3):
    cover = hgy.projective_cover(simple(bound_a3, "3"))
    assert cover.source.dim_vector() == (1, 1, 0)
    assert cover.is_surjective()


def test_syzygies_of_simple(bound_a3):
    s3 = simple(bound_a3, "3")
    assert hgy.syzygy(projective(bound_a3, "3"), 1).is_zero()
    assert is_isomorphic(hgy.syzygy(s3, 1), simple(bound_a3, "4")) is not None
    assert is_isomorphic(hgy.syzygy(s3, 2), simple(bound_a3, "5")) is not None
    assert hgy.syzygy(s3, 3).is_zero()


def test_cosyzygy_through_duality(bound_a3):
    s5 = simple(bound_a3, "5")
    sig = hgy.cosyzygy(s5, 1)
    # the envelope of S(5) is the interval [4,5]; the cosyzygy is S(4)
    assert is_isomorphic(sig, simple(bound_a3, "4")) is not None


def test_ext_examples(bound_a3):
    s3, s4, s5 = (simple(bound_a3, v) for v in "345")
    assert hgy.ext(s3, s4, 1).dimension == 1
    assert hgy.ext(s3, s5, 2).dimension == 1
    assert hgy.ext(s3, s5, 1).dimension == 0
    for v in "345":
        assert hgy.ext(projective(bound_a3, v), s4, 1).dimension == 0
        assert hgy.ext(s4, injective(bound_a3, v), 1).dimension == 0


def test_dimension_shift_both_routes(workspace):
    universe = workspace.universe_b
    picks = ["(S(1)|S(3))", "(0|S(4))", "(P(1)|S(4))", "(0|P(3))"]
    for a_name in picks:
        for b_name in picks:
            m, n = universe.module(a_name), universe.module(b_name)
            for i in range(1, 5):
                via_omega = hgy.ext(m, n, i).dimension
                via_sigma = hgy.ext_dim_via_cosyzygy(m, n, i)
                assert via_omega == via_sigma


def test_ext_duality(workspace):
    universe = workspace.universe_b
    for a_name, _ in universe.members[:6]:
        for b_name, _ in universe.members[:6]:
            m, n = universe.module(a_name), universe.module(b_name)
            for i in (1, 2, 3):
                assert (
                    hgy.ext(m, n, i).dimension
                    == hgy.ext(dualize(n), dualize(m), i).dimension
                )


def test_realize_extension_nonzero_class(bound_a3):
    s3, s4 = simple(bound_a3, "3"), simple(bound_a3, "4")
    group = hgy.ext(s3, s4, 1)
    assert group.dimension == 1
    ses = hgy.realize_extension(group.cocycles[0], s3)
    assert is_isomorphic(ses.mid, projective(bound_a3, "3")) is not None
    # the connecting class of the realized sequence is again nonzero
    cls = hgy.extension_class(ses)
    assert not cls.is_zero()


def test_realize_extension_zero_class_splits(a2):
    s1, s2 = simple(a2, "1"), simple(a2, "2")
    group = hgy.ext(s1, s2, 1)
    assert group.dimension == 1
    nonzero = hgy.realize_extension(group.cocycles[0], s1)
    assert is_isomorphic(nonzero.mid, projective(a2, "1")) is not None
    split = hgy.realize_extension(group.cocycles[0].scale(0), s1)
    assert is_isomorphic(split.mid, direct_sum(a2, [s2, s1])) is not None


def test_pushout_identity_legs(a2):
    p1 = projective(a2, "1")
    ident = identity_morphism(p1)
    p, leg_b, leg_c = hgy.pushout(ident, ident)
    assert is_isomorphic(p, p1) is not None
    assert leg_b.is_surjective()


def test_pushout_of_zero_maps_is_direct_sum(a2):
    s1, s2 = simple(a2, "1"), simple(a2, "2")
    from quiverglue.modcat import zero_module

    z = zero_module(a2)
    p, _, _ = hgy.pushout(zero_morphism(z, s1), zero_morphism(z, s2))
    assert is_isomorphic(p, direct_sum(a2, [s1, s2])) is not None


@pytest.mark.parametrize("seed", [5, 6])
def test_pushout_along_inclusion_preserves_cokernel(bound_a3, seed):
    # for random small morphisms between bundled modules: coker(leg) = coker(f)
    import numpy as np

    rng = np.random.default_rng(seed)
    mods = [projective(bound_a3, v) for v in "345"] + [simple(bound_a3, v) for v in "345"]
    for _ in range(8):
        a = mods[rng.integers(0, len(mods))]
        b = mods[rng.integers(0, len(mods))]
        c = mods[rng.integers(0, len(mods))]
        homs_ab = hom_basis(a, b)
        homs_ac = hom_basis(a, c)
        if not homs_ab or not homs_ac:
            continue
        f = homs_ab[int(rng.integers(0, len(homs_ab)))]
        g = homs_ac[int(rng.integers(0, len(homs_ac)))]
        p, leg_b, leg_c = hgy.pushout(f, g)
        coker_f, _ = cokernel(f)
        coker_leg, _ = cokernel(leg_c)
        assert coker_f.total_dim == coker_leg.total_dim
        assert is_isomorphic(coker_f, coker_leg) is not None


def test_pullback_dual_of_pushout(a2):
    p1, s1 = projective(a2, "1"), simple(a2, "1")
    (proj,) = hom_basis(p1, s1)
    pb, leg_b, leg_c = hgy.pullback(proj, proj)
    # pullback of a surjection against itself has total dim = dim p1 + dim ker
    assert pb.total_dim == p1.total_dim + 1
    assert proj.compose(leg_b).to_vector().tolist() == proj.compose(leg_c).to_vector().tolist()


def test_pd_id_gldim(a2, bound_a3):
    assert hgy.pd(projective(bound_a3, "4")) == 0
    assert hgy.pd(simple(bound_a3, "3")) == 2
    assert hgy.global_dimension(bound_a3) == 2
    assert hgy.global_dimension(a2) == 1
    assert hgy.injdim(simple(bound_a3, "5")) == 2
    assert hgy.injdim(simple(a2, "1")) == 0
    # cap boundary: pd S(3) = id S(5) = 2 is reported at cap 2, not at cap 1
    assert hgy.pd(simple(bound_a3, "3"), cap=2) == 2
    assert hgy.pd(simple(bound_a3, "3"), cap=1) is None
    assert hgy.injdim(simple(bound_a3, "5"), cap=2) == 2
    assert hgy.injdim(simple(bound_a3, "5"), cap=1) is None


def test_pd_cap_returns_none():
    from quiverglue import PrimeField, Quiver, build_algebra, relation
    from quiverglue.modcat import simple as simple_mod

    quiver = Quiver(["1"], [("l", "1", "1")])
    algebra = build_algebra(quiver, [relation(quiver, [(1, ["l", "l"])])], field=PrimeField(101))
    # the self-loop algebra has infinite global dimension; the cap reports None
    assert hgy.pd(simple_mod(algebra, "1"), cap=6) is None
    assert hgy.global_dimension(algebra, cap=4) is None
    # a resolution far past the interpreter's recursion limit: the splice walks its syzygies, it does not recurse
    s = QModule(algebra, {"1": 1}, {})
    res = hgy.projective_resolution(s, 3 * sys.getrecursionlimit())
    assert hgy.pd(s, cap=3 * sys.getrecursionlimit()) is None
    omega = res.syzygies[0][0]  # the simple module again, shared per presentation from here on
    assert all(syz is omega and term is res.terms[1] for (syz, _), term in zip(res.syzygies[1:], res.terms[1:]))


def test_long_exact_sequence_euler_check(bound_a3):
    # 0 -> S(4) -> P(3) -> S(3) -> 0 against each bundled test object:
    # alternating sum of hom/ext dims vanishes when pd is finite
    s3, s4 = simple(bound_a3, "3"), simple(bound_a3, "4")
    p3 = projective(bound_a3, "3")
    for t in [s3, s4, p3, projective(bound_a3, "4"), simple(bound_a3, "5")]:
        def euler(x):
            from quiverglue.modcat import hom_dim

            total = hom_dim(t, x)
            sign = -1
            for i in range(1, 5):
                total += sign * hgy.ext(t, x, i).dimension
                sign = -sign
            return total

        assert euler(s4) + euler(s3) == euler(p3)


def test_injective_resolution_dual_route(bound_a3):
    s5 = simple(bound_a3, "5")
    res = hgy.injective_resolution(s5, 3)
    assert res.kind == "injective"
    assert res.augmentation.source is s5
    assert hgy.injective_envelope(s5).source is s5
    assert [t.dim_vector() for t in res.terms[:3]] == [(0, 1, 1), (1, 1, 0), (1, 0, 0)]
    assert res.augmentation.is_injective()
    assert res.differentials[0].compose(res.augmentation).is_zero()
    assert res.terms[3].is_zero()


def test_ext_duality_specific_pair(bound_a3):
    s3, s4 = simple(bound_a3, "3"), simple(bound_a3, "4")
    assert hgy.ext(s3, s4, 1).dimension == hgy.ext(dualize(s4), dualize(s3), 1).dimension == 1


def test_resolution_minimality_image_in_radical(bound_a3):
    res = hgy.projective_resolution(simple(bound_a3, "3"), 2)
    field = bound_a3.field
    for k, diff in enumerate(res.differentials):
        target = res.terms[k]
        _, rad_incl = radical_submodule(target)
        for v in target.dims:
            stacked = field.rank(rad_incl.blocks[v])
            joined = field.rank(np.hstack([rad_incl.blocks[v], diff.blocks[v]]))
            assert joined == stacked  # differential image inside the radical


def test_minimal_resolution_terms(bound_a3):
    res = hgy.projective_resolution(simple(bound_a3, "3"), 3)
    dims = [term.dim_vector() for term in res.terms]
    assert dims[0] == (1, 1, 0)  # P(3)
    assert dims[1] == (0, 1, 1)  # P(4)
    assert dims[2] == (0, 0, 1)  # P(5)
    assert res.terms[3].is_zero()
    # consecutive composites vanish
    assert res.augmentation.compose(res.differentials[0]).is_zero()
    assert res.differentials[0].compose(res.differentials[1]).is_zero()


def test_resolution_generators_name_the_projective_summands(workspace, bound_a3):
    for m in [*workspace.universe_b.modules(), simple(bound_a3, "3")]:
        algebra = m.algebra
        res = hgy.projective_resolution(m, 3)
        assert len(res.generators) == len(res.terms)
        for term, gens in zip(res.terms, res.generators):
            assert list(gens) == sorted(gens, key=algebra.quiver.vertices.index)
            assert term.dims == direct_sum(algebra, [projective(algebra, v) for v in gens]).dims
            # Yoneda: Hom(P(v), m) = m_v
            assert hom_dim(term, m) == sum(m.dims[v] for v in gens)
        inj = hgy.injective_resolution(dualize(m), 3)
        assert inj.generators == res.generators


def euler_form(quiver, m, n):
    """<dim m, dim n> = sum_v m_v n_v - sum_(a: u -> w) m_u n_w."""
    return sum(m.dims[v] * n.dims[v] for v in quiver.vertices) - sum(
        m.dims[a.source] * n.dims[a.target] for a in quiver.arrows
    )


def assert_euler_form(modules):
    # hereditary: dim Hom - dim Ext^1 is the Euler form, and Ext^2 vanishes (Ringel 1976)
    for m in modules:
        quiver = m.algebra.quiver
        for n in modules:
            ext1 = hgy.ext(m, n, 1).dimension
            assert hom_dim(m, n) - ext1 == euler_form(quiver, m, n), (m, n)
            assert hgy.ext(m, n, 2).dimension == 0


def test_euler_form_on_random_kronecker_modules(kronecker_modules):
    assert_euler_form(kronecker_modules)


def test_euler_form_on_the_a7_interval_universe(a7_intervals):
    assert_euler_form(a7_intervals)


def interval_sum(algebra, parts, rng):
    """The sum of intervals [i, j] (0-based positions along the line) in a random basis per vertex."""
    field = algebra.field
    vertices = algebra.quiver.vertices
    dims = {v: sum(i <= k <= j for i, j in parts) for k, v in enumerate(vertices)}
    change = {}
    for v in vertices:
        g = None
        while g is None or field.inverse(g) is None:
            g = field.mat(rng.integers(0, field.p, size=(dims[v], dims[v])))
        change[v] = g
    position = {v: k for k, v in enumerate(vertices)}
    maps = {}
    for a in algebra.quiver.arrows:
        s, t = position[a.source], position[a.target]
        std = field.zeros(dims[a.target], dims[a.source])
        row = col = 0
        for i, j in parts:
            at_s, at_t = i <= s <= j, i <= t <= j
            if at_s and at_t:
                std[row, col] = 1
            row, col = row + at_t, col + at_s
        maps[a.name] = field.matmul(field.matmul(change[a.target], std), field.inverse(change[a.source]))
    return QModule(algebra, dims, maps)


@st.composite
def oriented_interval_sums(draw):
    """Two sums of two intervals in random bases over A_n (n <= 7) with a random orientation."""
    n = draw(st.integers(2, 7))
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = [
        (f"a{k}", *((v, w) if draw(st.booleans()) else (w, v))) for k, (v, w) in enumerate(zip(vertices, vertices[1:]))
    ]
    algebra = build_algebra(Quiver(vertices, arrows), [], field=PrimeField(101), name=f"A{n}")
    intervals = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [interval_sum(algebra, [draw(intervals), draw(intervals)], rng) for _ in range(2)]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(oriented_interval_sums())
def test_euler_form_on_random_orientations_and_bases(modules):
    assert_euler_form(modules)


def test_resolution_indices_follow_the_degrees(workspace, bound_a3):
    # syzygies[k-1] is Omega^k inside terms[k-1]; differentials[k-1] is d_k: terms[k] -> terms[k-1]
    for m in [simple(bound_a3, "3"), *workspace.universe_b.modules()]:
        res = hgy.projective_resolution(m, 3)
        assert res.augmentation.source is res.terms[0] and res.augmentation.target is m
        for i in range(1, 4):
            assert hgy.syzygy(m, i) is res.syzygies[i - 1][0]
            assert res.syzygies[i - 1][1].target is res.terms[i - 1]
            assert res.differentials[i - 1].source is res.terms[i]
            assert res.differentials[i - 1].target is res.terms[i - 1]


def reference_cover(m):
    """The cover as built through the top quotient: (blocks, generators).

    Each generator is the section of the top projection that
    ``solve_matrix`` picks; the summands come with their injections.
    """
    algebra, field = m.algebra, m.algebra.field
    top, proj = top_quotient(m)
    generators = [(v, col) for v in algebra.quiver.vertices for col in range(top.dims[v])]
    cover, injections, _ = direct_sum_with_maps(algebra, [projective(algebra, v) for v, _ in generators])
    sections = {v: field.solve_matrix(proj.blocks[v], field.identity(top.dims[v])) for v in m.dims}
    blocks = {v: field.zeros(m.dims[v], cover.dims[v]) for v in m.dims}
    for inj, (v, col) in zip(injections, generators):
        for u in algebra.quiver.vertices:
            for k, bi in enumerate(algebra.basis_paths_between(v, u)):
                column = int(np.flatnonzero(inj.blocks[u][:, k])[0])
                blocks[u][:, column] = field.matmul(m.path_action(algebra.basis[bi]), sections[v][:, [col]])[:, 0]
    return blocks, tuple(v for v, _ in generators)


def test_cover_generators_are_the_top_section(workspace, a7_intervals, kronecker_modules):
    universes = (workspace.universe_a, workspace.universe_b, workspace.universe_c)
    modules = [m for u in universes for m in u.modules()] + a7_intervals + kronecker_modules
    # several generators at a vertex with a nonzero radical: the order of the lifts matters
    s2 = simple(kronecker_modules[0].algebra, "2")
    modules += [direct_sum(m.algebra, [m, s2, s2]) for m in kronecker_modules]
    for m in modules:
        for x in (m, hgy.syzygy(m, 1)):
            cover, generators = hgy._projective_cover(x)
            blocks, expected = reference_cover(x)
            assert generators == expected
            assert all(np.array_equal(cover.blocks[v], blocks[v]) for v in x.dims), x


def reference_resolution(m, length):
    """Terms, differentials and syzygies from covers and their kernels, step by step."""
    cover = hgy.projective_cover(m)
    terms, differentials, syzygies = [cover.source], [], []
    for _ in range(length):
        syz, incl = kernel(cover)
        cover = hgy.projective_cover(syz)
        syzygies.append((syz, incl))
        differentials.append(incl.compose(cover))
        terms.append(cover.source)
    return terms, differentials, syzygies


def same_map(f, g):
    return all(np.array_equal(f.blocks[v], g.blocks[v]) for v in f.blocks)


def test_extending_a_resolution_keeps_its_objects(workspace, bound_a3):
    for m in [simple(bound_a3, "3"), *workspace.universe_b.modules()]:
        m = QModule(m.algebra, m.dims, m.maps)  # a fresh object: cold resolution memo
        short = hgy.projective_resolution(m, 2)
        long = hgy.projective_resolution(m, 3)
        assert long.augmentation is short.augmentation
        for old, new in [(short.terms, long.terms), (short.differentials, long.differentials)]:
            assert all(a is b for a, b in zip(old, new))
        assert all(a is b and f is g for (a, f), (b, g) in zip(short.syzygies, long.syzygies))
        # the same as resolving a rebuilt module to length 3 at once, by kernels of covers
        terms, differentials, syzygies = reference_resolution(QModule(m.algebra, m.dims, m.maps), 3)
        assert all(a.equal_presentation(b) for a, b in zip(long.terms, terms))
        assert all(same_map(f, g) for f, g in zip(long.differentials, differentials))
        for (a, f), (b, g) in zip(long.syzygies, syzygies):
            assert a.equal_presentation(b) and same_map(f, g)


def test_no_cover_is_built_past_a_zero_syzygy(a7_intervals, monkeypatch):
    covered = []
    cover = hgy._projective_cover
    monkeypatch.setattr(hgy, "_projective_cover", lambda m: covered.append(m) or cover(m))
    # fresh intervals over a fresh algebra: cold resolution and module memos
    vertices = a7_intervals[0].algebra.quiver.vertices
    algebra = build_algebra(a7_intervals[0].algebra.quiver, [], field=PrimeField(101), name="A7")
    intervals = [QModule(algebra, dict(m.dims), dict(m.maps)) for m in a7_intervals]
    for m in intervals:
        hgy.pd(m)  # resolves to cap + 1 = 9 steps
        zeros = [syz for syz, _ in hgy.projective_resolution(m, 9).syzygies if not syz.total_dim]
        assert zeros and not any(z is x for z in zeros for x in covered)
    # each interval once, and the first syzygy [j + 1, 7] of every [i, j] with j < 7 once: the
    # six kernels are shared per presentation, and a resolution splices on its syzygy's own one
    assert all(x.total_dim for x in covered)
    assert len({id(x) for x in covered}) == len(covered) == len(intervals) + len(vertices) - 1
    resolved = memo_table(algebra, "resolution")
    assert {id(x) for x in covered} == {id(x) for x in resolved}


def test_a_resolution_splices_on_its_first_syzygys_own(bound_a3):
    s3 = QModule(bound_a3, {"3": 1}, {})  # a fresh object: cold resolution memo
    res = hgy.projective_resolution(s3, 3)
    omega, incl = res.syzygies[0]
    tail = hgy.projective_resolution(omega, 2)
    assert res.terms[1:] == tail.terms and res.generators[1:] == tail.generators
    assert res.differentials[1:] == tail.differentials and res.syzygies[1:] == tail.syzygies
    assert same_map(res.differentials[0], incl.compose(tail.augmentation))


def kronecker_algebra():
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return build_algebra(quiver, [], field=PrimeField(101), name="kronecker")


def a7_algebra():
    vertices = [str(v) for v in range(1, 8)]
    quiver = Quiver(vertices, [(f"a{v}", v, w) for v, w in zip(vertices, vertices[1:])])
    return build_algebra(quiver, [], field=PrimeField(101), name="A7")


def random_module(draw, kind, rng):
    """An A7 sum of up to three intervals in a random basis, or a Kronecker module with random maps."""
    if kind == "a7":
        intervals = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted)
        return interval_sum(a7_algebra(), draw(st.lists(intervals, min_size=1, max_size=3)), rng)
    d1, d2 = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    maps = {a: rng.integers(0, 101, size=(d2, d1)) for a in "ab"}
    return QModule(kronecker_algebra(), {"1": d1, "2": d2}, maps)


@st.composite
def modules_to_resolve(draw):
    """A module over a fresh A7 or Kronecker algebra, or the indices of one to three members of
    bundled Lambda's ``universe_b``, which the test sums over the session's workspace."""
    kind = draw(st.sampled_from(["a7", "kronecker", "lambda"]))
    if kind == "lambda":
        return tuple(draw(st.lists(st.integers(0, 14), min_size=1, max_size=3)))
    return random_module(draw, kind, np.random.default_rng(draw(st.integers(0, 2**16))))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(modules_to_resolve())
def test_spliced_resolutions_equal_the_step_by_step_one(workspace, m):
    if isinstance(m, tuple):
        members = workspace.universe_b.modules()
        total = direct_sum(workspace.universe_b.algebra, [members[i] for i in m])
        m = QModule(total.algebra, total.dims, total.maps)  # not a direct_sum object: cold memo
    res = hgy.projective_resolution(m, 4)
    terms, differentials, syzygies = reference_resolution(QModule(m.algebra, m.dims, m.maps), 4)
    # a tail resolved further before is spliced on whole, so res may run past the four steps
    assert len(res.terms) >= len(terms) and len(res.syzygies) >= len(syzygies)
    assert all(a.equal_presentation(b) for a, b in zip(res.terms, terms))
    assert all(same_map(f, g) for f, g in zip(res.differentials, differentials))
    for (a, f), (b, g) in zip(res.syzygies, syzygies):
        assert a.equal_presentation(b) and same_map(f, g)


@st.composite
def projective_sums(draw):
    """(generator vertices, target) for Hom(sum of P(v_g), N) over a fresh A7 or Kronecker algebra,
    or over bundled Lambda, whose target is given by its index into ``universe_b``."""
    kind = draw(st.sampled_from(["a7", "kronecker", "lambda"]))
    vertices = {"a7": [str(v) for v in range(1, 8)], "kronecker": ["1", "2"], "lambda": ["1", "2", "3", "4", "5"]}
    generators = draw(st.lists(st.sampled_from(vertices[kind]), min_size=1, max_size=4).map(sorted))
    if kind == "lambda":
        return generators, draw(st.integers(0, 14))
    return generators, random_module(draw, kind, np.random.default_rng(draw(st.integers(0, 2**16))))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(projective_sums())
def test_yoneda_rows_span_the_arrow_system_kernel(workspace, case):
    generators, target = case
    if isinstance(target, int):
        target = workspace.universe_b.modules()[target]
    algebra, field = target.algebra, target.algebra.field
    parts = [projective(algebra, v) for v in generators]
    source = parts[0] if len(parts) == 1 else direct_sum(algebra, parts)
    assert modcat._projective_generators(source) == tuple(generators)
    hom = modcat._hom_basis_compute(source, target)
    reference = arrow_kernel(source, target)
    # dim Hom(P, N) = sum of dim N_(v_g), and the two bases span one space
    assert len(hom) == len(reference) == sum(target.dims[v] for v in generators)
    assert hom.rows.shape == reference.shape
    assert field.rank(hom.rows) == field.rank(np.vstack([hom.rows, reference])) == len(reference)
    for f in hom:
        QMorphism(f.source, f.target, f.blocks)  # each basis map passes the square checks


def test_ext_reads_hom_out_of_each_syzygy_off_the_arrow_system(monkeypatch):
    # Ext's syzygy route reads Hom(Omega^i M, N) off the square equations, so it shares no
    # Yoneda matrix with the complex route; Hom out of a resolution term is the Yoneda one
    arrow_pairs = []
    hom_kernel = modcat._hom_kernel
    monkeypatch.setattr(modcat, "_hom_kernel", lambda s, t, *rest: arrow_pairs.append((s, t)) or hom_kernel(s, t, *rest))
    members = load_workspace().universe_b.modules()  # a fresh algebra: cold hom memo
    checked = 0
    for m in members:
        for n in members:
            for i in (1, 2):
                hgy.ext(m, n, i)
                res = hgy.projective_resolution(m, i)
                syz = res.syzygies[i - 1][0]
                if any(syz.dims[v] and n.dims[v] for v in syz.dims):
                    assert any(s is syz and t is n for s, t in arrow_pairs)
                    checked += 1
    assert checked > 20
    assert not any(modcat._projective_generators(s) is not None for s, _ in arrow_pairs)


def assert_resolution_invariants(m, length=3):
    """d_k d_(k+1) = 0, exactness at each vertex, and images inside the radical."""
    field = m.algebra.field
    res = hgy.projective_resolution(m, length)
    maps = [res.augmentation, *res.differentials]
    assert res.augmentation.is_surjective()
    for k in range(length):
        assert maps[k].compose(maps[k + 1]).is_zero()
        # ker d_k = im d_(k+1) at every vertex of P_k
        for v, d in res.terms[k].dims.items():
            assert field.rank(maps[k].blocks[v]) + field.rank(maps[k + 1].blocks[v]) == d
    for k, diff in enumerate(res.differentials):
        _, rad = radical_submodule(res.terms[k])
        for v in rad.blocks:
            assert field.rank(np.hstack([rad.blocks[v], diff.blocks[v]])) == field.rank(rad.blocks[v])


def test_resolution_invariants_on_hereditary_algebras(a7_intervals, kronecker_modules):
    for m in a7_intervals + [m for m in kronecker_modules if m.total_dim]:
        assert_resolution_invariants(m)
        assert hgy.pd(m) <= 1
    # P(v) is the interval [v, 7], the last one listed for each v
    last = {m.dim_vector().index(1): m for m in a7_intervals}
    for m in a7_intervals:
        assert (hgy.pd(m) == 0) == (m is last[m.dim_vector().index(1)])
