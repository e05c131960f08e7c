"""Glued cotorsion pairs and glued (co)tilting modules over a recollement.

The glued classes on the middle category are cut out by the restriction
functors, the left class is recovered as the Ext-perpendicular of the
right one, and every step is verified exhaustively over the finite
universe, which is first certified to hold pairwise non-isomorphic
indecomposables: orthogonality in degrees one and two, a special
precover of every member outside the left class and a special
preenvelope of every member outside the right class (a class member is
its own approximation), and the containment of the perpendicular class
in the add-closure of the functor-defined candidate class.

The glued tilting module is assembled constructively as the image of
the a-side tilting module plus one pushout module per indecomposable
c-side summand; the result is cross-checked against the brute-force
intersection of the glued classes, so the constructive route and the
universe route must agree for the call to succeed.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import homology as hgy
from .approx import (
    in_add,
    special_precover_universe,
    special_preenvelope_tilting,
    special_preenvelope_universe,
)
from .errors import ExactnessMissing, PreconditionFailed, UniverseInconsistent
from .modcat import (
    QModule,
    QMorphism,
    Universe,
    decompose,
    direct_sum,
    dualize,
    transport_module,
    zero_morphism,
)
from .recollement import Recollement
from .tilting import (
    CotorsionPairData,
    _least_degree,
    _perp_in_universe,
    cotorsion_pair_from_cotilting,
    cotorsion_pair_from_tilting,
    verify_cotilting,
    verify_pair_axioms,
    verify_tilting,
)


class GluedPair(NamedTuple):
    """The glued cotorsion pair on the middle category, fully verified."""

    recollement: Recollement
    pair_a: CotorsionPairData
    pair_c: CotorsionPairData
    universe: Universe
    u2_names: tuple[str, ...]
    v2_names: tuple[str, ...]
    t2_names: tuple[str, ...]

    def u2_modules(self) -> list[QModule]:
        return [self.universe.module(n) for n in self.u2_names]

    def v2_modules(self) -> list[QModule]:
        return [self.universe.module(n) for n in self.v2_names]


def _require_exactness(rec: Recollement) -> None:
    if not (rec.exactness["i_shriek"] and rec.exactness["j_lower_shriek"]):
        raise ExactnessMissing(
            f"gluing requires exact i^! and j_!; certificates: {rec.exactness}"
        )


def glued_classes(
    rec: Recollement,
    pair_a: CotorsionPairData,
    pair_c: CotorsionPairData,
    universe_b: Universe,
) -> GluedPair:
    """Compute and certify the glued pair from pairs on the outer categories.

    ``universe_b.validate()`` runs first, so a universe with two isomorphic
    members raises ``UniverseInconsistent`` naming both.  Completeness of
    the pair (U2, V2) is always certified member by member: a member
    outside U2 gets a special U2-precover and a member outside V2 a
    special V2-preenvelope, each built from a minimal approximation and
    re-checked.  A member of a class is its own approximation, with zero
    as the other term.
    """
    _require_exactness(rec)
    if pair_a.universe.algebra is not rec.a_algebra or pair_c.universe.algebra is not rec.c_algebra:
        raise PreconditionFailed("outer pairs must live over the recollement's outer algebras")
    universe_b.validate()

    v1_mods = pair_a.v_modules()
    v3_mods = pair_c.v_modules()
    u1_mods = pair_a.u_modules()
    u3_mods = pair_c.u_modules()

    v2_names = [
        name
        for name, b in universe_b.members
        if in_add(rec.i_shriek(b), v1_mods)
        and in_add(rec.j_upper_star(b), v3_mods)
    ]
    v2_mods = [universe_b.module(n) for n in v2_names]
    u2_names = _perp_in_universe(universe_b, v2_mods, range(1, 2), left=True)
    u2_mods = [universe_b.module(n) for n in u2_names]

    # the perpendicular class must land inside the functor-defined candidates
    candidate_names = {
        name
        for name, b in universe_b.members
        if in_add(rec.i_upper_star(b), u1_mods)
        and in_add(rec.j_upper_star(b), u3_mods)
    }
    stray = [n for n in u2_names if n not in candidate_names]
    if stray:
        raise UniverseInconsistent(f"perpendicular class escapes the candidate class: {stray}")

    verify_pair_axioms(universe_b, u2_names, v2_names)

    u2_set, v2_set = set(u2_names), set(v2_names)
    for name, x in universe_b.members:
        # a member of U2 is its own special precover, 0 -> 0 -> X -> X -> 0,
        # and a member of V2 its own special preenvelope, 0 -> X -> X -> 0 -> 0:
        # 0 lies in both classes, so these sequences are certified by construction
        if name not in u2_set:
            special_precover_universe(x, u2_mods, v2_mods)
        if name not in v2_set:
            special_preenvelope_universe(x, u2_mods, v2_mods)

    t2_names = tuple(n for n in u2_names if n in v2_set)
    return GluedPair(
        recollement=rec,
        pair_a=pair_a,
        pair_c=pair_c,
        universe=universe_b,
        u2_names=tuple(u2_names),
        v2_names=tuple(v2_names),
        t2_names=t2_names,
    )


class KConstruction(NamedTuple):
    """The pushout module of one c-side summand with its two exact rows."""

    k: QModule
    row_upper: hgy.ShortExactSequence  # 0 -> j_! T'' -> K -> i_* U -> 0
    row_left: hgy.ShortExactSequence  # 0 -> i_* V -> K -> j_* T'' -> 0
    preenvelope: hgy.ShortExactSequence  # 0 -> i^! j_! T'' -> V -> U -> 0
    member_names: Counter


def k_construction(glued: GluedPair, t3_summand: QModule) -> KConstruction:
    """Build K for one indecomposable c-side summand via the pushout square.

    Takes the special preenvelope of i^! j_! T'' in the a-side tilting
    pair of ``glued``, pushes j_! T'' out along its image, and certifies
    that the result lands in the glued core.
    """
    rec, pair_a = glued.recollement, glued.pair_a
    if pair_a.kind[0] != "tilting":
        raise PreconditionFailed("k construction needs an a-side tilting cotorsion pair")
    _, t1, n1 = pair_a.kind
    if t3_summand.algebra is not rec.c_algebra:
        raise PreconditionFailed("the summand must live over the c-side algebra")

    jt = rec.j_lower_shriek(t3_summand)
    z = rec.i_shriek(jt)
    env = special_preenvelope_tilting(z, t1, n1)

    theta = rec.unit_i(jt)  # i_* i^! j_! T'' -> j_! T''
    incl_i = rec.i_star_mor(env.incl)  # i_* z -> i_* V
    k_mod, leg_jt, leg_v = hgy.pushout(theta, incl_i)

    proj_to_u = hgy._induced_from_pushout(
        k_mod,
        leg_jt,
        leg_v,
        zero_morphism(jt, rec.i_star(env.quot)),
        rec.i_star_mor(env.proj),
    )
    row_upper = hgy.ShortExactSequence(incl=leg_jt, proj=proj_to_u)
    row_upper.verify()

    to_jstar = QMorphism(
        jt,
        rec.j_star(t3_summand),
        {v: rec.total.field.identity(t3_summand.dims[v]) for v in rec.c_vertices},
    )
    proj_to_jstar = hgy._induced_from_pushout(
        k_mod,
        leg_jt,
        leg_v,
        to_jstar,
        zero_morphism(incl_i.target, rec.j_star(t3_summand)),
    )
    row_left = hgy.ShortExactSequence(incl=leg_v, proj=proj_to_jstar)
    row_left.verify()

    member_names = glued.universe.decompose_names(k_mod)
    outside = [n for n in member_names if n not in set(glued.t2_names)]
    if outside:
        raise UniverseInconsistent(f"K has summands outside the glued core: {outside}")
    return KConstruction(
        k=k_mod,
        row_upper=row_upper,
        row_left=row_left,
        preenvelope=env,
        member_names=member_names,
    )


class GlueResult(NamedTuple):
    """Outcome of gluing: the middle module, its degree and its decomposition."""

    t2: QModule
    n2: int
    glued: GluedPair
    decomposition: Counter
    basic_names: frozenset


def glue_tilting(
    rec: Recollement,
    t1: QModule,
    n1: int,
    t3: QModule,
    n3: int,
    universe_a: Universe,
    universe_c: Universe,
    universe_b: Universe,
) -> GlueResult:
    """Glue tilting modules: T2 = i_* T1 (+) K over the c-side summands."""
    _require_exactness(rec)
    pair_a = cotorsion_pair_from_tilting(t1, n1, universe_a)
    pair_c = cotorsion_pair_from_tilting(t3, n3, universe_c)
    glued = glued_classes(rec, pair_a, pair_c, universe_b)

    parts = [rec.i_star(t1)]
    for rep, mult in decompose(t3):
        kc = k_construction(glued, rep)
        parts.extend([kc.k] * mult)
    t2 = direct_sum(rec.total, parts)

    bound = max(n1, n3)
    # axiom (P1) of verify_tilting(t2, n2) certifies pd T2 <= n2 <= bound
    n2 = _least_degree(verify_tilting, t2, bound)
    if n2 is None:
        raise UniverseInconsistent(f"glued module is not n-tilting for any n <= {bound}")

    decomposition = universe_b.decompose_names(t2)
    basic = frozenset(decomposition)
    if basic != frozenset(glued.t2_names):
        raise UniverseInconsistent(
            f"constructive class add({sorted(basic)}) differs from u2&v2 {sorted(glued.t2_names)}"
        )

    if hgy.global_dimension(rec.a_algebra) is not None:
        cap_u = max(n1 + 1, n3)
        for name in glued.u2_names:
            if hgy.pd(universe_b.module(name), cap=cap_u) is None:
                raise UniverseInconsistent(f"pd bound max(n1+1, n3) fails at {name}")
    # the i_*/j_! shortcut holds only for an exact i^*; otherwise it is not checked
    if rec.exactness["i_upper_star"]:
        direct_names = universe_b.decompose_names(
            direct_sum(rec.total, [rec.i_star(t1), rec.j_lower_shriek(t3)])
        )
        if frozenset(direct_names) != basic:
            raise UniverseInconsistent("exact-i^* shortcut disagrees with the pushout route")
    return GlueResult(
        t2=t2, n2=n2, glued=glued, decomposition=decomposition, basic_names=basic
    )


def glue_cotilting(
    rec: Recollement,
    t1: QModule,
    n1: int,
    t3: QModule,
    n3: int,
    universe_a: Universe,
    universe_c: Universe,
    universe_b: Universe,
) -> GlueResult:
    """Glue cotilting modules through the universe route."""
    _require_exactness(rec)
    pair_a = cotorsion_pair_from_cotilting(t1, n1, universe_a)
    pair_c = cotorsion_pair_from_cotilting(t3, n3, universe_c)
    glued = glued_classes(rec, pair_a, pair_c, universe_b)

    t2 = direct_sum(rec.total, [universe_b.module(n) for n in glued.t2_names])
    bound = max(n1 + 1, n3)
    n2 = _least_degree(verify_cotilting, t2, bound)
    if n2 is None:
        raise UniverseInconsistent(f"glued module is not n-cotilting for any n <= {bound}")

    for name in glued.v2_names:
        if hgy.injdim(universe_b.module(name), cap=bound) is None:
            raise UniverseInconsistent(f"id bound max(n1+1, n3) fails at {name}")
    decomposition = Counter({name: 1 for name in glued.t2_names})
    return GlueResult(
        t2=t2, n2=n2, glued=glued, decomposition=decomposition,
        basic_names=frozenset(glued.t2_names),
    )


def opposite_recollement(rec: Recollement) -> Recollement:
    """The recollement of the opposite algebra, closed on the c-block.

    The sides swap roles: the c-vertices of ``rec`` become the closed
    side.  This is not the image of ``rec`` under D = Hom_k(-, k), which
    would keep the a-vertices closed; over the opposite algebra arrows
    run from them into the c-block, so that partition is not triangular.
    """
    return Recollement(rec.total.opposite(), list(rec.c_vertices))


def dual_glue_cross_check(
    rec: Recollement,
    t1: QModule,
    n1: int,
    t3: QModule,
    n3: int,
    universe_a: Universe,
    universe_c: Universe,
    universe_b: Universe,
) -> tuple[frozenset, frozenset]:
    """Compare glue_cotilting with the dual of glue_tilting on the opposite.

    Returns two basic summand-name sets.  The first is the core of
    ``glue_cotilting``: V2 is cut out by i^! and j^*, and the left class
    is perp-V2.  The second is the mirror recipe on i^! and j^*,
    transported through D: the left class is
    L = {B : i^!B in add perp-T1, j^*B in add perp-T3} and the right
    class is its Ext^1-perpendicular.  The opposite recollement swaps the
    outer categories, so the dual of the c-side cotilting module becomes
    its a-side tilting input.  The two sets are equal only when perp-V2
    equals L.
    """
    cotilt = glue_cotilting(rec, t1, n1, t3, n3, universe_a, universe_c, universe_b)
    op_rec = opposite_recollement(rec)
    # duality swaps the outer categories; transport moves the dual
    # modules onto the op-recollement's own corner-algebra objects
    tilt = glue_tilting(
        op_rec,
        transport_module(dualize(t3), op_rec.a_algebra),
        n3,
        transport_module(dualize(t1), op_rec.c_algebra),
        n1,
        universe_c.dualized().transported(op_rec.a_algebra),
        universe_a.dualized().transported(op_rec.c_algebra),
        universe_b.dualized().transported(op_rec.total),
    )
    # universes share member names, so the basic sets compare directly
    return cotilt.basic_names, tilt.basic_names
