"""Glued cotorsion pairs and glued (co)tilting modules over a recollement.

The glued classes on the middle category are cut out by the restriction
functors, the left class is recovered as the Ext-perpendicular of the
right one, and every step is verified exhaustively over the finite
universe: orthogonality in degrees one and two, both approximation
sequences for every member, and the containment of the perpendicular
class in the add-closure of the functor-defined candidate class.

The glued tilting module is assembled constructively as the image of
the a-side tilting module plus one pushout module per indecomposable
c-side summand; the result is cross-checked against the brute-force
intersection of the glued classes, so the constructive route and the
universe route must agree for the call to succeed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import homology as hgy
from .approx import (
    ApproxSequence,
    in_add,
    special_precover_universe,
    special_preenvelope_tilting,
    special_preenvelope_universe,
)
from .errors import ExactnessMissing, PreconditionFailed, UniverseInconsistent
from .modcat import (
    DEFAULT_SEED,
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
    _pair_from_verified,
    _perp_in_universe,
    verify_cotilting,
    verify_pair_axioms,
    verify_tilting,
)


@dataclass(frozen=True)
class GluedPair:
    """The glued cotorsion pair on the middle category, fully verified."""

    recollement: Recollement
    pair_a: CotorsionPairData
    pair_c: CotorsionPairData
    universe: Universe
    u2_names: tuple[str, ...]
    v2_names: tuple[str, ...]
    t2_names: tuple[str, ...]
    hereditary: bool
    checks: dict

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
    seed: int = DEFAULT_SEED,
    verify_approximations: bool = True,
) -> GluedPair:
    """Compute and certify the glued pair from pairs on the outer categories."""
    _require_exactness(rec)
    if pair_a.universe.algebra is not rec.a_algebra or pair_c.universe.algebra is not rec.c_algebra:
        raise PreconditionFailed("outer pairs must live over the recollement's outer algebras")

    v1_mods = pair_a.v_modules()
    v3_mods = pair_c.v_modules()
    u1_mods = pair_a.u_modules()
    u3_mods = pair_c.u_modules()

    v2_names = [
        name
        for name, b in universe_b.members
        if in_add(rec.i_shriek(b), v1_mods, seed=seed)
        and in_add(rec.j_upper_star(b), v3_mods, seed=seed)
    ]
    v2_mods = [universe_b.module(n) for n in v2_names]
    u2_names = _perp_in_universe(universe_b, v2_mods, range(1, 2), left=True)
    u2_mods = [universe_b.module(n) for n in u2_names]

    # the perpendicular class must land inside the functor-defined candidates
    candidate_names = {
        name
        for name, b in universe_b.members
        if in_add(rec.i_upper_star(b), u1_mods, seed=seed)
        and in_add(rec.j_upper_star(b), u3_mods, seed=seed)
    }
    stray = [n for n in u2_names if n not in candidate_names]
    if stray:
        raise UniverseInconsistent(f"perpendicular class escapes the candidate class: {stray}")

    hereditary_inputs = pair_a.hereditary and pair_c.hereditary
    checks = verify_pair_axioms(universe_b, u2_names, v2_names, check_hereditary=hereditary_inputs)
    if not checks["v_is_u_perp"] or not checks["u_is_perp_v"] or not checks["ext1_vanishes"]:
        raise UniverseInconsistent(f"glued classes fail the pair identities: {checks}")
    if not checks["projectives_in_u"] or not checks["injectives_in_v"]:
        raise UniverseInconsistent(f"projective/injective containment fails: {checks}")
    if hereditary_inputs and not checks["ext2_vanishes"]:
        raise UniverseInconsistent("hereditary inputs glued to a non-hereditary pair")

    if verify_approximations:
        for name, x in universe_b.members:
            special_precover_universe(x, u2_mods, v2_mods, seed=seed)
            special_preenvelope_universe(x, u2_mods, v2_mods, seed=seed)
        checks["approximations"] = True

    v2_set = set(v2_names)
    t2_names = tuple(n for n in u2_names if n in v2_set)
    return GluedPair(
        recollement=rec,
        pair_a=pair_a,
        pair_c=pair_c,
        universe=universe_b,
        u2_names=tuple(u2_names),
        v2_names=tuple(v2_names),
        t2_names=t2_names,
        hereditary=hereditary_inputs,
        checks=checks,
    )


@dataclass(frozen=True)
class KConstruction:
    """The pushout module of one c-side summand with its two exact rows."""

    k: QModule
    row_upper: hgy.ShortExactSequence  # 0 -> j_! T'' -> K -> i_* U -> 0
    row_left: hgy.ShortExactSequence  # 0 -> i_* V -> K -> j_* T'' -> 0
    preenvelope: ApproxSequence
    member_names: Counter | None


def k_construction(
    rec: Recollement,
    t3_summand: QModule,
    pair_a: CotorsionPairData,
    glued: GluedPair | None = None,
    pair_c: CotorsionPairData | None = None,
    seed: int = DEFAULT_SEED,
) -> KConstruction:
    """Build K for one indecomposable c-side summand via the pushout square.

    Takes the special preenvelope of i^! j_! T'' in the a-side tilting
    pair, pushes j_! T'' out along its image, and certifies that the
    result lands in both glued classes when a glued pair is supplied.
    When the c-side pair is supplied, membership of the summand in its
    core is checked up front.
    """
    if pair_a.kind[0] != "tilting":
        raise PreconditionFailed("k construction needs an a-side tilting cotorsion pair")
    _, t1, n1 = pair_a.kind
    if t3_summand.algebra is not rec.c_algebra:
        raise PreconditionFailed("the summand must live over the c-side algebra")
    if pair_c is not None:
        core = set(pair_c.u_names) & set(pair_c.v_names)
        name = pair_c.universe.find_member(t3_summand)
        if name is None or name not in core:
            raise PreconditionFailed(
                f"summand {name or t3_summand.dim_vector()} is not in the c-side core"
            )

    jt = rec.j_lower_shriek(t3_summand)
    z = rec.i_shriek(jt)
    env = special_preenvelope_tilting(z, t1, n1, seed=seed)

    theta = rec.unit_i(jt)  # i_* i^! j_! T'' -> j_! T''
    incl_i = rec.i_star_mor(env.seq.incl)  # i_* z -> i_* V
    k_mod, leg_jt, leg_v = hgy.pushout(theta, incl_i)

    proj_to_u = hgy._induced_from_pushout(
        k_mod,
        leg_jt,
        leg_v,
        zero_morphism(jt, rec.i_star(env.seq.quot)),
        rec.i_star_mor(env.seq.proj),
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

    member_names = None
    if glued is not None:
        member_names = glued.universe.decompose_names(k_mod, seed=seed)
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


@dataclass(frozen=True)
class GlueResult:
    """Outcome of gluing: the middle module, its degree, and all checks."""

    t2: QModule
    n2: int
    glued: GluedPair
    decomposition: Counter
    basic_names: frozenset
    checks: dict


def glue_tilting(
    rec: Recollement,
    t1: QModule,
    n1: int,
    t3: QModule,
    n3: int,
    universe_a: Universe,
    universe_c: Universe,
    universe_b: Universe,
    seed: int = DEFAULT_SEED,
    verify_approximations: bool = True,
) -> GlueResult:
    """Glue tilting modules: T2 = i_* T1 (+) K over the c-side summands."""
    _require_exactness(rec)
    verify_tilting(t1, n1, seed=seed).require()
    verify_tilting(t3, n3, seed=seed).require()
    pair_a = _pair_from_verified(t1, n1, universe_a, seed, "tilting")
    pair_c = _pair_from_verified(t3, n3, universe_c, seed, "tilting")
    glued = glued_classes(
        rec, pair_a, pair_c, universe_b, seed=seed, verify_approximations=verify_approximations
    )

    parts = [rec.i_star(t1)]
    for rep, mult in decompose(t3, seed):
        kc = k_construction(rec, rep, pair_a, glued=glued, seed=seed)
        parts.extend([kc.k] * mult)
    t2 = direct_sum(rec.total, parts)

    bound = max(n1, n3)
    n2 = _least_degree(verify_tilting, t2, bound, seed)
    if n2 is None:
        raise UniverseInconsistent(f"glued module is not n-tilting for any n <= {bound}")

    decomposition = universe_b.decompose_names(t2, seed=seed)
    basic = frozenset(decomposition)
    if basic != frozenset(glued.t2_names):
        raise UniverseInconsistent(
            f"constructive class add({sorted(basic)}) differs from u2&v2 {sorted(glued.t2_names)}"
        )

    checks = {"pd_t2_within_bound": hgy.pd(t2, cap=bound) is not None}
    gl_a = hgy.global_dimension(rec.a_algebra)
    if gl_a is not None:
        cap_u = max(n1 + 1, n3)
        for name in glued.u2_names:
            if hgy.pd(universe_b.module(name), cap=cap_u) is None:
                raise UniverseInconsistent(f"pd bound max(n1+1, n3) fails at {name}")
        checks["pd_u2_within_bound"] = True
    if rec.exactness["i_upper_star"]:
        direct_names = universe_b.decompose_names(
            direct_sum(rec.total, [rec.i_star(t1), rec.j_lower_shriek(t3)]), seed=seed
        )
        if frozenset(direct_names) != basic:
            raise UniverseInconsistent("exact-i^* shortcut disagrees with the pushout route")
        checks["istar_jshriek_shortcut"] = True
    else:
        checks["istar_jshriek_shortcut"] = None  # certificate false: check gated off

    if not checks["pd_t2_within_bound"]:
        raise UniverseInconsistent(f"pd of the glued module exceeds max(n1, n3) = {bound}")
    return GlueResult(
        t2=t2, n2=n2, glued=glued, decomposition=decomposition, basic_names=basic, checks=checks
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
    seed: int = DEFAULT_SEED,
    verify_approximations: bool = True,
) -> GlueResult:
    """Glue cotilting modules through the universe route."""
    _require_exactness(rec)
    verify_cotilting(t1, n1, seed=seed).require()
    verify_cotilting(t3, n3, seed=seed).require()
    pair_a = _pair_from_verified(t1, n1, universe_a, seed, "cotilting")
    pair_c = _pair_from_verified(t3, n3, universe_c, seed, "cotilting")
    glued = glued_classes(
        rec, pair_a, pair_c, universe_b, seed=seed, verify_approximations=verify_approximations
    )

    t2 = direct_sum(rec.total, [universe_b.module(n) for n in glued.t2_names])
    bound = max(n1 + 1, n3)
    n2 = _least_degree(verify_cotilting, t2, bound, seed)
    if n2 is None:
        raise UniverseInconsistent(f"glued module is not n-cotilting for any n <= {bound}")

    for name in glued.v2_names:
        if hgy.injdim(universe_b.module(name), cap=bound) is None:
            raise UniverseInconsistent(f"id bound max(n1+1, n3) fails at {name}")
    checks = {"id_v2_within_bound": True}
    decomposition = Counter({name: 1 for name in glued.t2_names})
    return GlueResult(
        t2=t2, n2=n2, glued=glued, decomposition=decomposition,
        basic_names=frozenset(glued.t2_names), checks=checks,
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
    seed: int = DEFAULT_SEED,
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
    cotilt = glue_cotilting(
        rec, t1, n1, t3, n3, universe_a, universe_c, universe_b,
        seed=seed, verify_approximations=False,
    )
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
        seed=seed,
        verify_approximations=False,
    )
    # universes share member names, so the basic sets compare directly
    return cotilt.basic_names, tilt.basic_names
