"""Verification of n-tilting / n-cotilting modules and cotorsion pairs.

A tilting check runs the three axioms literally: a projective-dimension
bound, self-orthogonality through degree n, and add(T)-coresolutions of
every indecomposable projective found by iterated minimal left
approximations.  The cotilting check runs the mirror axioms on the
injective side and then the tilting check of the dual module over the
opposite algebra; the two verdicts must agree.  Only (C2) is independent
of the dual route: (C1) is pd of the dual, and (C3) tests the same dual
objects D I(v) = P_op(v) as the dual route's (P3).  What is cross-checked
is Ext^i(T, T) over the algebra against Ext^i(DT, DT) over its opposite.

Cotorsion pairs are always relative to an explicit finite universe.
Disagreement between the orthogonality route and the coresolution route
raises UniverseInconsistent rather than picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homology as hgy
from .approx import CoresolutionWitness, in_T_covee, in_T_wedge
from .errors import NotTilting, PreconditionFailed, UniverseInconsistent
from .modcat import (
    DEFAULT_SEED,
    QModule,
    Universe,
    direct_sum,
    dualize,
    injective,
    projective,
)


@dataclass(frozen=True)
class TiltingCheck:
    """Outcome of a tilting or cotilting verification.

    ``failures`` lists human-readable axiom violations; empty means the
    module passed with the stated n.
    """

    module: QModule
    n: int
    kind: str  # "tilting" | "cotilting"
    ok: bool
    failures: tuple[str, ...]
    pd_value: int | None
    ext_table: dict
    coresolutions: dict

    def require(self) -> TiltingCheck:
        if not self.ok:
            raise NotTilting("; ".join(self.failures))
        return self


def _check_axioms(
    t: QModule, n: int, seed: int, kind: str, dimension, target, member
) -> TiltingCheck:
    """Run the axioms (P1-P3) of a tilting or (C1-C3) of a cotilting module.

    ``dimension`` is pd or injdim, ``target`` builds the indecomposable
    projectives or injectives, and ``member`` is the add(T)-coresolution
    or add(T)-resolution test applied to them.
    """
    if n < 1:
        raise ValueError(f"{kind} degree n must be >= 1")
    letter, side, witness_name = (
        ("P", "projective", "coresolution") if kind == "tilting" else ("C", "injective", "resolution")
    )
    failures: list[str] = []

    dim_value = dimension(t, cap=n)
    if dim_value is None:
        failures.append(f"({letter}1) {side} dimension exceeds {n}")

    ext_table = {}
    if t.total_dim:
        for i in range(1, n + 1):
            d = hgy.ext(t, t, i).dimension
            ext_table[i] = d
            if d:
                failures.append(f"({letter}2) Ext^{i}(T, T) has dimension {d}")

    witnesses: dict[str, CoresolutionWitness | None] = {}
    for v in t.algebra.quiver.vertices:
        witness = member(target(t.algebra, v), t, n, seed=seed)
        witnesses[v] = witness
        if witness is None:
            failures.append(f"({letter}3) {side} at vertex {v} has no add(T)-{witness_name} of length {n}")

    return TiltingCheck(
        module=t,
        n=n,
        kind=kind,
        ok=not failures,
        failures=tuple(failures),
        pd_value=dim_value,
        ext_table=ext_table,
        coresolutions=witnesses,
    )


def verify_tilting(t: QModule, n: int, seed: int = DEFAULT_SEED) -> TiltingCheck:
    """Check the n-tilting axioms for t, returning a refutation on failure."""
    return _check_axioms(t, n, seed, "tilting", hgy.pd, projective, in_T_wedge)


def verify_cotilting(t: QModule, n: int, seed: int = DEFAULT_SEED) -> TiltingCheck:
    """Check the n-cotilting axioms directly and against the dual route."""
    direct = _check_axioms(t, n, seed, "cotilting", hgy.injdim, injective, in_T_covee)
    dual_check = verify_tilting(dualize(t), n, seed=seed)
    if dual_check.ok != direct.ok:
        raise RuntimeError(
            f"cotilting routes disagree: direct={direct.failures}, dual={dual_check.failures}"
        )
    return direct


@dataclass(frozen=True)
class CotorsionPairData:
    """A cotorsion pair cut out of a finite universe.

    ``kind`` is ("plain",), ("tilting", T, n) or ("cotilting", T, n).
    """

    universe: Universe
    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
    hereditary: bool
    kind: tuple

    def u_modules(self) -> list[QModule]:
        return [self.universe.module(name) for name in self.u_names]

    def v_modules(self) -> list[QModule]:
        return [self.universe.module(name) for name in self.v_names]


def _perp_in_universe(
    universe: Universe, modules: list[QModule], degrees: range, left: bool = False
) -> list[str]:
    """Members X with Ext^i(G, X) = 0, or Ext^i(X, G) = 0 if ``left``, for G in modules, i in degrees."""
    return [
        name
        for name, x in universe.members
        if all(
            hgy.ext(*((x, g) if left else (g, x)), i).dimension == 0
            for g in modules
            if g.total_dim and x.total_dim
            for i in degrees
        )
    ]


def verify_pair_axioms(
    universe: Universe,
    u_names: list[str],
    v_names: list[str],
    check_hereditary: bool = True,
) -> dict:
    """Re-verify the cotorsion-pair identities on the universe.

    Checks Ext-orthogonality, mutual perpendicularity, and that
    projectives (resp. injectives) land in U (resp. V).
    """
    algebra = universe.algebra
    u_mods = [universe.module(n) for n in u_names]
    v_mods = [universe.module(n) for n in v_names]
    ext1_ok = all(
        hgy.ext(u, v, 1).dimension == 0 for u in u_mods for v in v_mods
    )
    v_from_u = _perp_in_universe(universe, u_mods, range(1, 2))
    u_from_v = _perp_in_universe(universe, v_mods, range(1, 2), left=True)
    checks = {
        "ext1_vanishes": ext1_ok,
        "v_is_u_perp": set(v_from_u) == set(v_names),
        "u_is_perp_v": set(u_from_v) == set(u_names),
    }
    found = {}
    for side, make in (("projective", projective), ("injective", injective)):
        found[side] = set()
        for v in algebra.quiver.vertices:
            name = universe.find_member(make(algebra, v))
            if name is None:
                raise UniverseInconsistent(f"{side} at {v} missing from the universe")
            found[side].add(name)
    checks["projectives_in_u"] = found["projective"] <= set(u_names)
    checks["injectives_in_v"] = found["injective"] <= set(v_names)
    if check_hereditary:
        checks["ext2_vanishes"] = all(
            hgy.ext(u, v, 2).dimension == 0 for u in u_mods for v in v_mods
        )
    return checks


def _pair_from_verified(
    t: QModule, n: int, universe: Universe, seed: int, kind: str
) -> CotorsionPairData:
    """The pair generated by a verified (co)tilting t, cross-checked both ways.

    T's own class is cut out by Ext^1..n against T (T-perp for tilting,
    perp-T for cotilting), the other class is its Ext^1-perpendicular, and
    that class must equal the members with an add(T)-coresolution
    (T-wedge) or add(T)-resolution (T-covee).
    """
    tilting = kind == "tilting"
    own = _perp_in_universe(universe, [t], range(1, n + 1), left=not tilting)
    own_mods = [universe.module(name) for name in own]
    other = _perp_in_universe(universe, own_mods, range(1, 2), left=tilting)
    member, route = (in_T_wedge, "wedge") if tilting else (in_T_covee, "coresolution")
    witnessed = [name for name, x in universe.members if member(x, t, n, seed=seed) is not None]
    if set(witnessed) != set(other):
        raise UniverseInconsistent(
            f"perp route {sorted(other)} disagrees with {route} route {sorted(witnessed)}"
        )
    u_names, v_names = (other, own) if tilting else (own, other)
    checks = verify_pair_axioms(universe, u_names, v_names)
    if not all(checks.values()):
        raise UniverseInconsistent(f"pair axioms failed: {checks}")
    return CotorsionPairData(
        universe=universe,
        u_names=tuple(u_names),
        v_names=tuple(v_names),
        hereditary=True,
        kind=(kind, t, n),
    )


def cotorsion_pair_from_tilting(
    t: QModule, n: int, universe: Universe, seed: int = DEFAULT_SEED
) -> CotorsionPairData:
    """(T-wedge, T-perp) on the universe, cross-checked both ways."""
    verify_tilting(t, n, seed=seed).require()
    return _pair_from_verified(t, n, universe, seed, "tilting")


def cotorsion_pair_from_cotilting(
    t: QModule, n: int, universe: Universe, seed: int = DEFAULT_SEED
) -> CotorsionPairData:
    """(perp-T, T-covee) on the universe, cross-checked both ways."""
    verify_cotilting(t, n, seed=seed).require()
    return _pair_from_verified(t, n, universe, seed, "cotilting")


@dataclass(frozen=True)
class TiltingPairDecision:
    accepted: bool
    n: int | None
    t_names: tuple[str, ...]
    check: TiltingCheck | None
    reason: str = ""


def is_tilting_cotorsion_pair(
    pair: CotorsionPairData, cap: int = 8, seed: int = DEFAULT_SEED
) -> TiltingPairDecision:
    """Recognition: a hereditary pair is tilting iff pd of U is finite."""
    if not pair.hereditary:
        raise PreconditionFailed("recognition requires a hereditary pair")
    pds = {}
    for name in pair.u_names:
        d = hgy.pd(pair.universe.module(name), cap=cap)
        if d is None:
            return TiltingPairDecision(
                accepted=False, n=None, t_names=(), check=None,
                reason=f"pd of {name} exceeds the cap {cap}",
            )
        pds[name] = d
    n = max(pds.values()) if pds else 0
    n = max(n, 1)
    t_names = tuple(name for name in pair.u_names if name in set(pair.v_names))
    t_mod = direct_sum(pair.universe.algebra, [pair.universe.module(nm) for nm in t_names])
    check = verify_tilting(t_mod, n, seed=seed)
    if not check.ok:
        raise UniverseInconsistent(
            f"finite pd over U but U&V failed the tilting axioms: {check.failures}"
        )
    return TiltingPairDecision(accepted=True, n=n, t_names=t_names, check=check)


def _least_degree(verify, t: QModule, cap: int, seed: int) -> int | None:
    """Smallest n <= cap for which ``verify(t, n)`` passes, else None."""
    return next((n for n in range(1, cap + 1) if verify(t, n, seed=seed).ok), None)


def find_tilting_degree(t: QModule, cap: int = 8, seed: int = DEFAULT_SEED) -> int | None:
    """Smallest n <= cap for which t verifies as n-tilting, else None."""
    return _least_degree(verify_tilting, t, cap, seed)
