"""Verification of n-tilting / n-cotilting modules and cotorsion pairs.

A tilting check runs the three axioms literally: a projective-dimension
bound, self-orthogonality through degree n, and add(T)-coresolutions of
every indecomposable projective found by iterated minimal left
approximations.  The cotilting check runs the mirror axioms directly on
the injective side and, independently, the tilting check of the dual
module over the opposite algebra; the two verdicts must agree.

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


def verify_tilting(t: QModule, n: int, seed: int = DEFAULT_SEED) -> TiltingCheck:
    """Check the n-tilting axioms for t, returning a refutation on failure."""
    if n < 1:
        raise ValueError("tilting degree n must be >= 1")
    algebra = t.algebra
    failures: list[str] = []

    pd_value = hgy.pd(t, cap=n)
    if pd_value is None:
        failures.append(f"(P1) projective dimension exceeds {n}")

    ext_table = {}
    if t.total_dim:
        for i in range(1, n + 1):
            d = hgy.ext(t, t, i).dimension
            ext_table[i] = d
            if d:
                failures.append(f"(P2) Ext^{i}(T, T) has dimension {d}")

    coresolutions: dict[str, CoresolutionWitness | None] = {}
    for v in algebra.quiver.vertices:
        witness = in_T_wedge(projective(algebra, v), t, n, seed=seed)
        coresolutions[v] = witness
        if witness is None:
            failures.append(f"(P3) projective at vertex {v} has no add(T)-coresolution of length {n}")

    return TiltingCheck(
        module=t,
        n=n,
        kind="tilting",
        ok=not failures,
        failures=tuple(failures),
        pd_value=pd_value,
        ext_table=ext_table,
        coresolutions=coresolutions,
    )


def verify_cotilting(t: QModule, n: int, seed: int = DEFAULT_SEED) -> TiltingCheck:
    """Check the n-cotilting axioms directly and against the dual route."""
    if n < 1:
        raise ValueError("cotilting degree n must be >= 1")
    algebra = t.algebra
    failures: list[str] = []

    id_value = hgy.injdim(t, cap=n)
    if id_value is None:
        failures.append(f"(C1) injective dimension exceeds {n}")

    ext_table = {}
    if t.total_dim:
        for i in range(1, n + 1):
            d = hgy.ext(t, t, i).dimension
            ext_table[i] = d
            if d:
                failures.append(f"(C2) Ext^{i}(T, T) has dimension {d}")

    coresolutions: dict[str, CoresolutionWitness | None] = {}
    for v in algebra.quiver.vertices:
        witness = in_T_covee(injective(algebra, v), t, n, seed=seed)
        coresolutions[v] = witness
        if witness is None:
            failures.append(f"(C3) injective at vertex {v} has no add(T)-resolution of length {n}")

    direct = TiltingCheck(
        module=t,
        n=n,
        kind="cotilting",
        ok=not failures,
        failures=tuple(failures),
        pd_value=id_value,
        ext_table=ext_table,
        coresolutions=coresolutions,
    )
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


def _perp_in_universe(universe: Universe, generators: list[QModule], degrees: range) -> list[str]:
    """Members X with Ext^i(G, X) = 0 for all generators and degrees."""
    names = []
    for name, x in universe.members:
        if all(
            hgy.ext(g, x, i).dimension == 0
            for g in generators
            if g.total_dim and x.total_dim
            for i in degrees
        ):
            names.append(name)
    return names


def _coperp_in_universe(universe: Universe, cogenerators: list[QModule], degrees: range) -> list[str]:
    """Members X with Ext^i(X, G) = 0 for all cogenerators and degrees."""
    names = []
    for name, x in universe.members:
        if all(
            hgy.ext(x, g, i).dimension == 0
            for g in cogenerators
            if g.total_dim and x.total_dim
            for i in degrees
        ):
            names.append(name)
    return names


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
    u_from_v = _coperp_in_universe(universe, v_mods, range(1, 2))
    checks = {
        "ext1_vanishes": ext1_ok,
        "v_is_u_perp": set(v_from_u) == set(v_names),
        "u_is_perp_v": set(u_from_v) == set(u_names),
    }
    proj_names = []
    for v in algebra.quiver.vertices:
        name = universe.find_member(projective(algebra, v))
        if name is None:
            raise UniverseInconsistent(f"projective at {v} missing from the universe")
        proj_names.append(name)
    inj_names = []
    for v in algebra.quiver.vertices:
        name = universe.find_member(injective(algebra, v))
        if name is None:
            raise UniverseInconsistent(f"injective at {v} missing from the universe")
        inj_names.append(name)
    checks["projectives_in_u"] = set(proj_names) <= set(u_names)
    checks["injectives_in_v"] = set(inj_names) <= set(v_names)
    if check_hereditary:
        checks["ext2_vanishes"] = all(
            hgy.ext(u, v, 2).dimension == 0 for u in u_mods for v in v_mods
        )
    return checks


def cotorsion_pair_from_tilting(
    t: QModule, n: int, universe: Universe, seed: int = DEFAULT_SEED
) -> CotorsionPairData:
    """(T-wedge, T-perp) on the universe, cross-checked both ways."""
    verify_tilting(t, n, seed=seed).require()
    v_names = _perp_in_universe(universe, [t], range(1, n + 1))
    v_mods = [universe.module(name) for name in v_names]
    u_names = _coperp_in_universe(universe, v_mods, range(1, 2))
    wedge_names = [
        name for name, x in universe.members if in_T_wedge(x, t, n, seed=seed) is not None
    ]
    if set(wedge_names) != set(u_names):
        raise UniverseInconsistent(
            f"perp route {sorted(u_names)} disagrees with wedge route {sorted(wedge_names)}"
        )
    checks = verify_pair_axioms(universe, u_names, v_names)
    if not all(checks.values()):
        raise UniverseInconsistent(f"pair axioms failed: {checks}")
    return CotorsionPairData(
        universe=universe,
        u_names=tuple(u_names),
        v_names=tuple(v_names),
        hereditary=True,
        kind=("tilting", t, n),
    )


def cotorsion_pair_from_cotilting(
    t: QModule, n: int, universe: Universe, seed: int = DEFAULT_SEED
) -> CotorsionPairData:
    """(perp-T, T-covee) on the universe, cross-checked both ways."""
    verify_cotilting(t, n, seed=seed).require()
    u_names = _coperp_in_universe(universe, [t], range(1, n + 1))
    u_mods = [universe.module(name) for name in u_names]
    v_names = _perp_in_universe(universe, u_mods, range(1, 2))
    covee_names = [
        name for name, x in universe.members if in_T_covee(x, t, n, seed=seed) is not None
    ]
    if set(covee_names) != set(v_names):
        raise UniverseInconsistent(
            f"perp route {sorted(v_names)} disagrees with coresolution route {sorted(covee_names)}"
        )
    checks = verify_pair_axioms(universe, u_names, v_names)
    if not all(checks.values()):
        raise UniverseInconsistent(f"pair axioms failed: {checks}")
    return CotorsionPairData(
        universe=universe,
        u_names=tuple(u_names),
        v_names=tuple(v_names),
        hereditary=True,
        kind=("cotilting", t, n),
    )


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


def find_tilting_degree(t: QModule, cap: int = 8, seed: int = DEFAULT_SEED) -> int | None:
    """Smallest n <= cap for which t verifies as n-tilting, else None."""
    for n in range(1, cap + 1):
        if verify_tilting(t, n, seed=seed).ok:
            return n
    return None
