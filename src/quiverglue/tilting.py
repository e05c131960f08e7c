"""Verification of n-tilting / n-cotilting modules and cotorsion pairs.

A tilting check runs the three axioms literally: a projective-dimension
bound, self-orthogonality through degree n, and add(T)-coresolutions of
every indecomposable projective found by iterated minimal left
approximations.  The cotilting check runs the mirror axioms on the
injective side and cross-checks them against the dual module over the
opposite algebra.  Only (C2) is independent of that dual route: (C1) is
pd of the dual, and (C3) already tests the dual objects D I(v) = P_op(v).
So the dual route computes only Ext^i(DT, DT) over the opposite, and its
table must equal that of Ext^i(T, T) over the algebra.

Cotorsion pairs are always relative to an explicit finite universe.
Disagreement between the orthogonality route and the coresolution route
raises UniverseInconsistent rather than picking a side.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import homology as hgy
from .approx import CoresolutionWitness, in_T_covee, in_T_wedge
from .errors import NotTilting, UniverseInconsistent
from .modcat import (
    QModule,
    Universe,
    direct_sum,
    dualize,
    injective,
    projective,
)


class TiltingCheck(NamedTuple):
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


def _ext_table(t: QModule, n: int) -> dict[int, int]:
    """dim Ext^i(T, T) for i = 1..n (empty for the zero module)."""
    return {i: hgy.ext(t, t, i).dimension for i in range(1, n + 1)} if t.total_dim else {}


def _ext_failures(table: dict[int, int], letter: str) -> tuple[str, ...]:
    return tuple(f"({letter}2) Ext^{i}(T, T) has dimension {d}" for i, d in table.items() if d)


def _check_axioms(t: QModule, n: int, kind: str, dimension, target, member) -> TiltingCheck:
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

    ext_table = _ext_table(t, n)
    failures += _ext_failures(ext_table, letter)

    witnesses: dict[str, CoresolutionWitness | None] = {}
    for v in t.algebra.quiver.vertices:
        witness = member(target(t.algebra, v), t, n)
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


def verify_tilting(t: QModule, n: int) -> TiltingCheck:
    """Check the n-tilting axioms for t, returning a refutation on failure."""
    return _check_axioms(t, n, "tilting", hgy.pd, projective, in_T_wedge)


def verify_cotilting(t: QModule, n: int) -> TiltingCheck:
    """Check the n-cotilting axioms directly and against the dual route."""
    direct = _check_axioms(t, n, "cotilting", hgy.injdim, injective, in_T_covee)
    dual_table = _ext_table(dualize(t), n)
    if dual_table != direct.ext_table:
        raise RuntimeError(
            f"cotilting routes disagree: direct={_ext_failures(direct.ext_table, 'C')}, "
            f"dual={_ext_failures(dual_table, 'P')}"
        )
    return direct


class CotorsionPairData(NamedTuple):
    """A cotorsion pair cut out of a finite universe.

    ``kind`` is ("plain",), ("tilting", T, n) or ("cotilting", T, n).
    """

    universe: Universe
    u_names: tuple[str, ...]
    v_names: tuple[str, ...]
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
) -> None:
    """Certify the cotorsion-pair identities on the universe, or raise.

    Raises ``UniverseInconsistent`` naming the first identity that fails:
    Ext-orthogonality in degrees one and two, V = U-perp and U = perp-V in
    degree one, then projectives in U and injectives in V.
    """
    algebra = universe.algebra
    u_mods = [universe.module(n) for n in u_names]
    v_mods = [universe.module(n) for n in v_names]
    for i in (1, 2):
        for (un, u), (vn, v) in itertools.product(zip(u_names, u_mods), zip(v_names, v_mods)):
            if hgy.ext(u, v, i).dimension:
                raise UniverseInconsistent(f"Ext^{i}(U, V) = 0 fails at ({un}, {vn})")
    if set(_perp_in_universe(universe, u_mods, range(1, 2))) != set(v_names):
        raise UniverseInconsistent("V = U-perp fails")
    if set(_perp_in_universe(universe, v_mods, range(1, 2), left=True)) != set(u_names):
        raise UniverseInconsistent("U = perp-V fails")
    for side, make, letter, names in (
        ("projective", projective, "U", u_names),
        ("injective", injective, "V", v_names),
    ):
        for v in algebra.quiver.vertices:
            name = universe.find_member(make(algebra, v))
            if name is None:
                raise UniverseInconsistent(f"{side} at {v} missing from the universe")
            if name not in names:
                raise UniverseInconsistent(f"{side}s in {letter} fails: {name} at {v} is not in {letter}")


def _pair_from_verified(t: QModule, n: int, universe: Universe, kind: str) -> CotorsionPairData:
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
    witnessed = [name for name, x in universe.members if member(x, t, n) is not None]
    if set(witnessed) != set(other):
        raise UniverseInconsistent(
            f"perp route {sorted(other)} disagrees with {route} route {sorted(witnessed)}"
        )
    u_names, v_names = (other, own) if tilting else (own, other)
    verify_pair_axioms(universe, u_names, v_names)
    return CotorsionPairData(
        universe=universe,
        u_names=tuple(u_names),
        v_names=tuple(v_names),
        kind=(kind, t, n),
    )


def cotorsion_pair_from_tilting(t: QModule, n: int, universe: Universe) -> CotorsionPairData:
    """(T-wedge, T-perp) on the universe, cross-checked both ways."""
    verify_tilting(t, n).require()
    return _pair_from_verified(t, n, universe, "tilting")


def cotorsion_pair_from_cotilting(t: QModule, n: int, universe: Universe) -> CotorsionPairData:
    """(perp-T, T-covee) on the universe, cross-checked both ways."""
    verify_cotilting(t, n).require()
    return _pair_from_verified(t, n, universe, "cotilting")


class TiltingPairDecision(NamedTuple):
    accepted: bool
    n: int | None
    t_names: tuple[str, ...]
    check: TiltingCheck | None
    reason: str = ""


def is_tilting_cotorsion_pair(pair: CotorsionPairData, cap: int = 8) -> TiltingPairDecision:
    """Recognition: a hereditary pair is tilting iff pd of U is finite.

    The pair is certified first (``verify_pair_axioms``), so a pair that is
    not a cotorsion pair with Ext^2(U, V) = 0 raises ``UniverseInconsistent``.
    """
    verify_pair_axioms(pair.universe, list(pair.u_names), list(pair.v_names))
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
    check = verify_tilting(t_mod, n)
    if not check.ok:
        raise UniverseInconsistent(
            f"finite pd over U but U&V failed the tilting axioms: {check.failures}"
        )
    return TiltingPairDecision(accepted=True, n=n, t_names=t_names, check=check)


def _least_degree(verify, t: QModule, cap: int) -> int | None:
    """Smallest n <= cap for which ``verify(t, n)`` passes, else None.

    (P1) fails below pd T and (C1) below injdim T, so the search starts there.
    """
    dimension = (hgy.injdim if verify is verify_cotilting else hgy.pd)(t, cap=cap)
    if dimension is None:
        return None
    return next((n for n in range(max(1, dimension), cap + 1) if verify(t, n).ok), None)


def find_tilting_degree(t: QModule, cap: int = 8) -> int | None:
    """Smallest n <= cap for which t verifies as n-tilting, else None."""
    return _least_degree(verify_tilting, t, cap)
