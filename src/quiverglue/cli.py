"""Command-line entry points.

Every subcommand reads the text formats of :mod:`quiverglue.textio`,
prints a deterministic report, and exits with:

    0   success
    2   verification mismatch (an axiom, certificate or comparison failed)
    3   parse or configuration error
    4   operation precondition failure

``reproduce`` runs the full pipeline on the bundled data and compares
the glued module against the expected decomposition, printing a diff on
mismatch.

``run`` is the process entry (the ``quiverglue`` script and
``python -m quiverglue.cli``); ``main(argv)`` returns the exit code for
callers in the same process.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import bundled, glue, homology as hgy, tilting as tl
from .errors import (
    ExactnessMissing,
    FieldTooSmall,
    NotSurjective,
    NotTilting,
    NotTriangular,
    ParseError,
    PreconditionFailed,
    QuiverglueError,
    UniverseInconsistent,
    UnknownName,
)
from .recollement import build_recollement
from .textio import directives, parse_algebra, parse_module, parse_universe

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4

_PARSE_ERRORS = (ParseError, UnknownName, FileNotFoundError, ValueError)
_PRECONDITION_ERRORS = (
    PreconditionFailed,
    NotTilting,
    ExactnessMissing,
    NotTriangular,
    FieldTooSmall,
    NotSurjective,
)


def _load_algebra(path: str, prime: int | None):
    text = Path(path).read_text()
    return parse_algebra(text, name=Path(path).stem, prime_override=prime)


def cmd_check_algebra(args) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    print(f"algebra {algebra.name}: dim {algebra.dim} over F_{algebra.field.p}")
    print(f"vertices: {' '.join(algebra.quiver.vertices)}")
    for s in algebra.quiver.vertices:
        for t in algebra.quiver.vertices:
            count = len(algebra.basis_paths_between(s, t))
            if count:
                print(f"paths {s} -> {t}: {count}")
    return EXIT_OK


def cmd_ext(args) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    _, source = parse_module(Path(args.source).read_text(), algebra)
    _, target = parse_module(Path(args.target).read_text(), algebra)
    group = hgy.ext(source, target, args.degree)
    print(f"dim Ext^{args.degree} = {group.dimension}")
    return EXIT_OK


def _run_tilting_check(args, kind: str) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    name, module = parse_module(Path(args.module).read_text(), algebra)
    verify = tl.verify_tilting if kind == "tilting" else tl.verify_cotilting
    check = verify(module, args.n)
    verdict = "PASS" if check.ok else "FAIL"
    print(f"{kind} check for {name} with n={args.n}: {verdict}")
    for failure in check.failures:
        print(f"  {failure}")
    return EXIT_OK if check.ok else EXIT_MISMATCH


def cmd_check_tilting(args) -> int:
    return _run_tilting_check(args, "tilting")


def cmd_check_cotilting(args) -> int:
    return _run_tilting_check(args, "cotilting")


def cmd_cotorsion(args) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    name, module = parse_module(Path(args.module).read_text(), algebra)
    universe = parse_universe(Path(args.universe), algebra)
    builder = (
        tl.cotorsion_pair_from_tilting if args.kind == "tilting" else tl.cotorsion_pair_from_cotilting
    )
    pair = builder(module, args.n, universe)
    print(f"{args.kind} cotorsion pair from {name} (n={args.n}):")
    print("U: " + " ".join(pair.u_names))
    print("V: " + " ".join(pair.v_names))
    return EXIT_OK


def cmd_recollement(args) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    rec = build_recollement(algebra, args.a_vertices.split(","))
    print(f"recollement of {algebra.name} along a-vertices {','.join(rec.a_vertices)}")
    print(f"a-side algebra: dim {rec.a_algebra.dim}")
    print(f"c-side algebra: dim {rec.c_algebra.dim}")
    for functor in ("i_shriek", "j_upper_star", "j_lower_shriek", "i_upper_star"):
        print(f"exact {functor}: {rec.exactness[functor]}")
    return EXIT_OK


def _declared_universe_algebra(path: str) -> str | None:
    for _, _, parts in directives(Path(path).read_text()):
        if parts[:2] == ["universe", "over"] and len(parts) == 3:
            return parts[2]
    return None


def _glue_common(args, glue_fn) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    rec = build_recollement(
        algebra,
        args.a_vertices.split(","),
        a_name=_declared_universe_algebra(args.universe_a),
        c_name=_declared_universe_algebra(args.universe_c),
    )
    _, t1 = parse_module(Path(args.t1).read_text(), rec.a_algebra)
    _, t3 = parse_module(Path(args.t3).read_text(), rec.c_algebra)
    universe_a = parse_universe(Path(args.universe_a), rec.a_algebra)
    universe_c = parse_universe(Path(args.universe_c), rec.c_algebra)
    universe_b = parse_universe(Path(args.universe_b), algebra)
    result = glue_fn(rec, t1, args.n1, t3, args.n3, universe_a, universe_c, universe_b)
    names = sorted(result.decomposition)
    print(f"glued module: {' '.join(f'{n}x{result.decomposition[n]}' for n in names)}")
    print(f"degree n2 = {result.n2}")
    print("U2: " + " ".join(result.glued.u2_names))
    print("V2: " + " ".join(result.glued.v2_names))
    return EXIT_OK


def cmd_glue_tilting(args) -> int:
    return _glue_common(args, glue.glue_tilting)


def cmd_glue_cotilting(args) -> int:
    return _glue_common(args, glue.glue_cotilting)


def cmd_verify_universe(args) -> int:
    algebra = _load_algebra(args.algebra, args.prime)
    universe = parse_universe(Path(args.universe), algebra)
    try:
        universe.validate()
    except UniverseInconsistent as exc:
        print(f"universe FAILED: {exc}")
        return EXIT_MISMATCH
    print(f"universe over {algebra.name}: {len(universe)} pairwise non-isomorphic indecomposables")
    for name, module in universe.members:
        print(f"  {name} dims {module.dim_vector()}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    workspace = bundled.load_workspace(prime=args.prime, data_dir=args.data_dir)
    kind, t1, n1, t3, n3, expected = workspace.example_inputs(args.example)
    available = set(workspace.universe_b.names())
    absent = sorted(expected - available)
    if absent:
        print("MISMATCH: expected summands missing from the universe:")
        for name in absent:
            print(f"  missing {name}")
        return EXIT_MISMATCH
    glue_fn = glue.glue_tilting if kind == "tilting" else glue.glue_cotilting
    result = glue_fn(
        workspace.recollement,
        t1,
        n1,
        t3,
        n3,
        workspace.universe_a,
        workspace.universe_c,
        workspace.universe_b,
    )
    print(f"example {args.example}: glued {kind} module")
    for name in sorted(result.decomposition):
        print(f"  {name} x{result.decomposition[name]}")
    print(f"degree n2 = {result.n2}")
    missing = sorted(expected - result.basic_names)
    extra = sorted(result.basic_names - expected)
    if missing or extra:
        print("MISMATCH against the expected decomposition:")
        for name in missing:
            print(f"  missing {name}")
        for name in extra:
            print(f"  unexpected {name}")
        return EXIT_MISMATCH
    print("decomposition matches the expected summands")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    import os

    env_prime = os.environ.get("QUIVERGLUE_PRIME")
    parser = argparse.ArgumentParser(
        prog="quiverglue",
        description="tilting-theoretic gluing across recollements of quiver module categories",
    )
    parser.add_argument(
        "--prime", type=int, default=int(env_prime) if env_prime else None,
        help="override the field line (default: QUIVERGLUE_PRIME or the file's value)",
    )
    parser.add_argument(
        "--seed", type=lambda s: int(s, 0),
        help="accepted and ignored: decomposition is deterministic, so no seed has any effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", help="parse an algebra file and report its basis")
    p.add_argument("algebra")
    p.set_defaults(fn=cmd_check_algebra)

    p = sub.add_parser("ext", help="dimension of an Ext group")
    p.add_argument("--algebra", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_ext)

    for cmd, fn in (("check-tilting", cmd_check_tilting), ("check-cotilting", cmd_check_cotilting)):
        p = sub.add_parser(cmd, help=f"verify the {cmd.split('-')[1]} axioms")
        p.add_argument("--algebra", required=True)
        p.add_argument("--module", required=True)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("cotorsion", help="cotorsion pair generated over a universe")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--universe", required=True)
    p.add_argument("--kind", choices=["tilting", "cotilting"], default="tilting")
    p.set_defaults(fn=cmd_cotorsion)

    p = sub.add_parser("recollement", help="build a recollement and report exactness")
    p.add_argument("--algebra", required=True)
    p.add_argument("--a-vertices", required=True, help="comma-separated a-side vertex names")
    p.set_defaults(fn=cmd_recollement)

    for cmd, fn in (("glue-tilting", cmd_glue_tilting), ("glue-cotilting", cmd_glue_cotilting)):
        p = sub.add_parser(cmd, help=f"{cmd.replace('-', ' ')} across a recollement")
        p.add_argument("--algebra", required=True)
        p.add_argument("--a-vertices", required=True)
        p.add_argument("--t1", required=True)
        p.add_argument("--n1", type=int, required=True)
        p.add_argument("--t3", required=True)
        p.add_argument("--n3", type=int, required=True)
        p.add_argument("--universe-a", required=True)
        p.add_argument("--universe-c", required=True)
        p.add_argument("--universe-b", required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("reproduce", help="rerun a bundled worked example and compare")
    p.add_argument("example", choices=sorted(bundled.EXPECTED))
    p.add_argument("--data-dir", default=None, help="alternate data directory")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("verify-universe", help="certify a universe file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--universe", required=True)
    p.set_defaults(fn=cmd_verify_universe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UniverseInconsistent as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except _PARSE_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QuiverglueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def run() -> None:
    """Run ``main`` on the command line and exit with its code."""
    code = main()
    # quiverglue registers no finalizers, and the interpreter flushes stdout and
    # stderr at exit regardless, so the final cyclic collection of everything the
    # run built would only cost time: frozen objects are exempt from it.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
