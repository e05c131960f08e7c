"""Text formats for algebras, modules and universe manifests.

Grammar (one directive per line, ``#`` comments and blank lines allowed):

    algebra file:   field <p>
                    vertices <name> ...
                    arrow <name> <source> <target>
                    relation <c>*<arrows> [+ <c>*<arrows> ...] = 0
    module file:    module <name> over <algebra-name>
                    dim <vertex> <d>
                    map <arrow> [[r00,r01,...],[...]]
    manifest:       universe over <algebra-name>
                    member <display-name> <relative-path>

Arrow names inside a relation term are juxtaposed right-to-left (the
written word ``ba`` walks ``a`` first), matching composition order.
Coefficients may be negative integers; they are reduced mod p on parse,
so a file written with ``-1`` means the same relation in every
characteristic.  Omitted dims are zero; omitted maps are zero matrices.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path as FsPath

import numpy as np

from .algebra import BoundQuiverAlgebra, Quiver, RelationSum, build_algebra
from .errors import ParseError, UnknownName
from .linalg import PrimeField
from .modcat import QModule, Universe


def directives(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, its words) per directive: ``#`` comments cut, blank lines skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def _segment_arrows(word: str, names: set[str], line: int) -> list[str]:
    """Split a juxtaposed arrow word into declared names (longest match)."""
    result: list[str] = []
    pos = 0
    lengths = sorted({len(n) for n in names}, reverse=True)
    while pos < len(word):
        for ln in lengths:
            if word[pos : pos + ln] in names:
                result.append(word[pos : pos + ln])
                pos += ln
                break
        else:
            raise ParseError(f"cannot segment arrow word {word!r}", line)
    return result


def parse_algebra(
    text: str,
    name: str = "algebra",
    prime_override: int | None = None,
    length_cap: int = 12,
) -> BoundQuiverAlgebra:
    """Parse an algebra file; an explicit prime overrides the field line."""
    prime: int | None = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relation_specs: list[tuple[int, list[tuple[int, str]]]] = []

    for lineno, line, parts in directives(text):
        keyword = parts[0]
        if keyword == "field":
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise ParseError("field line needs one integer", lineno)
            prime = int(parts[1])
        elif keyword == "vertices":
            if len(parts) < 2:
                raise ParseError("vertices line needs at least one name", lineno)
            vertices.extend(parts[1:])
        elif keyword == "arrow":
            if len(parts) != 4:
                raise ParseError("arrow line needs name, source, target", lineno)
            arrows.append((parts[1], parts[2], parts[3]))
        elif keyword == "relation":
            body = line[len("relation") :].strip()
            if not body.endswith("= 0"):
                raise ParseError("relation must end with '= 0'", lineno)
            body = body[: -len("= 0")].strip()
            terms = []
            for chunk in body.split("+"):
                chunk = chunk.strip()
                if "*" not in chunk:
                    raise ParseError(f"relation term {chunk!r} needs coeff*arrows", lineno)
                coeff_str, word = chunk.split("*", 1)
                try:
                    coeff = int(coeff_str)
                except ValueError:
                    raise ParseError(f"bad coefficient {coeff_str!r}", lineno) from None
                terms.append((coeff, word.strip()))
            relation_specs.append((lineno, terms))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if prime_override is not None:
        prime = prime_override
    if prime is None:
        raise ParseError("missing field line")
    field = PrimeField(prime)
    try:
        quiver = Quiver(vertices, arrows)
    except Exception as exc:
        raise ParseError(str(exc)) from exc

    arrow_names = {a.name for a in quiver.arrows}
    relations = []
    for lineno, terms in relation_specs:
        built = []
        for coeff, word in terms:
            segs = _segment_arrows(word, arrow_names, lineno)
            segs.reverse()  # written right-to-left, stored in application order
            try:
                path = quiver.path(tuple(segs))
            except Exception as exc:
                raise ParseError(str(exc), lineno) from exc
            built.append((coeff % prime, path))
        rel = RelationSum(tuple(built))
        try:
            rel.validate(quiver)
        except Exception as exc:
            raise ParseError(str(exc), lineno) from exc
        relations.append(rel)
    return build_algebra(quiver, relations, field=field, length_cap=length_cap, name=name)


def print_algebra(algebra: BoundQuiverAlgebra) -> str:
    lines = [f"field {algebra.field.p}"]
    lines.append("vertices " + " ".join(algebra.quiver.vertices))
    for a in algebra.quiver.arrows:
        lines.append(f"arrow {a.name} {a.source} {a.target}")
    for rel in algebra.relations:
        chunks = []
        for coeff, path in rel.terms:
            word = "".join(reversed(path.arrows))
            chunks.append(f"{coeff % algebra.field.p}*{word}")
        lines.append("relation " + " + ".join(chunks) + " = 0")
    return "\n".join(lines) + "\n"


def parse_module(text: str, algebra: BoundQuiverAlgebra) -> tuple[str, QModule]:
    """Parse a module file against a loaded algebra; returns (name, module)."""
    name: str | None = None
    dims: dict[str, int] = {}
    maps: dict[str, list] = {}
    vertex_set = set(algebra.quiver.vertices)
    arrow_names = {a.name for a in algebra.quiver.arrows}

    for lineno, line, parts in directives(text):
        keyword = parts[0]
        if keyword == "module":
            if len(parts) != 4 or parts[2] != "over":
                raise ParseError("expected 'module <name> over <algebra>'", lineno)
            name = parts[1]
            if parts[3] != algebra.name:
                raise UnknownName(
                    f"module is over {parts[3]!r} but the loaded algebra is {algebra.name!r}"
                )
        elif keyword == "dim":
            if len(parts) != 3 or not parts[2].isdigit():
                raise ParseError("expected 'dim <vertex> <count>'", lineno)
            if parts[1] not in vertex_set:
                raise UnknownName(f"unknown vertex {parts[1]!r} on line {lineno}")
            dims[parts[1]] = int(parts[2])
        elif keyword == "map":
            if len(parts) < 3:
                raise ParseError("expected 'map <arrow> <matrix>'", lineno)
            if parts[1] not in arrow_names:
                raise UnknownName(f"unknown arrow {parts[1]!r} on line {lineno}")
            literal = line.split(None, 2)[2]
            try:
                data = ast.literal_eval(literal)
            except (ValueError, SyntaxError) as exc:
                raise ParseError(f"bad matrix literal: {exc}", lineno) from None
            if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
                raise ParseError("matrix must be a list of rows", lineno)
            bad = [x for r in data for x in r if type(x) is not int]
            if bad:
                raise ParseError(f"matrix entry {bad[0]!r} is not an integer", lineno)
            maps[parts[1]] = data
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)
    if name is None:
        raise ParseError("missing module header line")
    try:
        module = QModule(algebra, dims, {k: np.array(v, dtype=np.int64) for k, v in maps.items()})
    except Exception as exc:
        raise ParseError(f"invalid module {name!r}: {exc}") from exc
    return name, module


def print_module(name: str, module: QModule) -> str:
    lines = [f"module {name} over {module.algebra.name}"]
    for v in module.algebra.quiver.vertices:
        lines.append(f"dim {v} {module.dims[v]}")
    for a in module.algebra.quiver.arrows:
        mat = module.maps[a.name]
        if mat.size and np.any(mat):
            rows = ",".join("[" + ",".join(str(int(x)) for x in row) + "]" for row in mat)
            lines.append(f"map {a.name} [{rows}]")
    return "\n".join(lines) + "\n"


def parse_universe(manifest_path: str | FsPath, algebra: BoundQuiverAlgebra) -> Universe:
    """Load a universe manifest; member paths resolve relative to it."""
    manifest_path = FsPath(manifest_path)
    members: list[tuple[str, QModule]] = []
    for lineno, _, parts in directives(manifest_path.read_text()):
        if parts[0] == "universe":
            if len(parts) != 3 or parts[1] != "over":
                raise ParseError("expected 'universe over <algebra>'", lineno)
            if parts[2] != algebra.name:
                raise UnknownName(
                    f"universe is over {parts[2]!r} but the loaded algebra is {algebra.name!r}"
                )
        elif parts[0] == "member":
            if len(parts) != 3:
                raise ParseError("expected 'member <name> <path>'", lineno)
            display, rel = parts[1], parts[2]
            member_file = manifest_path.parent / rel
            if not member_file.exists():
                raise UnknownName(f"member file {rel!r} not found (line {lineno})")
            file_name, module = parse_module(member_file.read_text(), algebra)
            if file_name != display:
                raise UnknownName(
                    f"manifest names {display!r} but file declares {file_name!r} (line {lineno})"
                )
            members.append((display, module))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    return Universe(algebra, members)
