"""Quivers, admissible relations and bound quiver algebras kQ/I.

Composition is right-to-left throughout: the product ``q * p`` means
"p first, then q", so a relation written ``ba`` is the path that walks
arrow ``a`` and then arrow ``b``.  Internally a :class:`Path` stores its
arrows in application order (first arrow first).

The quotient basis is computed degree by degree: relations must be
sums of equal-length paths (length >= 2), so the two-sided ideal they
generate is spanned, in each path length, by all composable products
``q * r * p``.  Residue paths are the non-pivot columns of that span,
which also yields a reduction table expressing every path in the basis.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .errors import MalformedRelation, NotFiniteDimensional, UnknownVertex
from .linalg import PrimeField

DEFAULT_LENGTH_CAP = 12


def memo(owner: object, table: str, key: Any, build: Callable[[], Any]) -> Any:
    """``build()`` computed once per ``key`` in the named table of ``owner``.

    The single cache of the package: each owning algebra (or recollement)
    keeps one ``_memo`` dict of tables.  Keys hold modules by identity, so
    entries live as long as the owner; a fresh algebra starts cold.
    """
    cache = owner.__dict__.setdefault("_memo", {}).setdefault(table, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Path(NamedTuple):
    """A path in a quiver; ``arrows`` are in application order."""

    source: str
    target: str
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def label(self) -> str:
        """Right-to-left juxtaposition, e.g. 'ba' for a-then-b."""
        if not self.arrows:
            return f"e_{self.source}"
        return "".join(reversed(self.arrows))


def trivial_path(vertex: str) -> Path:
    return Path(vertex, vertex, ())


class Quiver:
    """A finite quiver with named vertices and arrows."""

    def __init__(self, vertices: list[str], arrows: list[tuple[str, str, str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vertex_set = set(self.vertices)
        self.arrows = tuple(Arrow(str(n), str(s), str(t)) for n, s, t in arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        if set(names) & vertex_set:
            raise ValueError("arrow names must differ from vertex names")
        for a in self.arrows:
            if a.source not in vertex_set or a.target not in vertex_set:
                raise UnknownVertex(f"arrow {a.name}: {a.source}->{a.target} has undeclared endpoint")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.arrows_from = {v: tuple(a for a in self.arrows if a.source == v) for v in self.vertices}
        self.arrows_to = {v: tuple(a for a in self.arrows if a.target == v) for v in self.vertices}

    def __repr__(self) -> str:
        arrows = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({list(self.vertices)}; {arrows})"

    def check_vertex(self, v: str) -> str:
        if v not in self.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return v

    def path(self, arrow_names: tuple[str, ...] | list[str]) -> Path:
        """Build a path from arrow names in application order."""
        if not arrow_names:
            raise ValueError("use trivial_path for length-0 paths")
        arrows = []
        for name in arrow_names:
            if name not in self.arrow_by_name:
                raise UnknownVertex(f"unknown arrow {name!r}")
            arrows.append(self.arrow_by_name[name])
        for first, second in zip(arrows, arrows[1:]):
            if first.target != second.source:
                raise MalformedRelation(
                    f"arrows {first.name} and {second.name} do not compose"
                )
        return Path(arrows[0].source, arrows[-1].target, tuple(a.name for a in arrows))

    def opposite(self) -> Quiver:
        return Quiver(list(self.vertices), [(a.name, a.target, a.source) for a in self.arrows])


class RelationSum(NamedTuple):
    """A relation sum(coeff * path) = 0 with equal-length composable paths."""

    terms: tuple[tuple[int, Path], ...]

    def validate(self, quiver: Quiver) -> None:
        if not self.terms:
            raise MalformedRelation("empty relation")
        lengths = {p.length for _, p in self.terms}
        sources = {p.source for _, p in self.terms}
        targets = {p.target for _, p in self.terms}
        if len(sources) != 1 or len(targets) != 1:
            raise MalformedRelation("relation terms must share source and target")
        if len(lengths) != 1:
            raise MalformedRelation("relation terms must have equal length")
        if lengths.pop() < 2:
            raise MalformedRelation("admissible relations need paths of length >= 2")
        for _, p in self.terms:
            quiver.path(p.arrows)  # re-checks composability

    @property
    def length(self) -> int:
        return self.terms[0][1].length

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target

    def reversed(self) -> RelationSum:
        terms = tuple(
            (c, Path(p.target, p.source, tuple(reversed(p.arrows)))) for c, p in self.terms
        )
        return RelationSum(terms)


def relation(quiver: Quiver, terms: list[tuple[int, list[str] | tuple[str, ...]]]) -> RelationSum:
    """Convenience constructor: terms are (coeff, arrow names in application order)."""
    built = tuple((int(c), quiver.path(tuple(names))) for c, names in terms)
    rel = RelationSum(built)
    rel.validate(quiver)
    return rel


class BoundQuiverAlgebra:
    """kQ/I with an explicit residue-path basis and reduction tables.

    Attributes:
        quiver: the underlying quiver.
        field: the prime field realizing k.
        relations: the admissible relations generating I.
        basis: residue paths, ordered by (length, enumeration order).
        name: display name used by the text formats.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: list[RelationSum],
        field: PrimeField | None = None,
        length_cap: int = DEFAULT_LENGTH_CAP,
        name: str = "algebra",
    ):
        self.quiver = quiver
        self.field = field if field is not None else PrimeField()
        self.relations = tuple(relations)
        self.length_cap = length_cap
        self.name = name
        self._opposite: BoundQuiverAlgebra | None = None
        for rel in self.relations:
            rel.validate(quiver)
        self._build_basis()

    # -- basis construction -------------------------------------------

    def _build_basis(self) -> None:
        field = self.field
        quiver = self.quiver
        basis: list[Path] = [trivial_path(v) for v in quiver.vertices]
        # reduction[path] -> {basis_index: coeff}; identity entries are implicit
        self._reduction: dict[Path, dict[int, int]] = {}
        self._basis_index: dict[Path, int] = {p: i for i, p in enumerate(basis)}

        arrow_paths = [Path(a.source, a.target, (a.name,)) for a in quiver.arrows]
        for k, p in enumerate(arrow_paths):
            self._basis_index[p] = len(basis) + k
        basis.extend(arrow_paths)

        by_length: dict[int, list[Path]] = {0: [trivial_path(v) for v in quiver.vertices], 1: arrow_paths}
        rels_by_length: dict[int, list[RelationSum]] = {}
        for rel in self.relations:
            rels_by_length.setdefault(rel.length, []).append(rel)

        self._zero_from_length: int | None = None
        degree = 1
        while True:
            degree += 1
            prev = by_length[degree - 1]
            paths_d: list[Path] = []
            for p in prev:
                for a in quiver.arrows_from[p.target]:
                    paths_d.append(Path(p.source, a.target, p.arrows + (a.name,)))
            by_length[degree] = paths_d
            if not paths_d:
                self._zero_from_length = degree
                break

            index_d = {p: i for i, p in enumerate(paths_d)}
            span_rows: list[list[int]] = []
            # ideal elements q*r*p of total length == degree
            for rel_len, rels in rels_by_length.items():
                for left_len in range(0, degree - rel_len + 1):
                    right_len = degree - rel_len - left_len
                    for rel in rels:
                        for right in by_length[right_len]:
                            if right.target != rel.source:
                                continue
                            for left in by_length[left_len]:
                                if left.source != rel.target:
                                    continue
                                row = [0] * len(paths_d)
                                for coeff, mid in rel.terms:
                                    whole = Path(
                                        right.source,
                                        left.target,
                                        right.arrows + mid.arrows + left.arrows,
                                    )
                                    row[index_d[whole]] = (row[index_d[whole]] + coeff) % field.p
                                span_rows.append(row)
            if span_rows:
                reduced, pivots, _ = field.rref(field.mat(span_rows))
            else:
                reduced, pivots = field.zeros(0, len(paths_d)), []

            pivot_set = set(pivots)
            survivors = [i for i in range(len(paths_d)) if i not in pivot_set]
            for i in survivors:
                self._basis_index[paths_d[i]] = len(basis)
                basis.append(paths_d[i])
            # pivot path == -sum of its non-pivot row entries
            for row_i, pc in enumerate(pivots):
                combo: dict[int, int] = {}
                for j in survivors:
                    c = int(reduced[row_i, j])
                    if c:
                        combo[self._basis_index[paths_d[j]]] = (-c) % field.p
                self._reduction[paths_d[pc]] = combo

            if not survivors:
                self._zero_from_length = degree
                break
            if degree >= self.length_cap:
                raise NotFiniteDimensional(
                    f"basis paths still appear at length {degree} (cap {self.length_cap})"
                )

        self.basis = tuple(basis)
        self.dim = len(basis)
        self._basis_by_source: dict[str, list[int]] = {v: [] for v in quiver.vertices}
        self._basis_by_pair: dict[tuple[str, str], list[int]] = {}
        for i, p in enumerate(self.basis):
            self._basis_by_source[p.source].append(i)
            self._basis_by_pair.setdefault((p.source, p.target), []).append(i)

    # -- queries --------------------------------------------------------

    def __repr__(self) -> str:
        return f"BoundQuiverAlgebra({self.name}, dim={self.dim}, p={self.field.p})"

    def basis_paths_from(self, v: str) -> list[int]:
        self.quiver.check_vertex(v)
        return list(self._basis_by_source[v])

    def basis_paths_between(self, source: str, target: str) -> list[int]:
        return list(self._basis_by_pair.get((source, target), []))

    def reduce_path(self, path: Path) -> dict[int, int]:
        """Residue class of a raw path as {basis index: coeff}."""
        if path in self._basis_index:
            return {self._basis_index[path]: 1}
        if self._zero_from_length is not None and path.length >= self._zero_from_length:
            return {}
        if path in self._reduction:
            return dict(self._reduction[path])
        raise RuntimeError(f"path {path} was never enumerated; not a quiver path?")

    def mul_basis(self, i: int, j: int) -> dict[int, int]:
        """Product basis[i] * basis[j] ("j then i") in the basis."""
        left, right = self.basis[i], self.basis[j]
        if right.target != left.source:
            return {}
        whole = Path(right.source, left.target, right.arrows + left.arrows)
        return self.reduce_path(whole)

    def opposite(self) -> BoundQuiverAlgebra:
        """The opposite algebra; cached so op(op(A)) is A itself."""
        if self._opposite is None:
            op = BoundQuiverAlgebra(
                self.quiver.opposite(),
                [rel.reversed() for rel in self.relations],
                field=self.field,
                length_cap=self.length_cap,
                name=f"{self.name}.op",
            )
            op._opposite = self
            self._opposite = op
        return self._opposite


def build_algebra(
    quiver: Quiver,
    relations: list[RelationSum],
    field: PrimeField | None = None,
    length_cap: int = DEFAULT_LENGTH_CAP,
    name: str = "algebra",
) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra kQ/I with its residue-path basis."""
    return BoundQuiverAlgebra(quiver, relations, field=field, length_cap=length_cap, name=name)
