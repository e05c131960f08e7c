"""Recollements of module categories from a triangular vertex partition.

For a total algebra whose quiver admits no path from the chosen a-side
to its complement, restriction to the two vertex blocks realizes the
classical six functors between the three module categories:

    i_* / j_*  extend by zero,
    i^! / j^*  restrict to the vertex block,
    i^*        quotients the a-block by the arrow-closed span of the
               connecting maps (the cokernel of the structure map),
    j_!        places the induced bimodule tensor product on the a-block.

The bimodule is the span of residue paths from the c-side to the a-side;
its tensor with a c-module is computed as an explicit cokernel on the
path-tensor basis.  Exactness of i^! and j^* is structural; exactness of
j_! and i^* is certified by checking the first left-derived functor on
every simple, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import homology as hgy
from .algebra import BoundQuiverAlgebra, Path, Quiver, memo
from .errors import AlgebraMismatch, NotTriangular
from .modcat import QModule, QMorphism, quotient_by_images, simple


@dataclass(frozen=True)
class CanonicalSequence:
    """first: L -> M, second: M -> R with per-position exactness flags."""

    first: QMorphism
    second: QMorphism
    exact_left: bool  # first injective
    exact_middle: bool  # ker(second) == im(first)
    exact_right: bool  # second surjective


class Recollement:
    """The recollement data induced by a triangular vertex partition."""

    def __init__(
        self,
        total: BoundQuiverAlgebra,
        a_vertices: list[str],
        a_name: str | None = None,
        c_name: str | None = None,
    ):
        self.total = total
        declared = set(total.quiver.vertices)
        a_set = set(a_vertices)
        if not a_set <= declared:
            raise AlgebraMismatch(f"unknown vertices {sorted(a_set - declared)}")
        self.a_vertices = tuple(v for v in total.quiver.vertices if v in a_set)
        self.c_vertices = tuple(v for v in total.quiver.vertices if v not in a_set)
        for arrow in total.quiver.arrows:
            if arrow.source in a_set and arrow.target not in a_set:
                raise NotTriangular(
                    f"arrow {arrow.name}: {arrow.source} -> {arrow.target} crosses a -> c"
                )
        self.a_algebra = self._restrict(self.a_vertices, a_name or f"{total.name}.a")
        self.c_algebra = self._restrict(self.c_vertices, c_name or f"{total.name}.c")
        self._connecting = tuple(
            a for a in total.quiver.arrows if a.source in self.c_vertices and a.target in self.a_vertices
        )
        # residue paths c -> a span the connecting bimodule
        self._bimodule_paths = [
            i
            for i, p in enumerate(total.basis)
            if p.source in self.c_vertices and p.target in self.a_vertices
        ]
        self.exactness = verify_exactness(self)

    def _restrict(self, vertices: tuple[str, ...], name: str) -> BoundQuiverAlgebra:
        keep = set(vertices)
        arrows = [
            (a.name, a.source, a.target)
            for a in self.total.quiver.arrows
            if a.source in keep and a.target in keep
        ]
        quiver = Quiver(list(vertices), arrows)
        rels = []
        for rel in self.total.relations:
            if rel.source in keep and rel.target in keep:
                arrow_names = {n for _, p in rel.terms for n in p.arrows}
                inside = {a.name for a in self.total.quiver.arrows if a.source in keep and a.target in keep}
                if arrow_names <= inside:
                    rels.append(rel)
        algebra = BoundQuiverAlgebra(
            quiver, rels, field=self.total.field, length_cap=self.total.length_cap, name=name
        )
        for s in vertices:
            for t in vertices:
                expected = len(self.total.basis_paths_between(s, t))
                got = len(algebra.basis_paths_between(s, t))
                if expected != got:
                    raise NotTriangular(
                        f"restriction to {vertices} is not the corner algebra at ({s},{t})"
                    )
        return algebra

    def __repr__(self) -> str:
        return f"Recollement({self.a_algebra.name} | {self.total.name} | {self.c_algebra.name})"

    # -- restriction / extension functors --------------------------------

    def i_star(self, x: QModule) -> QModule:
        """Extension by zero: mod a_algebra -> mod total."""
        if x.algebra is not self.a_algebra:
            raise AlgebraMismatch("i_star expects a module over the a-side algebra")
        dims = {v: x.dims.get(v, 0) for v in self.a_vertices}
        maps = {a.name: x.maps[a.name] for a in self.a_algebra.quiver.arrows}
        return QModule(self.total, dims, maps)

    def i_star_mor(self, f: QMorphism) -> QMorphism:
        return QMorphism(
            self.i_star(f.source),
            self.i_star(f.target),
            {v: f.blocks[v] for v in self.a_vertices},
        )

    def j_star(self, y: QModule) -> QModule:
        """Extension by zero: mod c_algebra -> mod total."""
        if y.algebra is not self.c_algebra:
            raise AlgebraMismatch("j_star expects a module over the c-side algebra")
        dims = {v: y.dims.get(v, 0) for v in self.c_vertices}
        maps = {a.name: y.maps[a.name] for a in self.c_algebra.quiver.arrows}
        return QModule(self.total, dims, maps)

    def j_star_mor(self, f: QMorphism) -> QMorphism:
        return QMorphism(
            self.j_star(f.source),
            self.j_star(f.target),
            {v: f.blocks[v] for v in self.c_vertices},
        )

    def i_shriek(self, m: QModule) -> QModule:
        """Restriction to the a-block (right adjoint of i_*); always exact."""
        self._expect_total(m)

        def build():
            dims = {v: m.dims[v] for v in self.a_vertices}
            maps = {a.name: m.maps[a.name] for a in self.a_algebra.quiver.arrows}
            return QModule(self.a_algebra, dims, maps)

        return memo(self, "i_shriek", m, build)

    def i_shriek_mor(self, f: QMorphism) -> QMorphism:
        return QMorphism(
            self.i_shriek(f.source),
            self.i_shriek(f.target),
            {v: f.blocks[v] for v in self.a_vertices},
        )

    def j_upper_star(self, m: QModule) -> QModule:
        """Restriction to the c-block; always exact."""
        self._expect_total(m)

        def build():
            dims = {v: m.dims[v] for v in self.c_vertices}
            maps = {a.name: m.maps[a.name] for a in self.c_algebra.quiver.arrows}
            return QModule(self.c_algebra, dims, maps)

        return memo(self, "j_upper_star", m, build)

    def j_upper_star_mor(self, f: QMorphism) -> QMorphism:
        return QMorphism(
            self.j_upper_star(f.source),
            self.j_upper_star(f.target),
            {v: f.blocks[v] for v in self.c_vertices},
        )

    def _expect_total(self, m: QModule) -> None:
        if m.algebra is not self.total:
            raise AlgebraMismatch("expected a module over the total algebra")

    # -- i^*: cokernel of the connecting structure ------------------------

    def _connecting_span(self, m: QModule) -> dict[str, np.ndarray]:
        """Arrow-closed span of the connecting-map images, per a-vertex."""
        field = self.total.field
        spans = {v: field.zeros(m.dims[v], 0) for v in self.a_vertices}
        for arrow in self._connecting:
            spans[arrow.target] = np.hstack([spans[arrow.target], m.maps[arrow.name]])
        changed = True
        while changed:
            changed = False
            for arrow in self.a_algebra.quiver.arrows:
                u, w = arrow.source, arrow.target
                pushed = field.matmul(m.maps[arrow.name], field.image_basis(spans[u]))
                before = field.rank(spans[w])
                spans[w] = np.hstack([spans[w], pushed])
                if field.rank(spans[w]) != before:
                    changed = True
        return {v: field.image_basis(spans[v]) for v in self.a_vertices}

    def i_upper_star_with_proj(self, m: QModule) -> tuple[QModule, QMorphism]:
        """(i^* m, projection i^! m ->> i^* m)."""
        self._expect_total(m)

        def build():
            restricted = self.i_shriek(m)
            spans = self._connecting_span(m)
            return quotient_by_images(restricted, spans)

        return memo(self, "i_upper_star", m, build)

    def i_upper_star(self, m: QModule) -> QModule:
        return self.i_upper_star_with_proj(m)[0]

    def i_upper_star_mor(self, f: QMorphism) -> QMorphism:
        field = self.total.field
        src, src_proj = self.i_upper_star_with_proj(f.source)
        tgt, tgt_proj = self.i_upper_star_with_proj(f.target)
        blocks = {}
        for v in self.a_vertices:
            rhs = field.matmul(tgt_proj.blocks[v], f.blocks[v])
            sol = field.solve_matrix(src_proj.blocks[v].T, rhs.T)
            if sol is None:
                raise RuntimeError("induced map on cokernels does not exist")
            blocks[v] = sol.T
        return QMorphism(src, tgt, blocks)

    # -- j_!: bimodule tensor on the a-block -------------------------------

    def _tensor_layout(self, y: QModule):
        """Generator indexing for (bimodule tensor y) and quotient data."""
        field = self.total.field
        gens: dict[str, list[tuple[int, int]]] = {v: [] for v in self.a_vertices}
        for bi in self._bimodule_paths:
            path = self.total.basis[bi]
            for k in range(y.dims[path.source]):
                gens[path.target].append((bi, k))
        gen_pos = {v: {g: i for i, g in enumerate(gens[v])} for v in self.a_vertices}

        # relations (n.lam) (x) y  ==  n (x) (lam y), lam a c-side arrow
        rel_rows: dict[str, list[np.ndarray]] = {v: [] for v in self.a_vertices}
        for bi in self._bimodule_paths:
            n_path = self.total.basis[bi]
            a_vertex = n_path.target
            for lam in self.c_algebra.quiver.arrows:
                if lam.target != n_path.source:
                    continue
                extended = Path(lam.source, a_vertex, (lam.name,) + n_path.arrows)
                combo = self.total.reduce_path(extended)
                for k in range(y.dims[lam.source]):
                    row = field.zeros(1, len(gens[a_vertex]))[0]
                    for bj, coeff in combo.items():
                        row[gen_pos[a_vertex][(bj, k)]] = (row[gen_pos[a_vertex][(bj, k)]] + coeff) % field.p
                    col = y.maps[lam.name][:, k]
                    for l in range(y.dims[n_path.source]):
                        if int(col[l]):
                            pos = gen_pos[a_vertex][(bi, l)]
                            row[pos] = (row[pos] - int(col[l])) % field.p
                    rel_rows[a_vertex].append(row)

        proj, section = {}, {}
        dims = {}
        for v in self.a_vertices:
            n_gen = len(gens[v])
            if rel_rows[v]:
                rel_mat = np.stack(rel_rows[v], axis=0)
                rel_basis = field.image_basis(rel_mat.T)
            else:
                rel_basis = field.zeros(n_gen, 0)
            if n_gen:
                full = field.image_basis(np.hstack([rel_basis, field.identity(n_gen)]))
                inv = field.inverse(full)
                r = rel_basis.shape[1]
                proj[v] = inv[r:, :]
                section[v] = full[:, r:]
            else:
                proj[v] = field.zeros(0, 0)
                section[v] = field.zeros(0, 0)
            dims[v] = proj[v].shape[0]
        return gens, gen_pos, proj, section, dims

    def _tensor_module(self, y: QModule) -> tuple[QModule, dict]:
        if y.algebra is not self.c_algebra:
            raise AlgebraMismatch("tensor expects a module over the c-side algebra")
        return memo(self, "tensor", y, lambda: self._tensor_module_build(y))

    def _tensor_module_build(self, y: QModule) -> tuple[QModule, dict]:
        field = self.total.field
        gens, gen_pos, proj, section, dims = self._tensor_layout(y)
        maps = {}
        for arrow in self.a_algebra.quiver.arrows:
            u, w = arrow.source, arrow.target
            big = field.zeros(len(gens[w]), len(gens[u]))
            for col, (bi, k) in enumerate(gens[u]):
                n_path = self.total.basis[bi]
                extended = Path(n_path.source, arrow.target, n_path.arrows + (arrow.name,))
                for bj, coeff in self.total.reduce_path(extended).items():
                    big[gen_pos[w][(bj, k)], col] = coeff
            induced = field.matmul(field.matmul(proj[w], big), section[u])
            if not np.array_equal(field.matmul(induced, proj[u]), field.matmul(proj[w], big)):
                raise RuntimeError(f"tensor action not well defined along {arrow.name}")
            maps[arrow.name] = induced
        module = QModule(self.a_algebra, dims, maps)
        layout = {"gens": gens, "gen_pos": gen_pos, "proj": proj, "section": section}
        return module, layout

    def j_lower_shriek(self, y: QModule) -> QModule:
        """(tensor y | y) with identity structure map."""
        return memo(self, "j_lower_shriek", y, lambda: self._j_lower_shriek_build(y))

    def _j_lower_shriek_build(self, y: QModule) -> QModule:
        tensor, layout = self._tensor_module(y)
        field = self.total.field
        dims = {}
        dims.update({v: tensor.dims[v] for v in self.a_vertices})
        dims.update({v: y.dims[v] for v in self.c_vertices})
        maps = {}
        for arrow in self.a_algebra.quiver.arrows:
            maps[arrow.name] = tensor.maps[arrow.name]
        for arrow in self.c_algebra.quiver.arrows:
            maps[arrow.name] = y.maps[arrow.name]
        for arrow in self._connecting:
            combo = self.total.reduce_path(Path(arrow.source, arrow.target, (arrow.name,)))
            (bi, coeff), = combo.items()
            mat = field.zeros(len(layout["gens"][arrow.target]), y.dims[arrow.source])
            for k in range(y.dims[arrow.source]):
                mat[layout["gen_pos"][arrow.target][(bi, k)], k] = coeff
            maps[arrow.name] = field.matmul(layout["proj"][arrow.target], mat)
        return QModule(self.total, dims, maps)

    def j_lower_shriek_mor(self, f: QMorphism) -> QMorphism:
        """Functoriality of j_! on morphisms."""
        field = self.total.field
        src = self.j_lower_shriek(f.source)
        tgt = self.j_lower_shriek(f.target)
        _, src_layout = self._tensor_module(f.source)
        _, tgt_layout = self._tensor_module(f.target)
        blocks = {}
        for v in self.c_vertices:
            blocks[v] = f.blocks[v]
        for v in self.a_vertices:
            big = field.zeros(len(tgt_layout["gens"][v]), len(src_layout["gens"][v]))
            for col, (bi, k) in enumerate(src_layout["gens"][v]):
                c_vertex = self.total.basis[bi].source
                for l in range(f.target.dims[c_vertex]):
                    c = int(f.blocks[c_vertex][l, k])
                    if c:
                        big[tgt_layout["gen_pos"][v][(bi, l)], col] = c
            blocks[v] = field.matmul(
                field.matmul(tgt_layout["proj"][v], big), src_layout["section"][v]
            )
            check_l = field.matmul(blocks[v], src_layout["proj"][v])
            check_r = field.matmul(tgt_layout["proj"][v], big)
            if not np.array_equal(check_l, check_r):
                raise RuntimeError("tensor functoriality is not well defined")
        return QMorphism(src, tgt, blocks)

    # -- canonical adjunction maps -----------------------------------------

    def unit_i(self, m: QModule) -> QMorphism:
        """theta: i_* i^! m -> m (a-block inclusion)."""
        source = self.i_star(self.i_shriek(m))
        field = self.total.field
        blocks = {v: field.identity(m.dims[v]) for v in self.a_vertices}
        return QMorphism(source, m, blocks)

    def counit_j(self, m: QModule) -> QMorphism:
        """vartheta: m -> j_* j^* m (c-block projection)."""
        target = self.j_star(self.j_upper_star(m))
        field = self.total.field
        blocks = {v: field.identity(m.dims[v]) for v in self.c_vertices}
        return QMorphism(m, target, blocks)

    def counit_jshriek(self, m: QModule) -> QMorphism:
        """upsilon: j_! j^* m -> m (identity on c, path action on a)."""
        y = self.j_upper_star(m)
        source = self.j_lower_shriek(y)
        field = self.total.field
        _, layout = self._tensor_module(y)
        blocks = {}
        for v in self.c_vertices:
            blocks[v] = field.identity(m.dims[v])
        for v in self.a_vertices:
            big = field.zeros(m.dims[v], len(layout["gens"][v]))
            for col, (bi, k) in enumerate(layout["gens"][v]):
                path = self.total.basis[bi]
                action = m.path_action(path)
                big[:, col] = action[:, k]
            blocks[v] = field.matmul(big, layout["section"][v])
            if not np.array_equal(field.matmul(blocks[v], layout["proj"][v]), big):
                raise RuntimeError("counit not well defined on the tensor quotient")
        return QMorphism(source, m, blocks)

    def unit_istar(self, m: QModule) -> QMorphism:
        """nu: m -> i_* i^* m (cokernel projection on a, zero on c)."""
        quot, proj = self.i_upper_star_with_proj(m)
        target = self.i_star(quot)
        blocks = {v: proj.blocks[v] for v in self.a_vertices}
        return QMorphism(m, target, blocks)

    def canonical_sequence_upper(self, m: QModule) -> CanonicalSequence:
        """0 -> i_* i^! m -> m -> j_* j^* m with certified exactness."""
        theta = self.unit_i(m)
        vartheta = self.counit_j(m)
        return _certify(theta, vartheta)

    def canonical_sequence_lower(self, m: QModule) -> CanonicalSequence:
        """j_! j^* m -> m -> i_* i^* m -> 0 with certified exactness."""
        upsilon = self.counit_jshriek(m)
        nu = self.unit_istar(m)
        return _certify(upsilon, nu)

    # -- exactness certificates ---------------------------------------------

    def _j_shriek_exact(self) -> bool:
        """Tor_1(bimodule, S) = 0 for every c-side simple S."""
        return self._left_derived_vanishes(self.c_algebra, lambda mor: self.j_lower_shriek_mor(mor))

    def _i_upper_star_exact(self) -> bool:
        """First left-derived of i^* vanishes on every total simple."""
        return self._left_derived_vanishes(self.total, lambda mor: self.i_upper_star_mor(mor))

    def _left_derived_vanishes(self, algebra, functor_mor) -> bool:
        field = self.total.field
        for v in algebra.quiver.vertices:
            res = hgy.projective_resolution(simple(algebra, v), 2)
            d1 = functor_mor(res.differentials[0])
            d2 = functor_mor(res.differentials[1])
            # H1 = ker(d1) / im(d2), dimensions add up vertex-wise
            h1 = 0
            for u in d1.blocks:
                ker_dim = d1.blocks[u].shape[1] - field.rank(d1.blocks[u])
                h1 += ker_dim - field.rank(d2.blocks[u])
            if h1 != 0:
                return False
        return True


def _certify(first: QMorphism, second: QMorphism) -> CanonicalSequence:
    field = first.source.algebra.field
    exact_left = first.is_injective()
    exact_right = second.is_surjective()
    exact_middle = True
    if not second.compose(first).is_zero():
        exact_middle = False
    else:
        for v in first.blocks:
            im_rank = field.rank(first.blocks[v])
            ker_dim = second.blocks[v].shape[1] - field.rank(second.blocks[v])
            if im_rank != ker_dim:
                exact_middle = False
                break
    return CanonicalSequence(
        first=first,
        second=second,
        exact_left=exact_left,
        exact_middle=exact_middle,
        exact_right=exact_right,
    )


def verify_exactness(rec: Recollement) -> dict[str, bool]:
    """Recompute the exactness certificates.

    The constructor stores this result as ``rec.exactness``; exposed so a
    caller can re-run the derived-functor checks independently.
    """
    return {
        "i_star": True,  # extension by zero is vertex-wise exact
        "j_star": True,
        "i_shriek": True,  # block restrictions likewise
        "j_upper_star": True,
        "j_lower_shriek": rec._j_shriek_exact(),
        "i_upper_star": rec._i_upper_star_exact(),
    }


def build_recollement(
    total: BoundQuiverAlgebra,
    a_vertices: list[str],
    a_name: str | None = None,
    c_name: str | None = None,
) -> Recollement:
    """Construct and certify the recollement for the given a-side vertices."""
    return Recollement(total, a_vertices, a_name=a_name, c_name=c_name)
