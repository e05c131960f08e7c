"""Spans around quiverglue's module boundaries, installed only in the traced run.

``Tracer.installed()`` replaces each boundary listed in ``BOUNDARIES`` with
a wrapper that records a span (name, start, end, parent span, job id)
and restores the originals on exit.  A module function is replaced in
every ``quiverglue`` module that binds it, because modules import each
other's names (``homology`` and ``approx`` do ``from .modcat import
hom_basis``); a method is replaced on its class.

Spans are kept in flat arrays and written out by ``save``.  Self time
(a span minus the time covered by its child spans) and call counts are
accumulated per span name as spans close.  Two counts are computed from
the arguments rather than measured: ``rref`` cells (rows x cols of the
input) and ``matmul`` multiply-accumulates (m x k x n).  For the
boundaries in ``REPEAT_TRACKED`` a call is a repeat when the identities
of its arguments were already seen in the same job; the tracer holds
the arguments until the job ends, so an identity cannot be reused by a
new object within the job.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (layer, class name or None, attribute, metric group)
BOUNDARIES = [
    ("linalg", "PrimeField", "rref", "rref"),
    ("linalg", "PrimeField", "matmul", "matmul"),
    ("linalg", "PrimeField", "solve_matrix", "solve_matrix"),
    ("linalg", "PrimeField", "kernel_basis", "kernel_basis"),
    ("linalg", "PrimeField", "image_basis", "image_basis"),
    ("linalg", "PrimeField", "inverse", "inverse"),
    ("algebra", "BoundQuiverAlgebra", "__init__", "build"),
    ("modcat", "QModule", "__init__", "QModule.init"),
    ("modcat", "QMorphism", "__init__", "QMorphism.init"),
    ("modcat", None, "hom_basis", "hom_basis"),
    ("modcat", None, "split_summands", "split_summands"),
    ("modcat", None, "decompose", "decompose"),
    ("modcat", None, "indecomposable_iso", "indecomposable_iso"),
    ("modcat", None, "is_isomorphic", "is_isomorphic"),
    ("modcat", None, "kernel", "kernel"),
    ("modcat", None, "cokernel", "cokernel"),
    ("modcat", None, "image", "image"),
    ("modcat", None, "direct_sum_with_maps", "direct_sum"),
    ("modcat", None, "dualize", "dualize"),
    ("modcat", "Universe", "validate", "universe"),
    ("modcat", "Universe", "decompose_names", "universe"),
    ("homology", None, "projective_cover", "projective_cover"),
    ("homology", None, "injective_envelope", "injective_envelope"),
    ("homology", None, "projective_resolution", "projective_resolution"),
    ("homology", None, "injective_resolution", "injective_resolution"),
    ("homology", None, "ext", "ext"),
    ("homology", None, "pd", "pd"),
    ("homology", None, "global_dimension", "global_dimension"),
    ("homology", None, "pushout", "pushout"),
    ("homology", None, "pullback", "pullback"),
    ("approx", None, "in_add", "in_add"),
    ("approx", None, "minimal_right_approximation", "minimal_right_approximation"),
    ("approx", None, "minimal_left_approximation", "minimal_left_approximation"),
    ("approx", None, "universal_extension", "universal_extension"),
    ("approx", None, "special_preenvelope_tilting", "special_preenvelope_tilting"),
    ("approx", None, "special_precover_universe", "special_precover_universe"),
    ("approx", None, "special_preenvelope_universe", "special_preenvelope_universe"),
    ("approx", None, "in_T_wedge", "in_T_wedge"),
    ("approx", None, "in_T_covee", "in_T_covee"),
    ("tilting", None, "verify_tilting", "verify"),
    ("tilting", None, "verify_cotilting", "verify"),
    ("tilting", None, "cotorsion_pair_from_tilting", "cotorsion_pair"),
    ("tilting", None, "cotorsion_pair_from_cotilting", "cotorsion_pair"),
    ("tilting", None, "verify_pair_axioms", "verify_pair_axioms"),
    ("recollement", "Recollement", "__init__", "build"),
    *(
        ("recollement", "Recollement", f, "functors")
        for base in ("i_star", "j_star", "i_shriek", "j_upper_star", "i_upper_star", "j_lower_shriek")
        for f in (base, f"{base}_mor")
    ),
    ("glue", None, "glued_classes", "glued_classes"),
    ("glue", None, "k_construction", "k_construction"),
    ("glue", None, "glue_tilting", "glue_tilting"),
    ("glue", None, "glue_cotilting", "glue_cotilting"),
    ("textio", None, "parse_algebra", "parse"),
    ("textio", None, "parse_module", "parse"),
    ("textio", None, "parse_universe", "parse"),
]

REPEAT_TRACKED = {"modcat.hom_basis", "homology.projective_resolution", "homology.ext"}

JOB = "job"


def _cells(args) -> int:
    rows, cols = args[1].shape
    return rows * cols


def _macs(args) -> int:
    (m, k), n = args[1].shape, args[2].shape[1]
    return m * k * n


COMPUTED = {"linalg.rref": ("cells", _cells), "linalg.matmul": ("macs", _macs)}


def _identity_key(args, kwargs) -> tuple:
    def ident(x):
        return x if isinstance(x, (int, str, type(None))) else ("id", id(x))

    return tuple(ident(a) for a in args) + tuple((k, ident(v)) for k, v in sorted(kwargs.items()))


class Tracer:
    """Records spans and per-name aggregates for the jobs run while installed."""

    def __init__(self):
        self.names: list[str] = [JOB]
        self._ids = {JOB: 0}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.computed: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self.jobs = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._job_id = -1
        self._seen: dict[tuple, tuple] = {}

    # -- spans ------------------------------------------------------------------

    def _open(self, name_id: int) -> None:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self._job_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self) -> None:
        t = time.perf_counter()
        idx, covered = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        name = self.names[self.name_id[idx]]
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def job_span(self):
        """One job: repeats are judged within it; its arguments are then released."""
        self._job_id = self.jobs
        self._seen = {}
        self._open(0)
        try:
            yield
        finally:
            self._close()
            self._seen = {}
            self.jobs += 1

    def _wrapper(self, name: str, fn):
        name_id = self._id(name)
        computed = COMPUTED.get(name)
        track = name in REPEAT_TRACKED

        def traced(*args, **kwargs):
            if computed is not None:
                self.computed[f"{name}.{computed[0]}"] += computed[1](args)
            if track:
                key = (name_id, _identity_key(args, kwargs))
                if key in self._seen:
                    self.repeats[name] += 1
                else:
                    self._seen[key] = (args, kwargs)
            self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block, then restore."""
        for layer in {b[0] for b in BOUNDARIES}:
            importlib.import_module(f"quiverglue.{layer}")
        modules = [m for n, m in list(sys.modules.items()) if n == "quiverglue" or n.startswith("quiverglue.")]
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, owner, attr, group in BOUNDARIES:
                name = f"{layer}.{group}"
                home = sys.modules[f"quiverglue.{layer}"]
                if owner is not None:
                    cls = getattr(home, owner)
                    original = cls.__dict__[attr]
                    restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrapper(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    # -- results --------------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(s for n, s in self.self_s.items() if n.startswith(layer + "."))

    def repeat_ratio(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.repeats.get(name, 0) / calls if calls else 0.0

    def save(self, path) -> None:
        """Write every span as numpy arrays, with the name table."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job, dtype=np.int64),
        )
