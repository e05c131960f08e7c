"""The three workloads: how a job is solved and how its answer is checked.

A job is one certified answer.  ``solve`` is the timed part: it builds
fresh quiverglue objects (every cache hangs off an algebra object, so
reusing one would time the previous job's cache hits) and calls the
public API or the CLI.  ``check`` runs the oracle on the answer and is
not timed.  ``solve`` calls quiverglue through module attributes so that
the traced run's wrappers see the call.  ``solve_in_process`` is what
the traced run calls; it is
``solve`` except for ``bundled-cold``, whose traced run calls
``cli.main`` in this process instead of starting a new one.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import gen
import oracles
import quiverglue
from quiverglue import cli, glue

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "_out"


# -- bundled-cold ------------------------------------------------------------------


@dataclass(frozen=True)
class ChildAnswer:
    returncode: int
    stdout: str
    maxrss_kib: int


def _reproduce_args(case) -> list[str]:
    example, prime, seed = case
    return ["--prime", str(prime), "--seed", str(seed), "reproduce", example]


def child_env() -> dict:
    """The child sees only the checkout's sources and no ambient prime or seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("QUIVERGLUE_PRIME", "QUIVERGLUE_SEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def solve_bundled_cold(case) -> ChildAnswer:
    """``python -m quiverglue.cli --prime P --seed S reproduce EX`` in a fresh process."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child_stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "quiverglue.cli", *_reproduce_args(case)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 reaps the child and gives its own rusage (peak RSS)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            stdout += err.read()
    return ChildAnswer(proc.returncode, stdout, usage.ru_maxrss)


def solve_bundled_in_process(case) -> ChildAnswer:
    """``cli.main`` in this process; each call loads a fresh bundled workspace."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(_reproduce_args(case))
    return ChildAnswer(code, buf.getvalue(), 0)


def check_bundled(case, answer: ChildAnswer) -> str | None:
    return oracles.check_bundled(case[0], answer.returncode, answer.stdout)


# -- line-glue ---------------------------------------------------------------------


def solve_line_glue(spec: gen.LineGlueSpec):
    rec, t1, t3, (universe_a, universe_c, universe_b) = gen.build_line_glue(spec)
    return glue.glue_tilting(rec, t1, 1, t3, 1, universe_a, universe_c, universe_b)


def check_line_glue(spec: gen.LineGlueSpec, result) -> str | None:
    t2 = result.t2
    vertices = t2.algebra.quiver.vertices
    return oracles.check_line_glue(
        vertices, gen.arrow_name, t2.dims, t2.maps, result.n2, result.decomposition, gen.PRIME
    )


# -- decompose-dense -----------------------------------------------------------------


def solve_dense(spec: gen.DenseSpec):
    return quiverglue.decompose(gen.build_dense(spec))


def check_dense(spec: gen.DenseSpec, groups) -> str | None:
    vertices = tuple(str(v) for v in range(1, gen.LINE_N + 1))
    summands = [(rep.dims, rep.maps, count) for rep, count in groups]
    return oracles.check_dense(vertices, gen.arrow_name, spec.dim_vectors(), summands, gen.PRIME)


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], Iterator]
    solve: Callable
    solve_in_process: Callable
    check: Callable
    # the spec stream repeats its job mix in blocks of this many jobs; a run
    # ends on a block boundary, so every run measures the same mix
    block: int
    # jobs in a traced run; fixed so that its counts repeat exactly for a seed
    traced_jobs: int
    in_process: bool
    # job_s.tail percentile: the highest with at least ten jobs beyond it at
    # the job count of a 30-second run; fixed so that commits compare alike
    tail_pct: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled-cold", gen.bundled_cases, solve_bundled_cold, solve_bundled_in_process, check_bundled,
            len(gen.BUNDLED_CASES), 2 * len(gen.BUNDLED_CASES), False, 70,
        ),
        Workload(
            "line-glue", gen.line_glue_specs, solve_line_glue, solve_line_glue, check_line_glue,
            len(gen.T_KINDS), len(gen.T_KINDS), True, 35,
        ),
        Workload(
            "decompose-dense", gen.dense_specs, solve_dense, solve_dense, check_dense,
            gen.DENSE_POOL_SIZE, gen.DENSE_POOL_SIZE, True, 70,
        ),
    )
}
