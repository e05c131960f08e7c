"""quiverglue benchmark: certified answers per second, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: jobs run one after
another, each building fresh quiverglue objects from inputs generated
from ``--seed``.  Jobs come in blocks that each hold the workload's
whole job mix once; a run ends at the first block boundary after
``--seconds``.  Each answer goes through an oracle that does not use
the code under test (see ``oracles.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of jobs per workload (so that its counts repeat exactly for
a seed), each once plain and once with spans recorded around every
module boundary, and reports the per-layer metrics per job together
with the tracing overhead; it does not use ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 5

# per-layer metrics: span group -> the statistics reported for it
PER_LAYER = {
    "linalg.rref": ("calls", "self_s", "cells"),
    "linalg.matmul": ("calls", "self_s", "macs"),
    "linalg.solve_matrix": ("calls",),
    "linalg.kernel_basis": ("calls",),
    "modcat.QMorphism.init": ("calls", "self_s"),
    "modcat.QModule.init": ("calls", "self_s"),
    "modcat.hom_basis": ("calls", "self_s", "repeat_ratio"),
    "modcat.split_summands": ("calls", "self_s"),
    "modcat.indecomposable_iso": ("calls", "self_s"),
    "homology.projective_resolution": ("calls", "self_s", "repeat_ratio"),
    "homology.ext": ("calls", "self_s", "repeat_ratio"),
    "homology.pd": ("self_s",),
    "approx.special_precover_universe": ("self_s",),
    "approx.special_preenvelope_universe": ("self_s",),
    "approx.minimal_right_approximation": ("self_s",),
    "approx.in_add": ("calls",),
    "tilting.verify": ("calls", "self_s"),
    "tilting.cotorsion_pair": ("self_s",),
    "recollement.build": ("self_s",),
    "recollement.functors": ("calls", "self_s"),
    "glue.glued_classes": ("self_s",),
    "glue.k_construction": ("self_s",),
    "algebra.build": ("calls", "self_s"),
    "textio.parse": ("calls", "self_s"),
}
LAYERS = ("linalg", "modcat", "homology", "approx", "tilting", "recollement", "glue")
UNITS = {"calls": "count/job", "self_s": "s/job", "cells": "cells/job", "macs": "macs/job", "repeat_ratio": "frac"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_sources() -> None:
    """Import quiverglue from this checkout's src/ and nowhere else."""
    if not (SRC / "quiverglue" / "__init__.py").is_file():
        fail(f"no quiverglue sources in {SRC}; run from the root of a quiverglue checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import quiverglue

    if Path(quiverglue.__file__).resolve().parent != (SRC / "quiverglue").resolve():
        fail(f"imported quiverglue from {quiverglue.__file__}, not from {SRC}")


def probe_setup(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Median (import_s, setup_s) over fresh interpreters; the first one only compiles bytecode."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )
        if out.returncode:
            fail(f"set-up probe failed:\n{out.stderr}")
        samples.append(json.loads(out.stdout.splitlines()[-1]))
    samples = samples[1:]
    return (
        statistics.median(s["import_s"] for s in samples),
        statistics.median(s["setup_s"] for s in samples),
    )


def run_job(solve, check, spec):
    """(seconds, answer, failure reason or None); a job that raises is a failure."""
    t0 = time.perf_counter()
    try:
        answer = solve(spec)
    except Exception as exc:  # the loop keeps running; the job counts as failed
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return seconds, answer, check(spec, answer)


def _record(k: int, spec, started: float, seconds: float, failure: str | None, **extra) -> dict:
    return {"job": k, "spec": repr(spec), "start_s": started, "seconds": seconds, "failure": failure, **extra}


def end_to_end(w, seed: int, seconds: float, setup_s: float) -> tuple[dict, list[dict]]:
    """Closed loop until the first block boundary after ``seconds``; at least one block."""
    records, peak_kib = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    for k, spec in enumerate(w.specs(seed)):
        if k and k % w.block == 0 and time.perf_counter() >= deadline:
            break
        started = time.perf_counter() - start
        dt, answer, reason = run_job(w.solve, w.check, spec)
        records.append(_record(k, spec, started, dt, reason))
        if not w.in_process and answer is not None:
            peak_kib = max(peak_kib, answer.maxrss_kib)
    wall = time.perf_counter() - start
    if w.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = sorted(r["seconds"] for r in records)
    n = len(times)
    passed = sum(r["failure"] is None for r in records)
    tail = statistics.quantiles(times, n=100, method="inclusive")[w.tail_pct - 1] if n > 1 else times[0]
    print(f"workload {w.name}: {n} jobs in {wall:.2f} s")
    print(f"job_s.tail is p{w.tail_pct}: {sum(t > tail for t in times)} of {n} jobs beyond it")
    metrics = {
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail, "s"),
        "jobs_per_s": (passed / wall, "1/s"),
        "pass_frac": (passed / n, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    return metrics, records


def per_layer(w, seed: int, import_s: float) -> tuple[dict, list[dict]]:
    """Each of a fixed set of jobs once plain, then once traced."""
    from spans import Tracer

    tracer = Tracer()
    records = []
    start = time.perf_counter()
    for k, spec in enumerate(itertools.islice(w.specs(seed), w.traced_jobs)):
        started = time.perf_counter() - start
        dt, _, reason = run_job(w.solve_in_process, w.check, spec)
        records.append(_record(k, spec, started, dt, reason, traced=False))
        started = time.perf_counter() - start
        with tracer.installed(), tracer.job_span():
            dt, _, reason = run_job(w.solve_in_process, w.check, spec)
        records.append(_record(k, spec, started, dt, reason, traced=True))
    jobs = tracer.jobs
    metrics = {}
    for name, stats in PER_LAYER.items():
        for stat in stats:
            if stat == "calls":
                value = tracer.calls.get(name, 0) / jobs
            elif stat == "self_s":
                value = tracer.self_s.get(name, 0.0) / jobs
            elif stat == "repeat_ratio":
                value = tracer.repeat_ratio(name)
            else:
                value = tracer.computed.get(f"{name}.{stat}", 0) / jobs
            metrics[f"{name}.{stat}"] = (value, UNITS[stat])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.layer_self_s(layer) / jobs, "s/job")
    metrics["import_s"] = (import_s, "s")
    plain = statistics.median(r["seconds"] for r in records if not r["traced"])
    traced = statistics.median(r["seconds"] for r in records if r["traced"])
    metrics["trace_overhead_frac"] = (traced / plain - 1, "frac")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{w.name}-{seed}"
    tracer.save(stem.with_suffix(".npz"))
    stem.with_suffix(".json").write_text(json.dumps({
        "jobs": jobs,
        "spans": len(tracer.start),
        "calls": dict(sorted(tracer.calls.items())),
        "self_s": dict(sorted(tracer.self_s.items())),
        "computed": dict(sorted(tracer.computed.items())),
        "repeats": dict(sorted(tracer.repeats.items())),
    }, indent=1))
    print(f"workload {w.name}: {jobs} traced jobs, {len(tracer.start)} spans written to {stem}.npz")
    return metrics, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    import_s, setup_s = probe_setup(w.name, args.seed, workloads.child_env())
    if args.trace:
        metrics, records = per_layer(w, args.seed, import_s)
    else:
        metrics, records = end_to_end(w, args.seed, args.seconds, setup_s)
    OUT.mkdir(exist_ok=True)
    (OUT / f"jobs-{w.name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(records, indent=1))
    failed = [r for r in records if r["failure"] is not None]
    for r in failed:
        print(f"job {r['job']} failed: {r['failure']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
