"""The benchmark's own tests: generators, oracles, failure counting, tracing.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import gen
import oracles
import run
import workloads
from spans import Tracer

VERTICES = tuple(str(v) for v in range(1, gen.LINE_N + 1))


def take(stream, n):
    return list(itertools.islice(stream, n))


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("specs", [gen.bundled_cases, gen.line_glue_specs, gen.dense_specs])
def test_specs_are_deterministic_per_seed(specs):
    assert take(specs(7), 12) == take(specs(7), 12)
    assert take(specs(7), 12) != take(specs(8), 12)


def test_built_inputs_are_deterministic_per_seed():
    spec = take(gen.dense_specs(3), 1)[0]
    a, b = gen.build_dense(spec), gen.build_dense(spec)
    assert a.algebra is not b.algebra
    assert all(np.array_equal(a.maps[k], b.maps[k]) for k in a.maps)
    rec, t1, t3, universes = gen.build_line_glue(take(gen.line_glue_specs(3), 1)[0])
    assert [len(u) for u in universes] == [10, 6, 28]
    assert t1.algebra is rec.a_algebra and t3.algebra is rec.c_algebra


def test_line_glue_blocks_cover_every_pair():
    specs = take(gen.line_glue_specs(5), 12)
    for block in range(3):
        kinds = {(s.t1_kind, s.t3_kind) for s in specs[4 * block : 4 * block + 4]}
        assert kinds == set(gen.T_KINDS)


def test_bundled_cases_round_robin():
    cases = take(gen.bundled_cases(5), 8)
    assert [c[:2] for c in cases] == list(gen.BUNDLED_CASES) * 2


def test_dense_specs_have_the_stated_shape():
    lo, hi = gen.DENSE_TOTAL_DIM
    for spec in take(gen.dense_specs(11), 30):
        assert lo <= sum(j - i + 1 for i, j in spec.parts) <= hi
        assert sorted(Counter(spec.parts).values(), reverse=True) == list(gen.DENSE_PATTERN)


def test_change_of_basis_keeps_the_interval_multiset():
    parts = [(0, 3), (0, 3), (2, 6), (5, 5)]
    rep = gen.change_basis(gen.interval_sum(VERTICES, parts), np.random.default_rng(1), gen.PRIME)
    assert any(np.count_nonzero(m) > 1 for m in rep.maps.values())
    mult = oracles.interval_multiplicities(VERTICES, rep.dims, rep.maps, gen.arrow_name, gen.PRIME)
    assert mult == Counter(parts)


# -- oracles ----------------------------------------------------------------------

GOOD_5_2 = """example 5-2: glued tilting module
  (P(1)|0) x1
  (P(1)|P(3)) x1
  (S(1)|S(3)) x1
  (S(2)|0) x1
  (S(2)|P(4)) x1
degree n2 = 2
decomposition matches the expected summands
"""


def test_bundled_oracle_accepts_the_expected_report():
    assert oracles.check_bundled("5-2", 0, GOOD_5_2) is None


@pytest.mark.parametrize(
    "code, text",
    [
        (2, GOOD_5_2),
        (0, GOOD_5_2.replace("decomposition matches the expected summands", "MISMATCH")),
        (0, GOOD_5_2.replace("  (S(2)|0) x1\n", "")),
        (0, GOOD_5_2.replace("(S(2)|0)", "(S(2)|S(4))")),
    ],
)
def test_bundled_oracle_rejects_corrupted_reports(code, text):
    assert oracles.check_bundled("5-2", code, text) is not None


def _tilting_t2(drop: int | None = None):
    """The projective generator of A7 in a random basis: a 1-tilting module."""
    parts = [(i, gen.LINE_N - 1) for i in range(gen.LINE_N) if i != drop]
    rep = gen.change_basis(gen.interval_sum(VERTICES, parts), np.random.default_rng(2), gen.PRIME)
    names = Counter({gen.interval_name(VERTICES, i, j): 1 for i, j in parts})
    return rep, names


def _check_t2(rep, n2, names):
    return oracles.check_line_glue(VERTICES, gen.arrow_name, rep.dims, rep.maps, n2, names, gen.PRIME)


def test_line_glue_oracle_accepts_a_tilting_answer():
    rep, names = _tilting_t2()
    assert _check_t2(rep, 1, names) is None


def test_line_glue_oracle_rejects_a_dropped_summand():
    rep, names = _tilting_t2(drop=3)
    assert _check_t2(rep, 1, names) is not None


def test_line_glue_oracle_rejects_wrong_n2():
    rep, names = _tilting_t2()
    assert _check_t2(rep, 2, names) is not None


def test_line_glue_oracle_rejects_a_misreported_decomposition():
    rep, names = _tilting_t2()
    names = names - Counter({"[4,7]": 1}) + Counter({"[4,6]": 1})
    assert _check_t2(rep, 1, names) is not None


def _dense_answer(parts):
    groups = Counter(parts)
    return [
        (gen.interval_sum(VERTICES, [iv]).dims, gen.interval_sum(VERTICES, [iv]).maps, count)
        for iv, count in groups.items()
    ]


def test_dense_oracle():
    parts = [(0, 3), (0, 3), (2, 6), (5, 5)]
    spec = gen.DenseSpec(tuple(parts), 0)
    check = lambda summands: oracles.check_dense(  # noqa: E731
        VERTICES, gen.arrow_name, spec.dim_vectors(), summands, gen.PRIME
    )
    assert check(_dense_answer(parts)) is None
    assert check(_dense_answer(parts[1:])) is not None  # one summand dropped
    merged = gen.interval_sum(VERTICES, [(2, 6), (5, 5)])
    not_indecomposable = _dense_answer(parts[:2]) + [(merged.dims, merged.maps, 1)]
    assert check(not_indecomposable) is not None


def test_dense_job_passes_its_oracle():
    spec = gen.DenseSpec(((1, 2), (1, 2), (3, 3)), 5)
    assert workloads.check_dense(spec, workloads.solve_dense(spec)) is None


# -- the run loop -------------------------------------------------------------------


def _fake_workload(solve):
    return workloads.Workload(
        "fake", lambda seed: itertools.count(), solve, solve, lambda spec, answer: None, 1, 3, True, 50
    )


def test_a_raising_job_is_counted_as_failed():
    def solve(k):
        if k % 2:
            raise ValueError("boom")
        return k

    metrics, records = run.end_to_end(_fake_workload(solve), 0, 0.05, 0.1)
    failed = [r for r in records if r["failure"] is not None]
    assert len(records) >= 2 and len(failed) == len(records) // 2
    assert all(r["failure"].startswith("raised ValueError") for r in failed)
    assert metrics["pass_frac"][0] == 1 - len(failed) / len(records)


def test_oracle_failures_are_counted():
    w = replace(_fake_workload(lambda k: k), check=lambda spec, answer: "wrong" if spec == 0 else None)
    _, records = run.end_to_end(w, 0, 0.05, 0.1)
    assert [r["job"] for r in records if r["failure"]] == [0] and len(records) > 1


def test_tail_is_the_workload_percentile():
    metrics, records = run.end_to_end(replace(_fake_workload(lambda k: k), tail_pct=70), 0, 0.05, 0.1)
    times = sorted(r["seconds"] for r in records)
    assert times[0] <= metrics["job_s.tail"][0] <= times[-1]
    assert sum(t > metrics["job_s.tail"][0] for t in times) <= 0.3 * len(times) + 1


def test_child_env_drops_ambient_prime_and_seed(monkeypatch):
    monkeypatch.setenv("QUIVERGLUE_PRIME", "7")
    monkeypatch.setenv("QUIVERGLUE_SEED", "3")
    env = workloads.child_env()
    assert "QUIVERGLUE_PRIME" not in env and "QUIVERGLUE_SEED" not in env
    assert env["PYTHONPATH"] == str(workloads.ROOT / "src")


# -- tracing ---------------------------------------------------------------------------


def test_wrappers_reach_every_binding_and_are_removed():
    from quiverglue import approx, homology, linalg, modcat

    original = modcat.hom_basis
    rref = linalg.PrimeField.rref
    tracer = Tracer()
    with tracer.installed():
        assert homology.hom_basis is modcat.hom_basis is approx.hom_basis
        assert modcat.hom_basis.__wrapped__ is original
        assert linalg.PrimeField.rref is not rref
    assert homology.hom_basis is original and approx.hom_basis is original
    assert linalg.PrimeField.rref is rref


def _traced_counts(spec):
    tracer = Tracer()
    with tracer.installed(), tracer.job_span():
        workloads.solve_dense(spec)
    return dict(tracer.calls), dict(tracer.computed), dict(tracer.repeats), tracer


def test_traced_counts_repeat_exactly():
    spec = gen.DenseSpec(((0, 1), (0, 1), (2, 4)), 9)
    first, second = _traced_counts(spec), _traced_counts(spec)
    assert first[:3] == second[:3]
    calls, computed, _, tracer = first
    assert calls["linalg.rref"] > 0 and computed["linalg.rref.cells"] > 0
    assert calls["job"] == 1 and calls["modcat.decompose"] == 1
    # self times add up to the job span
    job = tracer.end[0] - tracer.start[0]
    assert sum(tracer.self_s.values()) == pytest.approx(job, rel=1e-6)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end(_fake_workload(lambda k: k), 0, 0.01, 0.1)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in metrics.items()]
    layer_names = [f"{name}.{stat}" for name, stats in run.PER_LAYER.items() for stat in stats]
    layer_names += [f"{layer}.self_s" for layer in run.LAYERS] + ["import_s", "trace_overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_run_prints_every_metric_and_the_result_line(capsys):
    assert run.main(["--workload", "decompose-dense", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == gen.DENSE_POOL_SIZE
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
