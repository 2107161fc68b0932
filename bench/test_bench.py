"""Self-tests of the benchmark: chain diagnostics, tracing, and tiny workloads.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
from diagnostics import bulk_ess, ess, max_rhat, min_bulk_ess, rank_normalize, rhat  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class TestDiagnostics:
    def test_ess_of_iid_draws_is_about_n(self):
        x = np.random.default_rng(0).standard_normal((4, 1000))
        assert ess(x) == pytest.approx(4000, rel=0.1)
        assert bulk_ess(x) == pytest.approx(4000, rel=0.1)

    def test_ess_of_ar1_chain_matches_theory(self):
        rng = np.random.default_rng(1)
        rho, n = 0.8, 20000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = rho * x[t - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal()
        assert ess(x) == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.15)

    def test_rhat_of_identical_chains_is_below_1_01(self):
        x = np.random.default_rng(2).standard_normal((4, 2000))
        assert rhat(x) < 1.01

    def test_rhat_of_shifted_chains_exceeds_1_1(self):
        x = np.random.default_rng(3).standard_normal((4, 500))
        x[2:] += 3.0
        assert rhat(x) > 1.1

    def test_rank_normalize_is_monotone_with_tied_ranks(self):
        z = rank_normalize(np.array([[3.0, 1.0, 2.0, 2.0]]))
        assert z[0, 1] < z[0, 2] == z[0, 3] < z[0, 0]

    def test_chain_summaries_take_the_worst_coordinate(self):
        rng = np.random.default_rng(4)
        good = rng.standard_normal((400, 2))
        sticky = good.copy()
        sticky[:, 1] = np.repeat(rng.standard_normal(40), 10)
        assert min_bulk_ess(sticky) < 0.5 * min_bulk_ess(good)
        assert max_rhat([good, good + 5.0]) > 1.1

    def test_too_short_chains_rejected(self):
        with pytest.raises(ValueError):
            bulk_ess(np.zeros((1, 3)))


class TestTracer:
    def test_self_time_excludes_children(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        outer = tr.durations("outer")[0]
        inner = tr.total("inner")
        assert [s[3] for s in tr.spans] == [-1, 0, 0]
        assert tr.self_times()["outer"] == pytest.approx(outer - inner)
        assert tr.to_json()["spans"][0][1] == 0.0


def tiny(name: str):
    w = WORKLOADS[name]
    small = dict(n_train=48, epochs=2, warmup=10, draws=20, scored_sets=2)
    if w.problem == "darcy":
        small["grid"] = 8
    return replace(w, **small)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    rec = run_workload(tiny(name), seed=7, seconds=0.0, trace=bool(trace), workdir_root=str(tmp_path))
    result = run.result_of(rec, SPEC, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"], rec.ledger.failures
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_tiny_workload_repeats_bit_exactly(tmp_path):
    w = tiny("darcy")
    a = run.result_of(run_workload(w, 3, 0.0, True, str(tmp_path)), SPEC, 1)["metrics"]
    b = run.result_of(run_workload(w, 3, 0.0, True, str(tmp_path)), SPEC, 1)["metrics"]
    for key in ("quality.post_rrmse_param", "gan.rrmse_mean", "bayes.grad_evals", "samplers.ess_min"):
        assert a[key]["value"] == b[key]["value"]
