"""Benchmark of the two-stage MCGAN pipeline.

    python3 bench/run.py --workload darcy --seed 1 --seconds 20 --trace 0

Runs one workload from the seed, checks the outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A fuller record (environment,
versions, source size, per-set figures, and the spans of a traced run) goes
to ``bench/out/``.  BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import numpy as np  # noqa: E402  (after the BLAS pin)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _gen_rrmse(rec, column: str) -> float:
    """A moment RRMSE of TrainDiagnostics, over the last epochs and all generators."""
    from workloads import DIAG_EPOCHS

    return _mean([_mean(getattr(off.diag, column)[-DIAG_EPOCHS:]) for off in rec.offlines])


def end_to_end(rec) -> dict[str, float]:
    sets = [s for s in rec.sets if s.ok]
    scored = [s for s in sets if s.index < rec.workload.scored_sets]
    nuts_s = sum(sum(s.chain_s) for s in sets)
    grads = sum(sum(s.chain_grads) for s in sets)
    return {
        "setup_s": _median(rec.setup_s),
        "infer_s": _median([s.infer_s for s in sets]),
        "grad_evals_per_s": grads / nuts_s if nuts_s > 0 else 0.0,
        "post_rrmse_state": _pooled_rrmse(scored, 0),
        "gen_rrmse_std": _gen_rrmse(rec, "rrmse_std"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pooled_rrmse(sets, block: int) -> float:
    """RRMSE of the posterior means of all sets stacked against their truths."""
    from mcgan.metrics import rrmse

    if not sets:
        return 0.0
    est = [s.fit[block] for s in sets]
    truth = [s.fit[block + 1] for s in sets]
    return rrmse(np.concatenate(est), np.concatenate(truth))


def _set_record(s) -> dict:
    out = {k: v for k, v in vars(s).items() if k not in ("samples", "fit")}
    if s.fit is not None:
        out["rrmse_state"] = _pooled_rrmse([s], 0)
        out["rrmse_param"] = _pooled_rrmse([s], 2)
    return out


def per_layer(rec) -> dict[str, float]:
    from workloads import SPANS

    tr = rec.tracer
    off = rec.offlines[rec.traced_rep]
    sets = [s for s in rec.traced_sets if s.ok]
    dur = tr.durations
    solves = dur("darcy.solve")
    grad_calls = dur("bayes.grad")
    grad_s = tr.total("bayes.grad")
    nuts_s = tr.total("samplers.nuts")
    n_grads = sum(sum(s.chain_grads) for s in sets)
    n_draws = sum(sum(s.chain_draws) for s in sets)
    ess = [e for s in sets for e in s.chain_ess]
    if rec.workload.problem == "darcy":
        forward = {"kl_n": off.basis.size, "darcy_checks": off.solve_checks, **rec.probes}
    else:
        forward = {"scenarios": rec.workload.n_train, "pipe_checks": off.solve_checks, **rec.probes}
    untraced = _mean(rec.setup_s) + sum(s.infer_s for s in rec.sets)
    traced = rec.traced_setup_s + sum(s.infer_s for s in rec.traced_sets)
    m = {
        "priors.cov_s": tr.total("priors.cov"),
        "priors.kl_s": tr.total("priors.kl"),
        "priors.kl_n": forward["kl_n"],
        "priors.sample_s": tr.total("priors.sample"),
        "darcy.solves": len(solves),
        "darcy.solve_s": float(solves.sum()),
        "darcy.solve_ms_p50": _pct(solves, 50) * 1e3,
        "darcy.solve_ms_p99": _pct(solves, 99) * 1e3,
        "darcy.max_div": max(forward["darcy_checks"], default=0.0),
        "pipe.scenarios": forward["scenarios"],
        "pipe.batch_s": tr.total("pipe.batch"),
        "pipe.scenarios_per_s": forward["scenarios"] / max(tr.total("pipe.batch"), 1e-12),
        "pipe.max_mass_imbalance": max(forward["pipe_checks"], default=0.0),
        "observe.synth_s": tr.total("observe.synth"),
        "data.from_raw_s": tr.total("data.from_raw"),
        "data.save_s": tr.total("data.save"),
        "data.load_s": tr.total("data.load"),
        "data.bytes": off.data_bytes,
        "nnet.ckpt_save_s": tr.total("nnet.ckpt_save"),
        "nnet.ckpt_load_s": tr.total("nnet.ckpt_load"),
        "nnet.ckpt_bytes": off.ckpt_bytes,
        "gan.train_s": tr.total("gan.train"),
        "gan.steps": off.gan_steps,
        "gan.step_ms": tr.total("gan.train") / max(off.gan_steps, 1) * 1e3,
        "gan.rrmse_mean": _gen_rrmse(rec, "rrmse_mean"),
        "quality.post_rrmse_param": _pooled_rrmse(sets, 2),
        "autodiff.gp_step_ms_p50": _pct(dur("autodiff.gp_step"), 50) * 1e3,
        "autodiff.gp_step_ms_p99": _pct(dur("autodiff.gp_step"), 99) * 1e3,
        "autodiff.gp_tape_nodes": rec.gp_tape_nodes,
        "bayes.map_s": tr.total("bayes.map"),
        "bayes.map_grad_evals": sum(s.map_grads for s in sets),
        "bayes.grad_evals": n_grads,
        "bayes.grad_s": grad_s,
        "bayes.grad_us_p50": _pct(grad_calls, 50) * 1e6,
        "bayes.grad_us_p99": _pct(grad_calls, 99) * 1e6,
        "bayes.push_s": tr.total("bayes.push"),
        "samplers.nuts_s": nuts_s,
        "samplers.self_s": nuts_s - grad_s,
        "samplers.draws": n_draws,
        "samplers.grads_per_draw": n_grads / max(n_draws, 1),
        "samplers.accept_rate": _mean([a for s in sets for a in s.chain_accept]),
        "samplers.ess_min": _median(ess),
        "samplers.ess_per_grad": sum(ess) / max(n_grads, 1),
        "samplers.ess_per_s": _median([e / t for s in sets for e, t in zip(s.chain_ess, s.chain_s)]),
        "samplers.rhat_max": max((s.rhat for s in sets), default=0.0),
        "trace.overhead_frac": traced / untraced - 1.0,
        "failed_frac": rec.ledger.failed / max(rec.ledger.attempted, 1),
    }
    selfs = tr.self_times()
    for name in SPANS:
        m[f"self.{name}_s"] = selfs.get(name, 0.0)
    return m


def result_of(rec, spec: dict, trace: int) -> dict:
    """The printed result: gate outcome, unit counts, and the metrics spec asks for."""
    values = per_layer(rec) if trace else end_to_end(rec)
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": rec.ledger.failed == 0,
        "attempted": rec.ledger.attempted,
        "failed": rec.ledger.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "mcgan").rglob("*.py"))
    )
    return {
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mcgan_source_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "mcgan").is_dir():
        print(f"mcgan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    rec = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), str(OUT_DIR))

    result = result_of(rec, spec, args.trace)
    ledger = rec.ledger
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "failures": ledger.failures,
        "setup_s": rec.setup_s,
        "sets": [_set_record(s) for s in (rec.traced_sets or rec.sets)],
    }
    if args.trace:
        record["spans"] = rec.tracer.to_json()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
