"""Seed-to-seed and run-to-run spread of every end-to-end metric.

    python3 bench/spread.py --seeds 10 --repeats 3 --traced 2 --out bench/results/spread.json

For each workload: one untraced run per seed 1..N (seed-to-seed spread),
``--repeats`` untraced runs of seed 1 (run-to-run spread, and a check that
the quality metrics repeat bit-exactly), and ``--traced`` traced runs of seed
1 (the same check for per-layer counts and quality figures).  Spread is the
distance between the first and third quartile as a share of the median.  A
metric whose seed-to-seed spread exceeds its bound in ``BENCHMARK.json`` is
flagged.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_E2E = ("post_rrmse_state", "gen_rrmse_std")
EXACT_LAYER = (
    "bayes.grad_evals", "bayes.map_grad_evals", "samplers.draws", "samplers.ess_min",
    "gan.rrmse_mean", "quality.post_rrmse_param",
)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def summarise(spec: dict, runs: list[dict], repeats: list[dict]) -> dict:
    rows = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        seeds = [r["metrics"][name]["value"] for r in runs]
        rep = [r["metrics"][name]["value"] for r in repeats]
        s = spread(seeds)
        rows[name] = {
            "unit": m["unit"],
            "bound": m["bound"],
            "median": statistics.median(seeds),
            "seed_spread": s,
            "run_spread": spread(rep) if len(rep) >= 2 else None,
            "seed_spread_over_bound": s / m["bound"],
            "flag": s > m["bound"],
            "values": seeds,
        }
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in range(1, args.seeds + 1)]
        repeats = runs[:1] + [run_once(spec, name, 1, 0) for _ in range(args.repeats - 1)]
        traced = [run_once(spec, name, 1, 1) for _ in range(args.traced)]
        entry = {
            "all_correct": all(r["correct"] for r in runs + repeats + traced),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": summarise(spec, runs, repeats),
            "quality_repeats_exactly": all(
                r["metrics"][k]["value"] == repeats[0]["metrics"][k]["value"]
                for r in repeats for k in EXACT_E2E
            ),
        }
        if traced:
            entry["layer_counts_repeat_exactly"] = all(
                t["metrics"][k]["value"] == traced[0]["metrics"][k]["value"]
                for t in traced for k in EXACT_LAYER
            )
            entry["trace_overhead_frac"] = [t["metrics"]["trace.overhead_frac"]["value"] for t in traced]
            entry["traced_wall_s"] = [round(t["wall_s"], 2) for t in traced]
        report["workloads"][name] = entry
        flagged = [k for k, v in entry["metrics"].items() if v["flag"]]
        worst = max(
            (v["seed_spread_over_bound"], k) for k, v in entry["metrics"].items() if k != "setup_s"
        )
        print(
            f"{name}: correct={entry['all_correct']} wall={entry['wall_s']} "
            f"worst spread/bound={worst[0]:.2f} ({worst[1]}) flagged={flagged}",
            file=sys.stderr,
        )
        for k, v in entry["metrics"].items():
            rs = "-" if v["run_spread"] is None else f"{v['run_spread']:.3f}"
            print(f"  {k:18s} median {v['median']:.5g} seed {v['seed_spread']:.3f} run {rs} bound {v['bound']}",
                  file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
