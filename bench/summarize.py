"""Summarize benchmark results saved under ``.bench_work/results/``.

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median) across the saved runs,
one per seed.  ``--baseline PATH`` also writes these figures, the run
metadata and the tracing overhead (median traced pass total_s minus the
untraced one) to a JSON file.

    python3 bench/run.py --workload desk --seed 3 --trace 0   # repeat per seed
    python3 bench/summarize.py [--baseline bench/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_work" / "results"
#: Why of each workload that bench/run.py runs but BENCHMARK.json does not list.
UNLISTED_WHYS = {
    "cv": "cv subcommand, 8 variants x 2 folds, 60-iteration chains, jobs=2: many small fits "
    "(OLS beside MCMC), consensus and predict per fold, and process pools",
}


def load(trace: int) -> dict:
    by_workload: dict = {}
    for path in sorted(RESULTS.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "runs": len(values),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    untraced, traced = load(0), load(1)
    whys = dict(UNLISTED_WHYS)
    whys.update({w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]})
    out = {}
    for workload, records in untraced.items():
        metrics = {}
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            metrics[name] = dict(summary(values), unit=records[0]["metrics"][name]["unit"])
            s = metrics[name]
            print(
                f"{workload:<5} {name:<16} median {s['median']:12.5g} {s['unit']:<5} "
                f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.3f} (n={s['runs']})"
            )
        entry = {
            "why": whys.get(workload),
            "seeds": [r["seed"] for r in records],
            "correct": all(r["correct"] for r in records),
            "metrics": metrics,
            "metadata": records[0]["metadata"],
        }
        if traced.get(workload):
            traced_total = statistics.median(r["total_s"] for r in traced[workload])
            entry["traced_total_s"] = traced_total
            entry["tracing_overhead_s"] = traced_total - metrics["total_s"]["median"]
            print(f"{workload:<5} tracing overhead {entry['tracing_overhead_s']:+.3f} s on total_s")
        out[workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
