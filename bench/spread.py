"""Run every workload, and the run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed on each workload, one run at a time, prints
each run's metrics with their units and its operations attempted and
failed, then per metric the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. Every run lasts BENCHMARK.json's ``run_seconds``. With one seed it
is the one command that runs all workloads:

    python3 bench/spread.py --seeds 7
    python3 bench/spread.py --seeds 1-10

Each run's JSON line is appended to ``--log`` so that two sets of runs can
be compared afterwards (``--compare A.jsonl B.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def load(path) -> dict:
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        runs[rec["workload"]].append(rec)
    return runs


def report(runs: dict) -> None:
    for workload, recs in runs.items():
        print(f"{workload}: {len(recs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in recs})}, "
              f"all correct: {all(r['correct'] for r in recs)}")
        for metric in recs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in recs]
            if len(values) < 2:
                continue
            med, share = spread(values)
            print(f"  {metric:20s} median {med:.6g} {recs[0]['metrics'][metric]['unit']:8s} "
                  f"IQR/median {share:.4f}")


def compare(a: dict, b: dict) -> None:
    for workload in a:
        for metric in a[workload][0]["metrics"]:
            ma = statistics.median(r["metrics"][metric]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][metric]["value"] for r in b[workload])
            print(f"{workload:12s} {metric:20s} {ma:.6g} -> {mb:.6g} ({(mb - ma) / ma:+.4f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--log", default=str(RUN.parent / "out" / "spread.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar="JSONL")
    args = parser.parse_args()
    if args.compare:
        compare(load(args.compare[0]), load(args.compare[1]))
        return 0
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=180)
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
            rec["workload"], rec["seed"] = workload, seed
            rec["elapsed_s"] = time.perf_counter() - t0
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in rec["metrics"].items())
                  + f"; attempted {rec['attempted']} failed {rec['failed']} correct {rec['correct']}",
                  flush=True)
    report(load(args.log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
