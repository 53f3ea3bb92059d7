"""Run the benchmark k times per workload and write the next BENCH_<n>.json.

    python3 tools/bench_record.py --runs 3

Runs ``perfbench/run.py`` (untraced) ``--runs`` times for each workload, one
process per run of the length ``run_seconds`` that ``BENCHMARK.json`` fixes,
with seeds 1, 2, ..., so that records made with the same ``--runs`` are runs
of the same inputs.  Each run's check lines pass through on stderr.  Writes
``BENCH_<n>.json`` at the root of the checkout, n one past the highest record
there, holding per workload the median and the per-run values of each
end-to-end metric, the operations attempted and failed, whether every run's
checks passed, and the environment the runs reported: ``nproc``, the numpy
and scipy versions and the BLAS thread count.  Compare two records' medians
only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gibbs", "expansion", "oracle")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per workload")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("need at least one run")
    return args


def next_record(root: Path) -> Path:
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def run_seconds(root: Path) -> float:
    return float(json.loads((root / "BENCHMARK.json").read_text())["run_seconds"])


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line of one benchmark run, and the environment it reported."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return result, json.loads(report.read_text())["environment"]


def summarize(results: list[dict]) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"median": statistics.median(values), "unit": first["unit"],
                         "values": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def commit() -> str:
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds = run_seconds(ROOT)
    seeds = list(range(1, args.runs + 1))
    workloads, environment = {}, None
    for workload in WORKLOADS:
        results = []
        for seed in seeds:
            result, environment = run_once(workload, seed, seconds)
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
        workloads[workload] = summarize(results)
    record = {"commit": commit(), "runs": args.runs, "seconds": seconds,
              "seeds": seeds, "environment": environment, "workloads": workloads}
    path = next_record(ROOT)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
