"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload gibbs --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up is timed in this process and in fresh child processes
(``--probe-setup``), and ``setup_s`` is their median.  Then come the
workload's once-per-run calls, and rounds of its operations until the next
round would end more than ``--seconds`` after the first began; the checks run
on the pooled rounds.  The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  The line before it holds the checks and the per-workload
figures; both, and the spans of a traced run, are also written under
``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads its BLAS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2  # before the rounds, and as many after them

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "tta_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("gibbs", "expansion", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time imports and set-up only, print the seconds, exit")
    return parser.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "anhcrystal" / "__init__.py").is_file():
        sys.exit(f"no package source at {src}: run from the root of a checkout")
    sys.path.insert(0, str(src))


def probe_setup(args) -> list[float]:
    """Set-up seconds measured in fresh interpreters, imports included.

    Half the probes run before the rounds and half after, so that set-up is
    sampled at both ends of the run rather than in one spell of the host."""
    import subprocess

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def run_rounds(wl, state, rec, seed: int, seconds: float):
    """The once-per-run calls, then whole rounds until the next one would
    likely end more than ``seconds`` after the first began."""
    import statistics

    from workloads import round_seeds

    rounds, walls = [], []
    wl.run_once(state, rec, seed)
    once_ops = rec.attempted
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        rounds.append(wl.run_round(state, rec, round_seeds(seed, len(rounds))))
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return rounds, walls, once_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import math
    import resource
    import statistics
    from contextlib import nullcontext

    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import WORKLOADS, Recorder

    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        wl.setup(args.seed)
        print(time.perf_counter() - T0)
        return 0

    tracer = Tracer() if args.trace else None
    with tracer.patched() if tracer else nullcontext():
        with tracer.span("op.setup", op=0) if tracer else nullcontext():
            state = wl.setup(args.seed)
        setup_here = time.perf_counter() - T0
        setups = [] if tracer else [setup_here] + probe_setup(args)
        rec = Recorder(tracer)
        rounds, walls, once_ops = run_rounds(wl, state, rec, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks, detail, tta_keys, from_results = wl.summarize(state, rounds, rec)
    except Exception as exc:  # a failed operation leaves nothing to pool
        checks, detail, tta_keys, from_results = (
            [("summary", False, f"{type(exc).__name__}: {exc}")], {}, (), {})
    correct = all(ok for _, ok, _ in checks)
    wall_s = statistics.median(walls)

    if tracer:
        values = layer_metrics(tracer.spans, len(rounds), from_results, wall_s, once_ops)
        units = PER_LAYER
    else:
        setups += probe_setup(args)
        values = {"setup_s": statistics.median(setups), "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb,
                  "tta_s": math.exp(statistics.fmean(math.log(detail[k])
                                                     for k in tta_keys))}
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "round_walls": walls,
              "op_walls": rec.walls,
              "setup_samples": setups, "peak_rss_mb": peak_rss_mb,
              "detail": detail, "errors": rec.errors,
              "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
              "environment": environment(), "result": result}

    for name, ok, text in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {text}", file=sys.stderr)
    for err in rec.errors:
        print(f"[FAILED OPERATION] {err}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if tracer:
        names = sorted({s.name for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.op, s.counts]
                for s in tracer.spans]
        Path(f"{stem}-spans.json").write_text(
            json.dumps({"columns": ["name", "start", "end", "parent", "op", "counts"],
                        "names": names, "spans": rows}))
    print(json.dumps({k: report[k] for k in ("workload", "rounds", "detail", "checks")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
