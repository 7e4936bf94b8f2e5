"""floatdyn benchmark: generate -> train -> evaluate on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_fhnn --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` runs the traced
pass and prints every per-layer metric.  Human-readable lines (metrics by
name and unit, correctness checks, probe failures) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and run details go to
``.perfbench_out/`` in the checkout.

``python3 perfbench/run.py --write-benchmark-json`` rewrites
``BENCHMARK.json`` from the definitions in this directory.

The program is imported from ``src/`` and the finite-difference oracles
from ``tests/oracles.py`` of the same checkout; without them the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.dont_write_bytecode = True
# one process, no worker threads: numpy's BLAS would otherwise start its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_SECONDS = 30

# end-to-end metric -> (unit, better, bound as a share of the parent's median)
# Timing bounds are the widest allowed: on a shared 2-core VM one
# generate_dataset call takes 0.12-0.27 s from one call to the next, and
# the medians of 30 s runs drift by 10-20% over minutes.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pipeline_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "gen_samples_per_s": ("1/s", "higher", 0.25),
    "rollout_steps_per_s": ("1/s", "higher", 0.25),
}


def benchmark_json(workloads: dict, per_layer: dict) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in workloads.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, (unit, better) in per_layer.items()
        ],
    }


def _import_program():
    """Put the checkout's src/ and tests/ on the path and import the benchmark."""
    missing = [p for p in (ROOT / "src" / "floatdyn", ROOT / "tests" / "oracles.py") if not p.exists()]
    if missing:
        raise ImportError(f"not a floatdyn checkout, missing: {', '.join(str(p) for p in missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    import tracing
    import workloads

    return workloads, tracing


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    try:
        workloads, tracing = _import_program()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    manifest = benchmark_json(workloads.WORKLOADS, tracing.PER_LAYER)
    manifest_path = ROOT / "BENCHMARK.json"
    if args.write_benchmark_json:
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        return 0
    if not manifest_path.exists() or json.loads(manifest_path.read_text(encoding="utf-8")) != manifest:
        print("perfbench: BENCHMARK.json disagrees with perfbench/; rerun --write-benchmark-json", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in {**out["end_to_end"], **out["extra"]}.items():
        print(f"metric {name} {_fmt(value)} {unit}")
    for key, value in out["details"].items():
        print(f"detail {key} {value}")
    for name, ok, detail in out["checks"]:
        print(f"check {name} {'ok' if ok else 'FAIL'} {detail}")
    if args.trace:
        for name, metric in out["per_layer"].items():
            print(f"layer {name} {_fmt(metric['value'])} {metric['unit']}")
        for name, seconds in sorted(out["self_times"].items(), key=lambda kv: -kv[1]):
            print(f"self_time {name} {seconds:.4f} s")
        metrics = out["per_layer"]
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["end_to_end"].items()}

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(out, default=str) + "\n", encoding="utf-8")

    result = {
        "correct": all(ok for _, ok, _ in out["checks"]),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
