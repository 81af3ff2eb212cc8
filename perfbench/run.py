"""mpctrack benchmark command.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Runs one workload (desk, standard, clutter or pipeline) from the repository
root's `src/` for about `--seconds` seconds in this one process. It prints a
line of details, with `--trace 1` a per-layer table, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. `--trace 0` gives
the end-to-end metrics and `--trace 1` the per-layer ones. README.md in this
directory defines every workload and metric.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS/OpenMP thread: the benchmark measures a single worker.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk", "standard", "clutter", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_table(table: dict, metrics: dict) -> None:
    """Per-layer ms per snapshot, with the K, M and J they were taken at."""
    m = {k: v["value"] for k, v in metrics.items()}
    print(f"layers per snapshot over {table['steps']} traced snapshots at "
          f"K={m['tracker.K']:.2f} M={m['tracker.M']:.2f} "
          f"J={m['tracker.J']:.0f}")
    print(f"{'layer':32s} {'calls':>8s} {'ms':>10s} {'self ms':>10s}")
    for name, row in sorted(table["layers"].items(),
                            key=lambda kv: -kv[1]["self_ms"]):
        print(f"{name:32s} {row['calls']:8.2f} {row['ms']:10.4f} "
              f"{row['self_ms']:10.4f}")
    print(f"self time inside snapshots: {table['in_step_self_ms']:.4f} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpctrack" / "__init__.py").is_file():
        print(f"perfbench: no mpctrack sources in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench  # needs the thread pinning and the source path above

    out = bench.measure(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT)
    print(json.dumps({"info": out["info"]}))
    if out["table"] is not None:
        print_table(out["table"], out["result"]["metrics"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
