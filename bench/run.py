"""belldyn benchmark.

    python3 bench/run.py --workload figures|certify|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; belldyn is imported from ./src.
With --trace 0 it measures the end-to-end metrics, with --trace 1 it wraps
every public belldyn function, reports per-layer metrics and writes the
spans to .bench_out/spans_<workload>.npz. End-to-end times are in "ref"
units, multiples of a small reference loop timed every 10 ms inside the
workload (see bdbench/harness.py), because a shared host's speed drifts;
the table also prints them in seconds. Each line before the last is a
human-readable metric table; the last line is one JSON object with the
keys correct, attempted, failed and metrics. bench/predictions.json says
which end-to-end metric each per-layer metric should move.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the set-up
# interpreters that inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from bdbench.workloads import WORKLOADS  # noqa: E402

#: names the issue gives the work-rate metric on each workload
WORK_NAMES = {"figures": ("points_per_s", "rows/s"), "sweep": ("points_per_s", "rows/s"),
              "certify": ("states_per_s", "states/s")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def print_table(workload: str, result: dict) -> None:
    print(f"workload {workload}: {result['cycles']} cycles of {result['ops_per_cycle']} "
          f"operations, {result['attempted']} attempted, {result['failed']} failed")
    for line in result["errors"]:
        print(f"  failed {line}")
    for line in result["known_defects"]:
        print(f"  known defect probe: {line}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    raw = dict(result["raw"])
    if raw:
        name, unit = WORK_NAMES[workload]
        raw[name] = {"value": raw.pop("work_per_s")["value"], "unit": unit}
        raw["fail_frac"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        print("  in seconds, with the host's drift:")
        for name, m in raw.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "belldyn" / "__init__.py").is_file():
        print(f"error: no belldyn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bdbench.harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print_table(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
