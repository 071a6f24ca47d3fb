"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload micro-ts-r1 --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout: the solver is imported from the
checkout's ``src/`` and from nowhere else, so without it the command exits
with status 2.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a readable summary
goes to standard error, and the full record (run environment, raw samples,
gate failures, spans) to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# two simulated ranks plus BLAS threads must not outnumber a 2-core machine
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    if not (ROOT / "src" / "twoscalefem" / "__init__.py").is_file():
        print(f"perfbench: no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="an untraced run starts solve rounds while less time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    workload = harness.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = harness.trace(workload, args.seed, out_dir, spans_path=f"{stem}-spans.json")
    else:
        run = harness.measure(workload, args.seed, args.seconds, out_dir)
    run["workload"] = workload.name
    run["seed"] = args.seed
    run["environment"] = harness.environment(ROOT, BLAS_THREAD_VARS)
    with open(f"{stem}.json", "w") as fh:
        json.dump(run, fh, indent=1)

    result = run["result"]
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':45s} {run['fail_ratio']!s:>24} "
          f"({result['failed']} of {result['attempted']} solves)", file=sys.stderr)
    for problem in run["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
