"""Benchmark of lddg: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload ablate-default --seed 1 --seconds 30 --trace 0

Workloads: ablate-default, sweep-fullbatch (see README.md).
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Exit code 2 means the
checkout holds no lddg program to measure; no result is printed then.
"""

import argparse
import json
import os
import sys

# BLAS threads are pinned before numpy is imported: the program's matrices
# are at most 1600 x 32, where extra threads only add scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, errors = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
