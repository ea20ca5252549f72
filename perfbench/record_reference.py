"""Record the correctness reference of a workload for a range of seeds.

    python3 perfbench/record_reference.py --workload blocks --seeds 0-39

Runs the workload once per seed and stores every operation's record in
``perfbench/reference/<workload>.json``, next to the qplab commit and source
digest it came from.  A seed whose outputs break the workload's invariants
is refused, so a reference never enshrines a wrong answer.  Seeds already
in the file are kept unless recorded again.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, WORKLOADS, environment, run_process


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, help="range such as 0-39")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    path = REFERENCE / f"{args.workload}.json"
    data = {"seeds": {}}
    if path.is_file():
        with open(path, encoding="ascii") as fh:
            data = json.load(fh)
    for seed in seeds:
        res = run_process(args.workload, seed, 0.0)
        rep = res["reps"][0]
        if rep["invariant_failures"]:
            for _, msg in rep["invariant_failures"]:
                print(f"seed {seed}: {msg}", file=sys.stderr)
            return 1
        data["seeds"][str(seed)] = rep["records"]
        print(f"{args.workload} seed {seed}: {res['ops']} operations",
              flush=True)
    env = environment(res["blas"])
    data["recorded_with"] = {k: env[k] for k in (
        "qplab_commit", "qplab_src_sha256", "numpy", "scipy", "blas")}
    data["seeds"] = dict(sorted(data["seeds"].items(),
                                key=lambda kv: int(kv[0])))
    REFERENCE.mkdir(exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
