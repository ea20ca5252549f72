"""qplab benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload green-grid --seed 0 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  A run starts four fresh interpreters
(``worker.py``) one after the other; each imports qplab from ``src``, builds
the workload's inputs from the seed (``setup_s``) and repeats the workload
with ``jobs=1`` and one BLAS thread for its share of ``--seconds``.  Times are medians over all
repetitions, memory and set-up medians over the processes.  Every
repetition gets its own empty ``QPLAB_CACHE_DIR`` and bundle directory
under ``perfbench/tmp``, removed when it ends.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of the
traced repetitions, plus ``trace.overhead_frac``; spans go to
``perfbench/out``.  Every repetition's outputs are checked against
``perfbench/reference`` (when the seed was recorded) and against the
workload's invariants.  The last line of
stdout is the JSON result; human-readable lines and the environment stamp
come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = BENCH / "tmp"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

WORKLOADS = ("green-grid", "msa-ladder", "transport", "blocks")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PROCESSES = 4           # fresh interpreters per run, so four set-up samples
RUN_LIMIT_S = 170.0     # every process is stopped by then
# With the default two BLAS threads on a shared two-core VM, transport's
# wall_s spread over ten runs was 11% against 4% for its cpu_s, and
# green-grid's runs ranged over 20%: any other load on the second core
# stalls the threaded kernels.  One thread per process keeps runs
# comparable; set these variables in the caller's environment to measure
# another policy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


class RunFailed(RuntimeError):
    pass


def run_process(workload: str, seed: int, seconds: float, *,
                trace: bool = False, spans: Path | None = None,
                index: int = 0, deadline: float = RUN_LIMIT_S) -> dict:
    """Start one worker, time its set-up, collect its JSON result."""
    TMP.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="proc-", dir=TMP)
    try:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(int(trace)), "--tmp", tmp,
               "--process", str(index)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, env=worker_env())
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"process {index} did not finish in time")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if not first.startswith("READY") or proc.returncode != 0:
            raise RunFailed(f"process {index} exited with code "
                            f"{proc.returncode} before reporting")
        result = json.loads(rest.strip().splitlines()[-1])
        result["setup_s"] = setup
        result["traced"] = trace
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="ascii") as fh:
        return json.load(fh)["seeds"]


def failed_ops(workload: str, ops: int, rep: dict, ref: list | None) -> set:
    """Indices of operations whose outputs are wrong in one repetition."""
    from workloads import WORKLOADS as SPECS, matches

    recs = rep["records"]
    if len(recs) != ops or (ref is not None and len(ref) != ops):
        return set(range(ops))
    bad = {i for i, _ in rep["invariant_failures"]}
    if ref is not None:
        tol = SPECS[workload].tolerances
        bad |= {i for i in range(ops) if not matches(ref[i], recs[i], tol)}
    return bad


def environment(blas: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        if (ROOT / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qplab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": blas.get("numpy"),
        "scipy": blas.get("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "libraries")},
        "thread_env": {k: v for k, v in sorted(worker_env().items())
                       if k.endswith("_NUM_THREADS")},
        "qplab_commit": commit,
        "qplab_src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker (see run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "qplab" / "__init__.py").is_file():
        print(f"error: no qplab sources under {SRC}; run from the root of "
              "a qplab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"spans-{tag}.jsonl" if args.trace else None
    if spans is not None and spans.exists():
        spans.unlink()
    ref = load_reference(args.workload).get(str(args.seed))
    if ref is None:
        print(f"note: no recorded reference for seed {args.seed}; checking "
              "invariants only", file=sys.stderr)

    procs: list = []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        for k in range(PROCESSES):
            elapsed = time.perf_counter() - start
            setup = procs[-1]["setup_s"] if procs else 1.0
            share = (args.seconds - elapsed) / (PROCESSES - k) - setup
            traced = bool(args.trace) and k % 2 == 1
            res = run_process(args.workload, args.seed, max(share, 0.0),
                              trace=traced, spans=spans if traced else None,
                              index=k, deadline=RUN_LIMIT_S - elapsed)
            procs.append(res)
            for j, rep in enumerate(res["reps"]):
                bad = failed_ops(args.workload, res["ops"], rep, ref)
                attempted += res["ops"]
                failed += len(bad)
                for _, msg in rep["invariant_failures"]:
                    print(f"process {k} rep {j}: {msg}", file=sys.stderr)
                if bad and ref is not None:
                    print(f"process {k} rep {j}: operations {sorted(bad)} "
                          "differ from the reference", file=sys.stderr)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [r for p in procs if not p["traced"] for r in p["reps"]]
    traced = [r for p in procs if p["traced"] for r in p["reps"]]
    med = statistics.median
    if args.trace:
        from tracer import COUNT_METRICS, UNITS

        layers = [r["layers"] for r in traced]
        values = {k: med(l[k] for l in layers) for k in layers[0]}
        for key in COUNT_METRICS:
            seen = {l[key] for l in layers}
            if len(seen) > 1:
                print(f"warning: {key} differs between traced repetitions: "
                      f"{sorted(seen)}", file=sys.stderr)
            values[key] = layers[0][key]
        values["trace.overhead_frac"] = (
            med(r["wall_s"] for r in traced)
            / med(r["wall_s"] for r in plain) - 1.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in UNITS.items()}
    else:
        untraced = [p for p in procs if not p["traced"]]
        metrics = {
            "wall_s": med(r["wall_s"] for r in plain),
            "cpu_s": med(r["cpu_s"] for r in plain),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in untraced),
            "setup_s": med(p["setup_s"] for p in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}

    env = environment(procs[0]["blas"])
    fail_frac = failed / attempted
    print(f"{args.workload} seed {args.seed}: {len(procs)} processes, "
          f"{len(plain)} timed and {len(traced)} traced repetitions, "
          f"{attempted} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<32} {fail_frac:.6g} ratio")
    print("env: " + json.dumps(env, sort_keys=True))
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "fail_frac": fail_frac,
              "metrics": metrics, "processes": [
                  dict(p, reps=[{k: v for k, v in r.items()
                                 if k != "records"} for r in p["reps"]])
                  for p in procs]}
    with open(OUT / f"result-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
