"""One workload process: a fresh interpreter that repeats the workload.

Started by ``run.py``, with ``PYTHONPATH`` pointing at the checkout's
``src``.  Imports qplab, builds the seeded inputs, prints ``READY <ops>``
(the parent's clock for ``setup_s`` stops there), then repeats the
workload while another repetition fits in ``--seconds``, at least once.  Every repetition gets a
fresh ``QPLAB_CACHE_DIR`` and bundle directory.  The last line of output is
one JSON object with each repetition's timings and records, the peak
resident memory and the BLAS environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import time


def _call(lib, names: tuple, restype):
    for sym in names:
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def _openblas(path: str) -> dict:
    lib = ctypes.CDLL(path)
    config = _call(lib, ("scipy_openblas_get_config64_",
                         "scipy_openblas_get_config",
                         "openblas_get_config64_", "openblas_get_config"),
                   ctypes.c_char_p)
    return {"library": os.path.basename(path),
            "threads": _call(lib, ("scipy_openblas_get_num_threads64_",
                                   "scipy_openblas_get_num_threads",
                                   "openblas_get_num_threads64_",
                                   "openblas_get_num_threads"),
                             ctypes.c_int),
            "config": config.decode("ascii", "replace") if config else None}


def blas_info() -> dict:
    """BLAS library and its effective thread count, as loaded here."""
    import numpy as np
    import scipy

    info: dict = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except Exception as exc:    # older numpy: no dict mode
        info["name"] = f"unknown ({type(exc).__name__})"
    # numpy and scipy each load their own OpenBLAS; report both
    paths: list = []
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            name = line.split()[-1]
            if "openblas" in name.lower() and ".so" in name and \
                    name not in paths:
                paths.append(name)
    info["libraries"] = [_openblas(path) for path in paths]
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--process", type=int, default=0)
    args = ap.parse_args()

    import warnings

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # moment_p and the config parser warn through the warnings machinery;
    # a benchmark run must not pay for formatting them
    warnings.simplefilter("ignore")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.tmp)
    print(f"READY {inputs['ops']}", flush=True)

    reps: list = []
    start = time.perf_counter()
    while True:
        # a fresh cache and bundle directory for every repetition
        rep_dir = os.path.join(args.tmp, f"rep{len(reps)}")
        os.mkdir(rep_dir)
        os.mkdir(os.path.join(rep_dir, "cache"))
        os.environ["QPLAB_CACHE_DIR"] = os.path.join(rep_dir, "cache")
        inputs["out_dir"] = os.path.join(rep_dir, "bundle")
        if tracer is not None:
            tracer.spans.clear()
            tracer.counts.clear()

        cpu0 = time.process_time()
        t0 = time.perf_counter()
        raw = wl.execute(inputs, tracer)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0

        records = wl.records(inputs, raw)
        rep = {"wall_s": wall, "cpu_s": cpu, "records": records,
               "invariant_failures": wl.invariants(inputs, records)}
        if tracer is not None:
            bundle = inputs["out_dir"]
            rep["layers"] = tracer.metrics(
                workloads.bundle_bytes(bundle)
                if os.path.isdir(bundle) else 0)
            if args.spans:
                with open(args.spans, "a", encoding="ascii") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps([args.process, len(reps), *span])
                                 + "\n")
        shutil.rmtree(rep_dir)
        reps.append(rep)
        used = time.perf_counter() - start
        if used + used / len(reps) > args.seconds:
            break

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": inputs["ops"], "reps": reps,
                      "peak_rss_mb": rss_kb / 1024.0,
                      "blas": blas_info()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
