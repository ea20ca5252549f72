"""The four benchmark workloads: input generation, execution, checking.

Each workload is built from a seed by the benchmark's own code; qplab only
sees the generated configs (CLI workloads) or generated arguments (library
workloads).  A workload has four parts:

* ``build(seed, tmp)`` makes the inputs and returns them with the number of
  operations (sweep points or library instances) they hold;
* ``execute(inputs, tracer)`` makes every call into qplab and returns raw
  results; this is the span timed as ``wall_s``.  CLI workloads write their
  bundle to ``inputs["out_dir"]``, which the caller sets per repetition;
* ``records(inputs, raw)`` turns raw results into one JSON-ready record per
  operation, compared against the recorded reference, and ``invariants``
  lists what each record must satisfy even without a reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qplab

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MODEL = {"potential": "cosine", "strip": 0.5, "beta": 0.05, "alpha": 1.0,
         "rho": 2.0, "eps0": 1e-2, "omega": "golden", "tau": 2.0,
         "gamma": 0.2}


def _torus(x):
    return np.abs((np.asarray(x) + 0.5) % 1.0 - 0.5)


def _theta0(energy: float) -> float:
    """Root of cos(2 pi theta) = E in [0, 1/2], for |E| < 1."""
    return math.acos(energy) / (2.0 * math.pi)


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _bool(cell: str) -> bool:
    return cell == "true"


def bundle_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def _cli_execute(kind: str, inputs: dict, tracer) -> int:
    from qplab.cli import main

    if tracer is not None:
        tracer.op = 0
    return main([kind, "--config", inputs["config_path"],
                 "--out", inputs["out_dir"]])


def _cli_summary(inputs: dict) -> list:
    with open(os.path.join(inputs["out_dir"], "summary.json"),
              encoding="ascii") as fh:
        return json.load(fh)


def _write_config(tmp: str, cfg: dict) -> dict:
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh)
    return {"config_path": path}


# ---------------------------------------------------------------------------
# green-grid: CLI green sweep, dense n = 513 solves


GREEN_ENERGIES = (-0.6, -0.2, 0.3, 0.7)
GREEN_RADIUS = 256
GREEN_DELTA0 = 5e-4
GREEN_THETAS = 4


def _green_gaps(thetas: np.ndarray) -> np.ndarray:
    """(theta, energy) -> smallest phase gap of the window to +-theta0."""
    n = np.arange(-GREEN_RADIUS, GREEN_RADIUS + 1)
    th0 = np.asarray([_theta0(e) for e in GREEN_ENERGIES])
    phases = thetas[:, None, None] + n[None, :, None] * GOLDEN
    return np.minimum(_torus(phases - th0), _torus(phases + th0)).min(axis=1)


def green_build(seed: int, tmp: str) -> dict:
    """Phases that are 0-good at exactly two of the four energies.

    Every phase is solved at two energies and skipped at two, so the
    evaluated and skipped point counts do not depend on the seed.
    """
    rng = np.random.default_rng([seed, 1])
    thetas, expect = [], {}
    while len(thetas) < GREEN_THETAS:
        batch = rng.uniform(0.0, 1.0, 64)
        gaps = _green_gaps(batch)
        good = gaps >= GREEN_DELTA0
        clear = (np.abs(gaps - GREEN_DELTA0) > 1e-9).all(axis=1)
        for th, g in zip(batch[clear & (good.sum(axis=1) == 2)],
                         good[clear & (good.sum(axis=1) == 2)]):
            if len(thetas) < GREEN_THETAS:
                thetas.append(float(th))
                for e, ok in zip(GREEN_ENERGIES, g):
                    expect[(float(th), e)] = "solve" if ok else "skip"
    cfg = {"kind": "green", "seed": seed, "model": dict(MODEL, eps=1e-4),
           "schedule": {"mode": "desk", "rho_prime": 1.5, "s_max": 1,
                        "delta0": GREEN_DELTA0, "n0": 8},
           "sweep": {"radius": GREEN_RADIUS, "theta": thetas,
                     "energy": list(GREEN_ENERGIES)}}
    inputs = _write_config(tmp, cfg)
    inputs["expect"] = [expect[k] for k in sorted(expect)]
    inputs["ops"] = len(expect)
    return inputs


def green_execute(inputs: dict, tracer) -> int:
    return _cli_execute("green", inputs, tracer)


def green_records(inputs: dict, raw: int) -> list:
    out = []
    for entry in _cli_summary(inputs):
        rec = {"theta": entry["theta"], "energy": entry["energy"],
               "status": entry["status"]}
        for name in entry["artifacts"]:
            rows = _read_csv(os.path.join(inputs["out_dir"], name + ".csv"))
            rec["verdicts"] = "".join("1" if _bool(r["pass"]) else "0"
                                      for r in rows)
        out.append(rec)
    return out


def green_invariants(inputs: dict, recs: list) -> list:
    """Skips fall exactly where the window is not 0-good.

    A solved point may pass or fail: near-resonant sites just outside
    delta0 can push a decay entry over its envelope, a genuine verdict that
    only the reference can judge.
    """
    bad = []
    for i, (rec, want) in enumerate(zip(recs, inputs["expect"])):
        status = rec.get("status")
        if (status == "skip") != (want == "skip") or status == "error":
            bad.append((i, f"point {i}: status {status}, expected {want}"))
    return bad


# ---------------------------------------------------------------------------
# msa-ladder: CLI msa sweep, root tracking at scale 1


MSA_ENERGY = 0.3
MSA_RADIUS = 128
MSA_DELTA0 = 1e-3
MSA_TILDE = MSA_DELTA0 ** 0.25      # q_threshold(0) of the desk ladder
MSA_SEP = 30                        # sep_threshold(0) = 2 N_1, N_1 = 15
MSA_REACH = 60                      # case-1 enlarged radius 4 N_1
MSA_CLIMBERS = 2
MSA_STOPPERS = 4


def _msa_shells(theta: float):
    """Scale-0 shells of the window: (+ sites, - sites, ~- sites)."""
    k = np.arange(-MSA_RADIUS, MSA_RADIUS + 1)
    th0 = _theta0(MSA_ENERGY)
    phase = theta + k * GOLDEN
    rp, rm = _torus(phase + th0), _torus(phase - th0)
    for r, d in ((rp, MSA_DELTA0), (rm, MSA_DELTA0), (rm, MSA_TILDE)):
        if np.any(np.abs(r - d) < 1e-9):
            return None
    return k[rp < MSA_DELTA0], k[rm < MSA_DELTA0], k[rm < MSA_TILDE]


def _msa_kind(theta: float):
    """'climb' (one case-1 block fits the window), 'stop' (no block is
    built) or None (anything else: merges, crowded windows)."""
    shells = _msa_shells(theta)
    if shells is None:
        return None
    plus, minus, tminus = shells
    centers = np.union1d(plus, minus)
    if centers.size == 0:
        return "stop"
    if plus.size and tminus.size and \
            np.min(np.abs(plus[:, None] - tminus[None, :])) <= MSA_SEP:
        return None
    fits = np.abs(centers) + MSA_REACH <= MSA_RADIUS
    if centers.size == 1 and fits.all():
        return "climb"
    return "stop" if not fits.any() else None


def msa_build(seed: int, tmp: str) -> dict:
    """Planted resonances that climb to scale 1, plus phases whose ladder
    stops at scale 0.

    A climber puts one site in the - shell and none in the + shell, so the
    ladder takes case 1 and tracks one block of 121 sites.  (A + site
    always has a ~- partner within the merge threshold at this delta0, and
    the resulting case-2 blocks of 241 sites cost about 20 s per point.)
    """
    rng = np.random.default_rng([seed, 2])
    th0 = _theta0(MSA_ENERGY)
    climb, stop = [], []
    while len(climb) < MSA_CLIMBERS:
        site = int(rng.integers(-MSA_RADIUS + MSA_REACH,
                                MSA_RADIUS - MSA_REACH + 1))
        off = float(rng.uniform(-0.9, 0.9)) * MSA_DELTA0
        th = float((th0 - site * GOLDEN + off) % 1.0)
        if _msa_kind(th) == "climb":
            climb.append(th)
    while len(stop) < MSA_STOPPERS:
        th = float(rng.uniform(0.0, 1.0))
        if _msa_kind(th) == "stop":
            stop.append(th)
    cfg = {"kind": "msa", "seed": seed, "model": dict(MODEL, eps=1e-4),
           "schedule": {"mode": "desk", "rho_prime": 1.9, "s_max": 1,
                        "delta0": MSA_DELTA0, "n0": 8},
           "sweep": {"radius": MSA_RADIUS, "theta": climb + stop,
                     "energy": [MSA_ENERGY], "s_target": 1}}
    inputs = _write_config(tmp, cfg)
    inputs["expect"] = [1 if th in climb else 0 for th in sorted(climb + stop)]
    inputs["ops"] = len(climb) + len(stop)
    return inputs


def msa_execute(inputs: dict, tracer) -> int:
    return _cli_execute("msa", inputs, tracer)


_MSA_INT_COLS = ("s", "resonant_sites", "blocks", "pad_realized",
                 "pad_declared", "winding", "det_violations")


def msa_records(inputs: dict, raw: int) -> list:
    out = []
    for entry in _cli_summary(inputs):
        rec = {"theta": entry["theta"], "status": entry["status"],
               "scales": []}
        for name in entry["artifacts"]:
            for r in _read_csv(os.path.join(inputs["out_dir"],
                                            name + ".csv")):
                row = {c: int(r[c]) for c in _MSA_INT_COLS}
                row.update(case=r["case"], ok=_bool(r["pass"]),
                           root=[float(r["theta_re"]), float(r["theta_im"])])
                rec["scales"].append(row)
        out.append(rec)
    return out


def msa_invariants(inputs: dict, recs: list) -> list:
    bad = []
    for i, (rec, depth) in enumerate(zip(recs, inputs["expect"])):
        scales = rec.get("scales", [])
        if rec.get("status") != "pass" or len(scales) != depth + 1:
            bad.append((i, f"point {i}: {rec.get('status')} with "
                           f"{len(scales)} scales, expected depth {depth}"))
        elif depth and (scales[1]["winding"] != 2 or
                        scales[1]["det_violations"]):
            bad.append((i, f"point {i}: scale-1 winding "
                           f"{scales[1]['winding']}"))
    return bad


# ---------------------------------------------------------------------------
# transport: many small windows, moments vs resolvent integrals


TRANSPORT_INSTANCES = 30
TRANSPORT_TIMES = (1.0, 10.0, 100.0)
HORIZONS = (1.0, 10.0, 100.0)


def transport_build(seed: int, tmp: str) -> dict:
    """Instance i has a fixed size, horizon and bound mode; the seed draws
    coupling, phase and target site.

    Radii cycle through 4..31, horizons through {1, 10, 100} and the mode
    alternates fixed/avg, so every run holds the same mix of sizes.  The
    time average runs at horizons 1 and 10 only: at longer horizons the
    node doubling reaches 256 Gauss-Laguerre nodes and more, where numpy's
    weights are not finite, so that cost would measure a defect (and land
    on 64 or 4096 nodes depending on the draw) rather than the average.
    """
    rng = np.random.default_rng([seed, 3])
    inst = []
    for i in range(TRANSPORT_INSTANCES):
        radius = 4 + (11 * i) % 28
        horizon = HORIZONS[i % 3]
        inst.append({
            "eps": float(rng.uniform(1e-4, 5e-3)),
            "theta": float(rng.uniform(0.0, 1.0)),
            "radius": radius,
            "horizon": horizon,
            "mode": "fixed" if (i // 3) % 2 == 0 else "avg",
            "target": int(rng.integers(1, radius + 1)),
            "time_avg": horizon < 100.0,
        })
    return {"instances": inst, "ops": len(inst)}


def _transport_one(spec: dict) -> dict:
    model = qplab.ModelSpec(qplab.PotentialSpec.cosine(),
                            qplab.HoppingKernel.saturating(1.0, 2.0),
                            qplab.FrequencyVector.golden(), spec["eps"])
    win = qplab.box_around(np.zeros(1), spec["radius"])
    ev = qplab.evolve_amplitudes(model, win, complex(spec["theta"]))
    moments = [qplab.moment_p(ev, t, 2.0) for t in TRANSPORT_TIMES]
    rep = qplab.green_moment_bound(model, ev, spec["horizon"],
                                   [[spec["target"]]], mode=spec["mode"])
    avg = (qplab.time_avg_moment(ev, spec["horizon"], 2.0)
           if spec["time_avg"] else None)
    return {"holds": rep.holds,
            "moments": [m.value for m in moments],
            "conservation": max(m.conservation_defect for m in moments),
            "time_avg": None if avg is None else avg.value}


def transport_execute(inputs: dict, tracer) -> list:
    out = []
    for i, spec in enumerate(inputs["instances"]):
        if tracer is not None:
            tracer.op = i
        try:
            out.append(_transport_one(spec))
        except Exception as exc:    # an operation that raises has failed
            out.append(_error(exc))
    return out


def transport_invariants(inputs: dict, recs: list) -> list:
    bad = []
    for i, r in enumerate(recs):
        if "error" in r:
            bad.append((i, f"instance {i}: {r['error']}"))
        elif not r["holds"] or r["conservation"] > 1e-8:
            bad.append((i, f"instance {i}: bound holds {r['holds']}, "
                           f"norm defect {r['conservation']:.2e}"))
    return bad


# ---------------------------------------------------------------------------
# blocks: two-scale block constructions and off-axis decay


BLOCK_CONSTRUCTIONS = 40
OFFAXIS_DRAWS = 6


def blocks_build(seed: int, tmp: str) -> dict:
    """Criterion-5 style two-scale toys (the number of centers and the case
    cycle with the index; offsets and shifts come from the seed) and
    criterion-8 style off-axis draws at radius 256."""
    rng = np.random.default_rng([seed, 4])
    toys = []
    for i in range(BLOCK_CONSTRUCTIONS):
        k1 = 1 + i % 3
        offs = [int(rng.integers(-500, 500))]
        for _ in range(k1 - 1):
            offs.append(offs[-1] + int(rng.integers(4000, 6001)))
        toys.append({"case": 1 + (i // 3) % 2, "l": int(rng.integers(1, 4)),
                     "offs": offs, "probe": int(rng.integers(-40, 41))})
    draws = [{"theta": float(rng.uniform(0.0, 1.0)),
              "energy": float(rng.uniform(-0.9, 0.9)),
              "targets": [int(v) for v in rng.integers(165, 251, 4)]}
             for _ in range(OFFAXIS_DRAWS)]
    return {"toys": toys, "draws": draws, "ops": len(toys) + len(draws)}


def _toy_structures(toy: dict):
    offs, l = toy["offs"], toy["l"]
    if toy["case"] == 2:
        p2 = np.asarray([[2 * o + l] for o in offs])
        cores = {(2 * o + l,): np.asarray([[2 * o], [2 * o + 2 * l]])
                 for o in offs}
        q0 = np.asarray(sorted([2 * o] for o in offs)
                        + sorted([2 * (o + l)] for o in offs))
        half = len(offs)
        res0 = qplab.ResonanceStructure(0, 0.1, (0,), q0, q0[:half],
                                        q0[half:], q0[:half], q0[half:],
                                        0.02, 0.02 ** 0.25)
        return p2, cores, res0, (l,)
    p2 = np.asarray([[2 * o] for o in offs])
    cores = {(2 * o,): np.asarray([[2 * o]]) for o in offs}
    q0 = np.asarray(sorted([2 * o] for o in offs))
    res0 = qplab.ResonanceStructure(0, 0.1, (0,), q0, q0, q0[:0], q0,
                                    q0[:0], 0.02, 0.02 ** 0.25)
    return p2, cores, res0, (0,)


def _deformation_level(scale: int, fam):
    blocks = [(np.asarray(key, dtype=float) / 2.0, fam.enlarged[key])
              for key in fam.center_keys()]
    return qplab.deformation_level(scale, blocks,
                                   test_radius=fam.radii[2] + fam.realized_pad)


def _toy_one(toy: dict, sched) -> dict:
    p2, cores1, res0, off1 = _toy_structures(toy)
    span = max(abs(v) for v in toy["offs"]) + 2000
    window = qplab.box_around(np.zeros(1), span)
    fam1 = qplab.construct_blocks(p2, cores1, 1, toy["case"], off1, sched,
                                  [], window)
    rep1 = qplab.verify_block_family(fam1, [], res0)
    cores2 = {k: 2 * fam1.cores[k] for k in fam1.center_keys()}
    fam2 = qplab.construct_blocks(fam1.centers2, cores2, 2, 1, off1, sched,
                                  [fam1], window)
    half1 = max(1, fam1.centers2.shape[0] // 2)
    c2 = fam1.centers2
    res1 = qplab.ResonanceStructure(1, 0.1, off1, c2, c2[:half1], c2[half1:],
                                    c2[:half1], c2[half1:], 0.02 ** 3,
                                    0.02 ** 0.75)
    rep2 = qplab.verify_block_family(fam2, [fam1], res1)
    levels = [_deformation_level(2, fam2), _deformation_level(1, fam1)]
    anchor = float(fam1.centers2[0][0]) / 2.0 + toy["probe"]
    seed_box = qplab.box_around(np.asarray([math.floor(anchor)]), 6)
    closed, rep = qplab.regular_deformation(seed_box.sites, levels)
    return {"ok": [rep1.all_ok, rep2.all_ok],
            "symmetric": [rep1.symmetry_ok, rep2.symmetry_ok],
            "centers": [int(fam1.centers2.shape[0]),
                        int(fam2.centers2.shape[0])],
            "pads": [rep1.realized_pad, rep1.declared_pad,
                     rep2.realized_pad, rep2.declared_pad],
            "enlarged": [int(fam1.template2.shape[0]),
                         int(fam2.template2.shape[0])],
            "regular": qplab.is_regular(closed, levels),
            "closed_size": int(closed.shape[0]),
            "absorbed": len(rep.absorbed)}


def _offaxis_one(draw: dict, model, sched, win) -> dict:
    run = qplab.run_induction(model, complex(draw["theta"]), draw["energy"],
                              win, sched, 0)
    targets = np.asarray(draw["targets"])[:, None]
    rep = qplab.offaxis_green_decay(run, 1, draw["energy"], 2000.0, targets)
    return {"holds": rep.holds,
            "entries": [[e.regular_ok, e.containment_ok,
                         bool(e.log_green <= e.log_bound + 1e-9)]
                        for e in rep.entries]}


def blocks_execute(inputs: dict, tracer) -> list:
    sched5 = qplab.build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                                  s_max=2, delta0=0.02, n0=8, g_delta=3.0,
                                  g_n=1.5)
    model8 = qplab.ModelSpec(qplab.PotentialSpec.cosine(),
                             qplab.HoppingKernel.saturating(1.0, 2.0),
                             qplab.FrequencyVector.golden(), 1e-3, eps0=0.12)
    sched8 = qplab.build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                                  s_max=1, delta0=0.12, n0=8)
    win8 = qplab.box_around(np.zeros(1), 256)
    jobs = [lambda t=t: _toy_one(t, sched5) for t in inputs["toys"]]
    jobs += [lambda d=d: _offaxis_one(d, model8, sched8, win8)
             for d in inputs["draws"]]
    out = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.op = i
        try:
            out.append(job())
        except Exception as exc:    # an operation that raises has failed
            out.append(_error(exc))
    return out


def blocks_invariants(inputs: dict, recs: list) -> list:
    bad = []
    for i, r in enumerate(recs):
        if "error" in r:
            bad.append((i, f"operation {i}: {r['error']}"))
        elif "ok" in r:
            if not (all(r["ok"]) and all(r["symmetric"]) and r["regular"]):
                bad.append((i, f"construction {i}: {r}"))
        elif not (r["holds"] and all(all(e) for e in r["entries"])):
            bad.append((i, f"draw {i}: {r}"))
    return bad


# ---------------------------------------------------------------------------


def _library_records(inputs: dict, raw: list) -> list:
    """Library workloads already return one record per operation."""
    return raw


@dataclass(frozen=True)
class Workload:
    build: Callable
    execute: Callable
    records: Callable
    invariants: Callable
    # float fields compared to a tolerance: name -> (kind, tol); None skips
    # the field, and every field not named here must match exactly
    tolerances: dict


WORKLOADS = {
    "green-grid": Workload(green_build, green_execute, green_records,
                           green_invariants, {}),
    "msa-ladder": Workload(msa_build, msa_execute, msa_records,
                           msa_invariants, {"root": ("abs", 1e-10)}),
    "transport": Workload(transport_build, transport_execute,
                          _library_records, transport_invariants,
                          {"moments": ("rel", 1e-8),
                           "time_avg": ("rel", 1e-6),
                           "conservation": None}),
    "blocks": Workload(blocks_build, blocks_execute, _library_records,
                       blocks_invariants, {}),
}


def _close(ref, got, tol) -> bool:
    kind, eps = tol
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(_close(a, b, tol) for a, b in zip(ref, got)))
    if ref is None or got is None or isinstance(got, bool):
        return ref == got
    scale = max(abs(ref), 1e-300) if kind == "rel" else 1.0
    return abs(got - ref) <= eps * scale


def matches(ref, got, tolerances: dict) -> bool:
    """Does one operation's record agree with its reference record?"""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return False
        for key, val in ref.items():
            if key in tolerances:
                tol = tolerances[key]
                if tol is not None and not _close(val, got[key], tol):
                    return False
            elif not matches(val, got[key], tolerances):
                return False
        return True
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(matches(a, b, tolerances)
                        for a, b in zip(ref, got)))
    return ref == got and type(ref) is type(got)
