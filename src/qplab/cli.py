"""Batch experiment runner: JSON config in, report bundle out.

The bundle is a directory holding ``manifest.json``, ``summary.json`` (plus
``summary.csv`` in CSV mode), and one tabular artifact per sweep point.  It
is written atomically (staged next to the target, then renamed), so an
interrupted run never leaves a partial bundle at the output path.  With
timings disabled (the default) a rerun with the same config and seed
reproduces the bundle byte for byte.

Config layout, JSON with flat sections::

    {
      "kind": "dynamics",        # assemble | green | msa | dynamics
                                 #   | localize | verify-lemmas
      "seed": 0,
      "model": {
        "potential": "cosine",   # the built-in cosine shape
        "strip": 0.5, "beta": 0.05,
        "alpha": 1.0, "rho": 2.0,
        "eps": 1e-3, "eps0": 1e-2,
        "omega": "golden",       # or a list of floats
        "tau": 2.0, "gamma": 0.2
      },
      "schedule": {
        "mode": "desk", "rho_prime": 1.5, "s_max": 1,
        "delta0": 0.02, "n0": 8, "g_delta": 3.0, "g_n": 1.5
      },
      "sweep": {
        "radius": 32,
        "theta":  [0.113],       # list, {"start","stop","count","log"?},
                                 #   or {"random": COUNT}
        "energy": [0.0],
        "times":  {"start": 125.0, "stop": 1000.0, "count": 7, "log": true},
        "p": 2.0,
        "s_target": 1,           # msa only
        "averaged": false,       # dynamics only: true checks Abel time
                                 #   averages instead of moments at t
        "instances": 200         # verify-lemmas only
      },
      "output": {"record_timings": false}
    }

``parse_config`` checks every field the kind reads before any point runs
(``radius`` defaults to 64 for msa, dynamics and localize, 16 otherwise);
a bad one raises ``ConfigInvalid`` with its dotted path and no bundle is
written, so an ``error`` row always means a runtime failure of that point.
An explicitly empty grid (``"theta": []``) is an intentional empty sweep
and produces a manifest-only bundle; an absent grid is a config error.
Exit codes: 0 all points pass, 1 at least one recorded violation, 2
configuration or runtime failure.  Eigendecompositions are cached between
runs in ``QPLAB_CACHE_DIR`` (default ``~/.cache/qplab-eig``, at most
``CACHE_MAX_BYTES``, least recently used out first) under a key that pins
numpy, scipy and the BLAS threads, so cache state never changes bundle
contents, only speed.  ``--jobs N`` runs N points at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .dynamics import (
    EvolutionData,
    ceiling_onset,
    evolve_amplitudes,
    localization_profile,
    moment_ceiling,
    moment_p,
    time_avg_moment,
)
from .errors import (
    ConfigInvalid,
    IoFailure,
    QplabError,
    ScheduleOverflow,
    SizeOverflow,
)
from .greens import (
    combes_thomas_check,
    det_perturbation_check,
    hadamard_adjugate_check,
    sandwich_check,
    schur_complement,
)
from .lattice import (
    DEFAULT_SITE_CAP,
    LatticeBox,
    box_around,
    extract_lower_bound,
    quasi_metric_certify,
    quasi_metric_defects,
    sup_distance_classes,
)
from .model import (
    DENSE_CAP,
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    assemble_restriction,
    assemble_t_matrix,
    solve_phase_for_energy,
)
from .msa import (
    ScaleSchedule,
    _estimate,
    build_schedule,
    run_induction,
    scale0_bounds,
)
from .torus import torus_norm

# what a failing point may raise and still end as an ``error`` row: package
# errors, a LAPACK failure (numpy and scipy share LinAlgError) and an
# allocation that does not fit in memory
POINT_ERRORS = (QplabError, np.linalg.LinAlgError, MemoryError)

KINDS = ("assemble", "green", "msa", "dynamics", "localize", "verify-lemmas")

_MODEL_KEYS = {"potential", "strip", "beta", "alpha", "rho", "eps", "eps0",
               "omega", "tau", "gamma"}
_SCHEDULE_KEYS = {"mode", "rho_prime", "s_max", "delta0", "eps0", "n0",
                  "g_delta", "g_n"}
_SWEEP_KEYS = {"radius", "theta", "energy", "times", "p", "s_target",
               "averaged", "instances"}
_OUTPUT_KEYS = {"record_timings"}

_NUMBER = (int, float)
_REQUIRED = object()


# ---------------------------------------------------------------------------
# config parsing


def _section(raw: dict, path: str, allowed: set) -> dict:
    sec = raw.get(path.split(".")[-1], {})
    if not isinstance(sec, dict):
        raise ConfigInvalid("must be an object", field=path)
    for key in sec:
        if key not in allowed:
            raise ConfigInvalid("unknown key", field=f"{path}.{key}")
    return sec


def _scalar(sec: dict, path: str, types, default=_REQUIRED, *,
            positive: bool = False, below: float | None = None):
    """The field ``path`` of ``sec``, checked against ``types``.

    JSON ``true`` is an int to Python and ``NaN`` parses to a float, so a
    boolean only matches ``bool`` and a float must be finite.  A default is
    returned unchecked.
    """
    name = path.split(".")[-1]
    if name not in sec:
        if default is _REQUIRED:
            raise ConfigInvalid("missing required field", field=path)
        return default
    val = sec[name]
    types = types if isinstance(types, tuple) else (types,)
    if isinstance(val, bool) and bool not in types:
        raise ConfigInvalid("expected a number, got a boolean", field=path)
    if not isinstance(val, types):
        raise ConfigInvalid(
            f"expected {' or '.join(t.__name__ for t in types)}, got "
            f"{type(val).__name__}", field=path)
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigInvalid("must be finite", field=path)
    if positive and not val > 0:
        raise ConfigInvalid("must be positive", field=path)
    if below is not None and not val < below:
        raise ConfigInvalid(f"must be below {below}", field=path)
    return val


def _grid(sweep: dict, name: str, seed: int, substream: int) -> list:
    """The grid ``sweep.<name>`` as floats: a list, a range object, or a
    draw from the seed's ``substream``."""
    path = f"sweep.{name}"
    if name not in sweep:
        raise ConfigInvalid("missing required grid", field=path)
    spec = sweep[name]
    if isinstance(spec, list):
        entries = {str(i): v for i, v in enumerate(spec)}
        return [float(_scalar(entries, f"{path}.{i}", _NUMBER))
                for i in entries]
    if not isinstance(spec, dict):
        raise ConfigInvalid("expected a list or a range object", field=path)
    draw = "random" in spec
    _section(sweep, path, {"random", "low", "high"} if draw
             else {"start", "stop", "count", "log"})
    count_path = f"{path}.random" if draw else f"{path}.count"
    count = _scalar(spec, count_path, int)
    if count < 0:
        raise ConfigInvalid("must be non-negative", field=count_path)
    if draw:
        lo = float(_scalar(spec, f"{path}.low", _NUMBER, 0.0))
        hi = float(_scalar(spec, f"{path}.high", _NUMBER, 1.0))
        rng = np.random.default_rng([seed, substream])
        return sorted(float(v) for v in rng.uniform(lo, hi, count))
    start = float(_scalar(spec, f"{path}.start", _NUMBER))
    stop = float(_scalar(spec, f"{path}.stop", _NUMBER))
    if _scalar(spec, f"{path}.log", bool, False):
        if start <= 0 or stop <= 0:
            raise ConfigInvalid("log grids need positive endpoints",
                                field=path)
        return [float(v) for v in np.geomspace(start, stop, count)]
    return [float(v) for v in np.linspace(start, stop, count)]


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config: ``points`` are the sorted sweep parameters (the
    merge order) and ``window`` the box around the origin every point uses.
    """

    kind: str
    seed: int
    model: ModelSpec
    config_sha256: str
    points: list
    window: LatticeBox
    schedule: ScaleSchedule | None
    times: list
    p: float
    averaged: bool
    s_target: int
    instances: int
    record_timings: bool


def default_config(kind: str = "verify-lemmas") -> dict:
    return {
        "kind": kind,
        "seed": 0,
        "model": {"potential": "cosine", "strip": 0.5, "beta": 0.05,
                  "alpha": 1.0, "rho": 2.0, "eps": 1e-3, "eps0": 1e-2,
                  "omega": "golden", "tau": 2.0, "gamma": 0.2},
        "schedule": {"mode": "desk", "rho_prime": 1.5, "s_max": 1,
                     "delta0": 0.02, "n0": 8, "g_delta": 3.0, "g_n": 1.5},
        "sweep": {"radius": 16, "theta": [0.113], "energy": [0.0],
                  "instances": 200},
        "output": {},
    }


def parse_config(raw: dict) -> ExperimentConfig:
    """Check ``raw`` and resolve every field its kind reads.

    This is the only reader of a config: each bad field raises
    ``ConfigInvalid`` naming its dotted path, before any point runs.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be an object")
    for key in raw:
        if key not in {"kind", "seed", "model", "schedule", "sweep",
                       "output"}:
            raise ConfigInvalid("unknown key", field=key)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigInvalid(f"must be one of {', '.join(KINDS)}",
                            field="kind")
    seed = _scalar(raw, "seed", int, 0)
    if seed < 0:
        raise ConfigInvalid("must be non-negative", field="seed")

    m = _section(raw, "model", _MODEL_KEYS)
    pot_kind = _scalar(m, "model.potential", str, "cosine")
    if pot_kind != "cosine":
        raise ConfigInvalid("only the cosine potential is built in",
                            field="model.potential")
    strip = float(_scalar(m, "model.strip", _NUMBER, 0.5, positive=True))
    beta = float(_scalar(m, "model.beta", _NUMBER, 0.05, positive=True))
    alpha = float(_scalar(m, "model.alpha", _NUMBER, 1.0, positive=True))
    rho = float(_scalar(m, "model.rho", _NUMBER, 2.0, positive=True))
    eps = float(_scalar(m, "model.eps", _NUMBER))
    eps0 = float(_scalar(m, "model.eps0", _NUMBER, 1e-2, positive=True))
    if "eps0" not in m:
        warnings.warn(
            "model.eps0 not set; using the 1e-2 convention, but the theory "
            "only promises existence of a sufficiently small threshold",
            stacklevel=2)
    tau = float(_scalar(m, "model.tau", _NUMBER, 2.0, positive=True))
    gamma = float(_scalar(m, "model.gamma", _NUMBER, 0.2, positive=True))
    omega = m.get("omega", "golden")
    # ``type`` rather than ``isinstance``, which would let booleans through
    if omega != "golden" and (not isinstance(omega, list) or not omega or any(
            type(v) not in _NUMBER for v in omega)):
        raise ConfigInvalid("expected 'golden' or a list of floats",
                            field="model.omega")

    sc = _section(raw, "schedule", _SCHEDULE_KEYS)
    mode = _scalar(sc, "schedule.mode", str, "desk")
    if mode not in ("desk", "paper"):
        raise ConfigInvalid("mode must be 'desk' or 'paper'",
                            field="schedule.mode")
    rho_prime = float(_scalar(sc, "schedule.rho_prime", _NUMBER, 1.5,
                              positive=True))

    # the ranges the model checks itself: omega, tau, rho and rho'
    try:
        freq = (FrequencyVector.golden(tau=tau, gamma=gamma)
                if omega == "golden"
                else FrequencyVector(tuple(map(float, omega)), tau, gamma))
        model = ModelSpec(PotentialSpec.cosine(strip=strip, beta=beta),
                          HoppingKernel.saturating(alpha, rho), freq, eps,
                          eps0=eps0, rho_prime=rho_prime)
    except ValueError as exc:
        raise ConfigInvalid(str(exc), field="model") from exc

    schedule = None
    if kind in ("green", "msa", "dynamics"):
        kw = {"alpha": alpha, "rho": rho, "rho_prime": rho_prime,
              "s_max": _scalar(sc, "schedule.s_max", int, 1, positive=True)}
        if mode == "paper":
            kw["eps0"] = float(_scalar(sc, "schedule.eps0", _NUMBER, eps0,
                                       positive=True, below=1.0))
        else:
            kw["delta0"] = float(_scalar(sc, "schedule.delta0", _NUMBER,
                                         0.02, positive=True, below=1.0))
            kw["n0"] = _scalar(sc, "schedule.n0", int, 8, positive=True)
            kw["g_delta"] = float(_scalar(sc, "schedule.g_delta", _NUMBER,
                                          3.0))
            kw["g_n"] = float(_scalar(sc, "schedule.g_n", _NUMBER, 1.5))
        try:
            schedule = build_schedule(mode, **kw)
        except (ValueError, ScheduleOverflow) as exc:
            raise ConfigInvalid(str(exc), field="schedule") from exc

    sweep = _section(raw, "sweep", _SWEEP_KEYS)
    radius = _scalar(sweep, "sweep.radius", int,
                     64 if kind in ("msa", "dynamics", "localize") else 16,
                     positive=True)
    # msa only assembles sub-boxes of its window; every other kind
    # assembles the whole window as one dense matrix
    try:
        window = box_around(np.zeros(model.dim), radius,
                            site_cap=DEFAULT_SITE_CAP if kind == "msa"
                            else DENSE_CAP)
    except (SizeOverflow, OverflowError) as exc:
        raise ConfigInvalid(str(exc), field="sweep.radius") from exc

    if kind == "verify-lemmas":
        points = [{}]
    else:
        thetas = sorted(_grid(sweep, "theta", seed, 0))
        if kind in ("dynamics", "localize"):
            points = [{"theta": t} for t in thetas]
        else:
            energies = sorted(_grid(sweep, "energy", seed, 1))
            points = [{"theta": t, "energy": e}
                      for t in thetas for e in energies]

    s_target = schedule.s_max if schedule else 1
    if kind == "msa":
        s_target = _scalar(sweep, "sweep.s_target", int, s_target,
                           positive=True)
        if s_target > schedule.s_max:
            raise ConfigInvalid("must lie within the schedule depth",
                                field="sweep.s_target")
    times = _grid(sweep, "times", seed, 2) if kind == "dynamics" else []
    if kind == "dynamics" and not times:
        raise ConfigInvalid("times grid must not be empty",
                            field="sweep.times")
    averaged = _scalar(sweep, "sweep.averaged", bool, False)
    if averaged and min(times, default=1.0) <= 0:
        raise ConfigInvalid("averaging horizons must be positive",
                            field="sweep.times")

    output = _section(raw, "output", _OUTPUT_KEYS)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return ExperimentConfig(
        kind, seed, model, hashlib.sha256(canonical.encode()).hexdigest(),
        points, window, schedule, times=times,
        p=float(_scalar(sweep, "sweep.p", _NUMBER, 2.0)), averaged=averaged,
        s_target=s_target,
        instances=_scalar(sweep, "sweep.instances", int, 200, positive=True),
        record_timings=_scalar(output, "output.record_timings", bool, False))


# ---------------------------------------------------------------------------
# eigendata cache


# Version of the cached eigendecomposition: bump it whenever assembly, the
# eigendecomposition or the stored arrays change, so that entries written
# by older code get new keys instead of being reused.
CACHE_SCHEMA = 4

# Byte cap of the disk cache: after each store the least recently used
# entries go until the ``.npz`` files add up to at most this.  An entry at
# the 4,095-site cap holds 134 MB, so the cap keeps fifteen of those.
CACHE_MAX_BYTES = 2 * 1024 ** 3

# LAPACK bits can change with the BLAS thread count, so these enter the key
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cache_key(model: ModelSpec, box, theta) -> str:
    """Hash of an assembly and its LAPACK setting; floats as exact hex."""
    th = complex(theta)

    def fx(v: float) -> str:
        return float(v).hex()

    payload = {
        "schema": CACHE_SCHEMA,
        "pot": model.potential.kind,
        "strip": fx(model.potential.strip),
        "alpha": fx(model.hopping.alpha),
        "rho": fx(model.hopping.rho),
        "hop": model.hopping.kind,
        "eps": fx(model.eps),
        "omega": [fx(v) for v in model.frequency.omega],
        "center2": [int(c) for c in box.center2],
        "radius": fx(box.radius),
        "theta": [fx(th.real), fx(th.imag)],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": [os.environ.get(v) for v in _THREAD_VARS],
        "cpus": os.cpu_count(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _cache_dir() -> str:
    return os.environ.get(
        "QPLAB_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "qplab-eig"))


def _disk_load(path: str, box) -> EvolutionData | None:
    """The entry at ``path`` if it exists and fits ``box``, else None; the
    stored sites catch an entry written for another window."""
    try:
        with np.load(path) as data:
            ev = EvolutionData(data["sites"], data["eigvals"], data["eigvecs"])
    except Exception:
        return None
    n = box.sites.shape[0]
    fits = (ev.sites.dtype == box.sites.dtype
            and np.array_equal(ev.sites, box.sites)
            and ev.eigvals.dtype == np.float64
            and ev.eigvecs.dtype in (np.float64, np.complex128)
            and ev.eigvals.shape == (n,)
            and ev.eigvecs.shape == (n, n))
    return ev if fits else None


def _evict(disk_dir: str) -> None:
    """Removes entries, least recently used first (oldest mtime; a hit
    refreshes it), until they fit ``CACHE_MAX_BYTES``.  A file that another
    worker removed first is skipped: it is gone either way."""
    entries = []
    with os.scandir(disk_dir) as it:
        for entry in it:
            if entry.name.endswith(".npz"):
                with contextlib.suppress(FileNotFoundError):
                    st = entry.stat()
                    entries.append((st.st_mtime_ns, entry.name, st.st_size))
    total = sum(size for _, _, size in entries)
    for _, name, size in sorted(entries):
        if total <= CACHE_MAX_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(disk_dir, name))
        total -= size


def eigendata(model: ModelSpec, box, theta) -> EvolutionData:
    """The eigendecomposition of ``H(theta)`` on ``box``, from disk if stored.

    A miss computes it, stores it atomically and evicts down to
    ``CACHE_MAX_BYTES``; a hit refreshes the entry's mtime.  Nothing stays
    in memory, and an entry that another worker evicts before it is read is
    recomputed.  Only models of the built-in kinds use the disk:
    ``cache_key`` holds every number that defines them, but not a user
    callable.
    """
    if (model.potential.kind, model.hopping.kind) != ("cosine", "saturating"):
        return evolve_amplitudes(model, box, theta)
    disk_dir = _cache_dir()
    path = os.path.join(disk_dir, cache_key(model, box, theta) + ".npz")
    ev = _disk_load(path, box)
    if ev is not None:
        with contextlib.suppress(OSError):
            os.utime(path)
        return ev
    ev = evolve_amplitudes(model, box, theta)
    # a store that fails costs the entry, never the result
    with contextlib.suppress(OSError):
        os.makedirs(disk_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=disk_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, sites=ev.sites, eigvals=ev.eigvals,
                         eigvecs=ev.eigvecs)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        _evict(disk_dir)
    return ev


# ---------------------------------------------------------------------------
# point handlers


@dataclass
class Table:
    header: tuple
    rows: list = field(default_factory=list)


@dataclass
class PointResult:
    status: str
    detail: str
    tables: dict = field(default_factory=dict)


class _RunMemo:
    """Work the points of one ``run()`` call share.  ``once`` builds under
    the lock, so the other points wait (the green window's distance
    classes, several n^2 arrays at the dense cap).  ``get`` and
    ``setdefault`` lock only to look up and to store: as ``run_induction``'s
    ``roots``, two points that miss one key both track it and keep the
    first, equal, step.  Work that raises stores nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._memo: dict = {}

    def once(self, key, build):
        with self._lock:
            if key not in self._memo:
                self._memo[key] = build()
            return self._memo[key]

    def get(self, key):
        with self._lock:
            return self._memo.get(key)

    def setdefault(self, key, value):
        with self._lock:
            return self._memo.setdefault(key, value)


def _gated(name: str, table: Table, detail: str = "") -> PointResult:
    """A point that fails if any row's last cell (``pass``) is false;
    ``detail`` replaces the row count."""
    n_fail = sum(not row[-1] for row in table.rows)
    n = len(table.rows)
    detail = detail or (f"{n_fail} of {n} rows violate" if n_fail
                        else f"{n} rows, all pass")
    return PointResult("fail" if n_fail else "pass", detail, {name: table})


def _run_assemble(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    restriction = assemble_restriction(
        cfg.model, cfg.window, point["theta"], point["energy"])
    dim = cfg.model.dim
    header = tuple(f"n{i}" for i in range(dim)) + ("diag_re", "diag_im")
    table = Table(header)
    diag = np.diag(restriction.matrix)
    for row, val in zip(restriction.sites, diag):
        table.rows.append(tuple(int(v) for v in row)
                          + (float(val.real), float(val.imag)))
    kind = "hermitian" if restriction.hermitian else "not hermitian"
    return PointResult("pass", f"{len(table.rows)} sites, {kind}",
                       {"assemble": table})


def _run_green(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    model = cfg.model
    delta0 = cfg.schedule.delta(0)
    theta, energy = point["theta"], point["energy"]
    sites = cfg.window.sites
    theta0 = solve_phase_for_energy(model.potential, energy)
    phases = theta + sites.astype(float) @ model.frequency.array()
    gap = np.minimum(torus_norm(phases - theta0),
                     torus_norm(phases + theta0))
    if float(np.min(gap)) < delta0:
        return PointResult(
            "skip", f"window is not 0-good at theta = {theta:.6g} "
            f"(phase gap {float(np.min(gap)):.3e} < delta0 "
            f"{delta0:.3e})")

    classes = memo.once("distance classes",
                        lambda: sup_distance_classes(sites))
    norm_bound, decay = scale0_bounds(model, cfg.schedule)
    est = _estimate(model, sites, theta, energy,
                    (math.log(norm_bound),) * 2, decay, classes)
    fit = est.decay
    table = Table(("dist", "modulus", "bound", "pass"))
    table.rows.append((0, est.norm, norm_bound, est.norm_ok))
    table.rows.extend(zip(fit.dists, fit.peaks, fit.bounds, fit.ok))
    return _gated("green", table)


def _run_msa(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    run = run_induction(cfg.model, point["theta"], point["energy"],
                        cfg.window, cfg.schedule, cfg.s_target, roots=memo)
    table = Table(("s", "case", "shift2", "theta_re", "theta_im",
                   "resonant_sites", "blocks", "pad_realized",
                   "pad_declared", "deviation", "deviation_bound",
                   "winding", "det_violations", "pass"))
    res0 = run.res(0)
    table.rows.append((0, "", "", float(res0.theta_s.real),
                       float(res0.theta_s.imag), len(res0.q2), 0, 0, 0,
                       0.0, 0.0, 0, 0, True))
    for sd in run.scales[1:]:
        fam, step = sd.family, sd.theta_step
        shift = ("" if step.l is None
                 else ";".join(str(int(v)) for v in step.l))
        ok = step.deviation_ok and step.det_violations == 0
        table.rows.append((sd.s, step.case, shift,
                           float(sd.res.theta_s.real),
                           float(sd.res.theta_s.imag), len(sd.res.q2),
                           len(fam.centers2), fam.realized_pad,
                           fam.declared_pad, float(step.deviation),
                           float(step.deviation_bound),
                           int(step.winding_total),
                           int(step.det_violations), ok))
    return _gated("msa", table,
                  f"reached scale {run.depth} of {cfg.s_target}"
                  if run.depth < cfg.s_target else "")


def _run_dynamics(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    model, p = cfg.model, cfg.p
    moment = time_avg_moment if cfg.averaged else moment_p
    ev = eigendata(model, cfg.window, point["theta"])
    t0 = ceiling_onset(cfg.schedule.delta(0), model.potential.beta)
    rho_prime = cfg.schedule.rho_prime
    table = Table(("t", "moment", "bound", "boundary_mass", "gated", "pass"))
    for t in cfg.times:
        mv = moment(ev, float(t), p)
        bound = moment_ceiling(t, p, rho_prime) if t > 1 else float("inf")
        gated = t >= t0 and mv.boundary_mass < 1e-6
        ok = (not gated) or mv.value <= bound
        table.rows.append((float(t), mv.value, bound, mv.boundary_mass,
                           gated, ok))
    return _gated("dynamics", table)


def _run_localize(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    model = cfg.model
    ev = eigendata(model, cfg.window, point["theta"])
    profiles = localization_profile(ev, model.hopping.rho)
    dim = cfg.model.dim
    header = ("eigenvalue",) + tuple(f"c{i}" for i in range(dim)) \
        + ("rate", "goodness", "support")
    table = Table(header)
    for prof in profiles:
        table.rows.append((prof.eigenvalue,) + prof.center
                          + (prof.fitted_rate, prof.goodness, prof.support))
    return PointResult("pass", f"{len(table.rows)} eigenvectors profiled",
                       {"localize": table})


def _groups(*keys) -> list:
    """(key tuple, count) for each distinct tuple of drawn keys, sorted."""
    dims = [int(k.max()) + 1 for k in keys]
    codes, counts = np.unique(np.ravel_multi_index(keys, dims),
                              return_counts=True)
    uniq = zip(*(c.tolist() for c in np.unravel_index(codes, dims)))
    return list(zip(uniq, counts.tolist()))


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _suite_rows(cfg: ExperimentConfig) -> list:
    """The lemma suites: (name, instances, violations) triples.  A matrix
    suite draws its sizes first and checks each size as one stack."""
    model, instances = cfg.model, cfg.instances
    rho = model.hopping.rho
    rows = []

    rng = np.random.default_rng([cfg.seed, 10])
    cert = quasi_metric_certify(rho, 8, budget=max(instances, 4096),
                                seed=cfg.seed)
    samples = np.exp(rng.uniform(math.log(1e-3), math.log(1e4),
                                 size=(instances, 6)))
    defects = quasi_metric_defects(samples, rho)
    rows.append(("quasi-metric", instances,
                 int(np.count_nonzero(defects > cert.c_hat + 1e-9))))

    rng = np.random.default_rng([cfg.seed, 11])
    x = np.exp(rng.uniform(0.0, 8.0, instances))
    y = rng.uniform(0.0, 1.0, instances) * np.minimum(x, (1 + x) / 2.0)
    keep = (x > y) & (y > 0) & (1 + x > 2 * y)
    x, y = x[keep], y[keep]
    bound = extract_lower_bound(x, y, rho)
    rows.append(("extract", instances, int(np.count_nonzero(
        bound > np.log1p(x - y) ** rho * (1 + 1e-12) + 1e-12))))

    rng = np.random.default_rng([cfg.seed, 12])
    bad = 0
    for (n,), count in _groups(rng.integers(2, 7, instances)):
        m = _complex_normal(rng, (count, n, n))
        bad += int(np.count_nonzero(~hadamard_adjugate_check(m).holds))
    rows.append(("hadamard", instances, bad))

    rng = np.random.default_rng([cfg.seed, 13])
    sizes = rng.integers(3, 8, instances)
    bad = 0
    for (n, k), count in _groups(sizes, rng.integers(1, sizes)):
        m = _complex_normal(rng, (count, n, n)) + 2.0 * n * np.eye(n)
        m /= np.maximum(1.0, np.abs(m).max(axis=(1, 2)) * n)[:, None, None]
        data = schur_complement(m, np.arange(k))
        rep = sandwich_check(m, data)
        bad += int(np.count_nonzero((data.det_defect > 1e-6)
                                    | ~(rep.lower_holds & rep.upper_holds)))
    rows.append(("schur", instances, bad))

    rng = np.random.default_rng([cfg.seed, 14])
    bad = 0
    for (n,), count in _groups(rng.integers(2, 7, instances)):
        a = rng.normal(size=(count, n, n))
        b = (rng.normal(size=(count, n, n))
             * 10.0 ** rng.uniform(-6, 0, size=(count, 1, 1)))
        bad += int(np.count_nonzero(~det_perturbation_check(a, b).holds))
    rows.append(("det-perturbation", instances, bad))

    rng = np.random.default_rng([cfg.seed, 15])
    ct_n = max(1, instances // 20)
    draws = rng.uniform([0.0, -1.0], [1.0, 1.0], size=(ct_n, 2))
    sites = cfg.window.sites.astype(float)
    # chunks of at most DENSE_CAP**2 entries, the largest single restriction
    chunk = max(1, DENSE_CAP ** 2 // sites.shape[0] ** 2)
    bad = 0
    for lo in range(0, ct_n, chunk):
        part = draws[lo:lo + chunk]
        stack = assemble_t_matrix(model, sites, part[:, 0].astype(complex))
        for h, re_z in zip(stack, part[:, 1].tolist()):
            bad += not combes_thomas_check(h, sites, complex(re_z, 0.75),
                                           0.75 * model.hopping.alpha, rho,
                                           cert.c_hat).holds
    rows.append(("combes-thomas", ct_n, bad))
    return rows


def _run_verify(cfg: ExperimentConfig, memo, point: dict) -> PointResult:
    table = Table(("suite", "instances", "violations", "pass"))
    for name, count, bad in _suite_rows(cfg):
        table.rows.append((name, count, bad, bad == 0))
    return _gated("suites", table)


_HANDLERS = {
    "assemble": _run_assemble,
    "green": _run_green,
    "msa": _run_msa,
    "dynamics": _run_dynamics,
    "localize": _run_localize,
    "verify-lemmas": _run_verify,
}


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class ReportBundle:
    manifest: dict
    summary: list
    artifacts: dict


def run(cfg: ExperimentConfig, *, jobs: int = 1,
        fail_fast: bool = False) -> ReportBundle:
    """Execute the sweep and assemble an in-memory bundle.

    With ``jobs > 1`` the points run in a thread pool; either way the
    results keep sorted-parameter order, so the bundle contents never
    depend on scheduling.  A point that raises one of ``POINT_ERRORS``
    becomes an ``error`` row unless fail-fast is set.
    """
    t_start = time.monotonic()
    points = cfg.points
    # the points' shared work lives exactly as long as this call
    handler = functools.partial(_HANDLERS[cfg.kind], cfg, _RunMemo())

    def point(i: int) -> PointResult:
        try:
            return handler(points[i])
        except POINT_ERRORS as exc:
            if fail_fast:
                raise
            return PointResult("error", f"{type(exc).__name__}: {exc}")

    if jobs > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(point, range(len(points))))
    else:
        results = list(map(point, range(len(points))))

    summary = []
    artifacts: dict = {}
    counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
    for i, res in enumerate(results):
        counts[res.status] += 1
        names = []
        for base, table in sorted(res.tables.items()):
            name = f"{base}_{i:03d}"
            artifacts[name] = table
            names.append(name)
        summary.append({"point": i, "status": res.status,
                        "detail": res.detail, "artifacts": names,
                        **points[i]})

    manifest = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "version": __version__,
        "config_sha256": cfg.config_sha256,
        "points": len(points),
        "counts": counts,
        "artifact_files": sorted(artifacts),
        "timings": ({"total_s": time.monotonic() - t_start}
                    if cfg.record_timings else None),
    }
    return ReportBundle(manifest, summary, artifacts)


def exit_code(bundle: ReportBundle) -> int:
    statuses = {e["status"] for e in bundle.summary}
    return 2 if "error" in statuses else int("fail" in statuses)


# ---------------------------------------------------------------------------
# emission


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def _table_csv(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    for row in table.rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _table_json(table: Table) -> dict:
    return {"header": list(table.header),
            "rows": [[_jsonable(v) for v in row] for row in table.rows]}


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def emit(bundle: ReportBundle, out_dir: str, fmt: str = "csv") -> list:
    """Write the bundle atomically; returns the list of files written.

    Files are staged in a scratch directory beside the target and moved
    into place with one rename, so a crash can not leave a half bundle at
    ``out_dir``.
    """
    if fmt not in ("csv", "json"):
        raise ConfigInvalid("format must be csv or json", field="format")
    out_dir = os.path.abspath(out_dir)
    parent = os.path.dirname(out_dir) or "."
    try:
        os.makedirs(parent, exist_ok=True)
        stage = tempfile.mkdtemp(prefix=".qplab-stage-", dir=parent)
    except OSError as exc:
        raise IoFailure(f"cannot stage bundle near {out_dir}: {exc}") from exc

    files = []
    try:
        def put(name: str, text: str) -> None:
            with open(os.path.join(stage, name), "w",
                      encoding="ascii", newline="") as fh:
                fh.write(text)
            files.append(name)

        put("manifest.json", _dump_json(bundle.manifest))
        put("summary.json", _dump_json(bundle.summary))
        if fmt == "csv":
            table = Table(("point", "theta", "energy", "status", "detail",
                           "artifacts"))
            for e in bundle.summary:
                table.rows.append((e["point"], e.get("theta", ""),
                                   e.get("energy", ""), e["status"],
                                   e["detail"], ";".join(e["artifacts"])))
            put("summary.csv", _table_csv(table))
            for name in sorted(bundle.artifacts):
                put(name + ".csv", _table_csv(bundle.artifacts[name]))
        else:
            for name in sorted(bundle.artifacts):
                put(name + ".json",
                    _dump_json(_table_json(bundle.artifacts[name])))
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        elif os.path.exists(out_dir):
            os.remove(out_dir)
        os.replace(stage, out_dir)
    except OSError as exc:
        shutil.rmtree(stage, ignore_errors=True)
        raise IoFailure(f"bundle write failed: {exc}") from exc
    except Exception:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return sorted(files)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplab",
        description="Batch experiments on long-range quasi-periodic "
                    "lattice operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", default=None,
                       help="JSON config path (verify-lemmas has defaults)")
        p.add_argument("--out", default="qplab-report",
                       help="bundle directory (default: qplab-report)")
        p.add_argument("--jobs", type=int, default=1,
                       help="sweep-level worker threads")
        p.add_argument("--fail-fast", action="store_true",
                       help="abort the sweep on the first point error")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="artifact format (default: csv)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            if args.command != "verify-lemmas":
                raise ConfigInvalid(
                    f"--config is required for kind {args.command}")
            raw = default_config()
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except OSError as exc:
                raise ConfigInvalid(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigInvalid(f"config is not valid JSON: {exc}"
                                    ) from exc
        if isinstance(raw, dict):
            raw.setdefault("kind", args.command)
        cfg = parse_config(raw)
        if cfg.kind != args.command:
            raise ConfigInvalid(
                f"config kind {cfg.kind!r} does not match subcommand "
                f"{args.command!r}", field="kind")
        if args.jobs < 1:
            raise ConfigInvalid("--jobs must be at least 1")
        bundle = run(cfg, jobs=args.jobs, fail_fast=args.fail_fast)
        emit(bundle, args.out, args.format)
    except POINT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    counts = bundle.manifest["counts"]
    print(f"{cfg.kind}: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['skip']} skip, {counts['error']} error -> {args.out}")
    return exit_code(bundle)


if __name__ == "__main__":
    sys.exit(main())
