"""Config parsing, sweep orchestration, caching, and bundle emission."""

import dataclasses
import functools
import json
import math
import os
import re
import reprlib
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qplab
import qplab.dynamics
import qplab.greens
import qplab.model
import qplab.msa
from qplab import cli
from qplab.cli import (
    KINDS,
    cache_key,
    default_config,
    eigendata,
    emit,
    exit_code,
    main,
    parse_config,
    run,
)
from qplab.dynamics import evolve_amplitudes
from qplab.errors import ConfigInvalid, NotHermitian, QplabError
from qplab.greens import combes_thomas_check, green_solve
from qplab.lattice import box_around
from qplab.model import (
    HoppingKernel,
    ModelSpec,
    assemble_restriction,
    spectrum_bounds,
)
from qplab.msa import run_induction, scale0_bounds, verify_good_set


def make_raw(kind, sweep, model=None, schedule=None):
    raw = default_config(kind)
    raw["sweep"] = sweep
    if model:
        raw["model"].update(model)
    if schedule:
        raw["schedule"].update(schedule)
    return raw


GREEN_PASS = {"radius": 8, "theta": [0.0], "energy": [0.3]}
# delta0 = 0.2 starts the moment ceiling at T_0 = 125 (0.02, the default,
# at 125,000), so a dynamics time of 200 is gated
GATING_SCHEDULE = {"delta0": 0.2}
# two phases, each 0-good at both energies: four solved points
GREEN_SHARED = {"radius": 8, "theta": [0.0, 0.38], "energy": [0.3, 0.4]}


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_field_paths():
    with pytest.raises(ConfigInvalid) as exc:
        parse_config({"kind": "green", "bogus": 1})
    assert exc.value.field == "bogus"
    with pytest.raises(ConfigInvalid) as exc:
        parse_config({"kind": "sideways"})
    assert exc.value.field == "kind"
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(make_raw("green", GREEN_PASS, model={"zeta": 1.0}))
    assert exc.value.field == "model.zeta"
    raw = make_raw("green", GREEN_PASS)
    del raw["model"]["eps"]
    with pytest.raises(ConfigInvalid, match="missing required"):
        parse_config(raw)
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(make_raw("green", GREEN_PASS,
                              model={"potential": "morse"}))
    assert exc.value.field == "model.potential"
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(make_raw("green", GREEN_PASS,
                              model={"omega": "fibonacci"}))
    assert exc.value.field == "model.omega"
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(make_raw("green", GREEN_PASS,
                              schedule={"mode": "napkin"}))
    assert exc.value.field == "schedule.mode"
    with pytest.raises(ConfigInvalid, match="boolean"):
        parse_config(make_raw("green", GREEN_PASS, model={"eps": True}))
    with pytest.raises(ConfigInvalid, match="positive"):
        parse_config(make_raw("green", GREEN_PASS, model={"strip": -0.5}))
    with pytest.raises(ConfigInvalid):
        parse_config([])


def test_parse_config_eps0_warnings():
    raw = make_raw("green", GREEN_PASS)
    del raw["model"]["eps0"]
    with pytest.warns(UserWarning, match="1e-2 convention"):
        parse_config(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(make_raw("green", GREEN_PASS))
    with pytest.warns(UserWarning, match="exceeds the declared") as rec:
        parse_config(make_raw("green", GREEN_PASS, model={"eps": 0.5}))
    assert len(rec) == 1


def test_parse_config_builds_model():
    cfg = parse_config(make_raw("green", GREEN_PASS))
    assert cfg.kind == "green"
    assert cfg.model.eps == 1e-3
    assert cfg.model.hopping.alpha == 1.0
    assert not cfg.record_timings


# ---------------------------------------------------------------------------
# grids and points


def _thetas(cfg):
    return [pt["theta"] for pt in cfg.points]


def test_grid_forms():
    cfg = parse_config(make_raw("green", {
        "radius": 8,
        "theta": {"start": 0.1, "stop": 0.4, "count": 4},
        "energy": [0.0, 0.5],
    }))
    assert sorted(set(_thetas(cfg))) == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert sorted({pt["energy"] for pt in cfg.points}) == [0.0, 0.5]
    dyn = parse_config(make_raw("dynamics", {
        "radius": 8, "theta": [0.1],
        "times": {"start": 1.0, "stop": 100.0, "count": 3, "log": True},
    }))
    assert dyn.times == pytest.approx([1.0, 10.0, 100.0])


def test_grid_random_is_reproducible():
    raw = make_raw("green", {"radius": 8,
                             "theta": {"random": 5, "low": 0.2,
                                       "high": 0.9},
                             "energy": [0.0]})
    a = _thetas(parse_config(raw))
    b = _thetas(parse_config(raw))
    assert a == b
    assert a == sorted(a)
    assert all(0.2 <= v <= 0.9 for v in a)
    raw["seed"] = 7
    assert _thetas(parse_config(raw)) != a
    # substreams keep theta and energy draws independent
    raw["sweep"]["energy"] = {"random": 5, "low": 0.2, "high": 0.9}
    cfg = parse_config(raw)
    assert sorted(set(_thetas(cfg))) != \
        sorted({pt["energy"] for pt in cfg.points})


def test_grid_rejections():
    with pytest.raises(ConfigInvalid, match="missing required grid") as exc:
        parse_config(make_raw("green", {"radius": 8, "energy": [0.0]}))
    assert exc.value.field == "sweep.theta"
    bad = [
        ({"theta": [0.1, "x"]}, "sweep.theta.1"),
        ({"theta": {"start": 0.0, "stop": 1.0}}, "sweep.theta.count"),
        ({"theta": {"start": 0.0, "stop": 1.0, "count": -2}},
         "sweep.theta.count"),
        ({"theta": {"start": 0.0, "stop": 1.0, "count": 3, "log": True}},
         "sweep.theta"),
        ({"theta": {"random": -1}}, "sweep.theta.random"),
        ({"theta": "dense"}, "sweep.theta"),
        # a misspelt key, or a key of the other grid form, is refused
        ({"theta": {"start": 0.1, "stop": 0.2, "count": 3, "lgo": True}},
         "sweep.theta.lgo"),
        ({"theta": {"random": 2, "start": 0.5, "stop": 0.6, "count": 9}},
         "sweep.theta.start"),
    ]
    for sweep, path in bad:
        sweep = {"radius": 8, "energy": [0.0], **sweep}
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(make_raw("green", sweep))
        assert exc.value.field == path


def test_radius_validation():
    cfg = parse_config(make_raw("green",
                                {"radius": 8, "theta": [0.0],
                                 "energy": [0.0]}))
    assert cfg.window.radius == 8
    for r in (0, -3, 2.5):
        with pytest.raises(ConfigInvalid, match="radius") as exc:
            parse_config(make_raw("green", {"radius": r, "theta": [0.0],
                                            "energy": [0.0]}))
        assert exc.value.field == "sweep.radius"


def test_build_points_ordering():
    cfg = parse_config(make_raw("green", {"radius": 8,
                                          "theta": [0.3, 0.1],
                                          "energy": [0.5, -0.5]}))
    assert cfg.points == [
        {"theta": 0.1, "energy": -0.5}, {"theta": 0.1, "energy": 0.5},
        {"theta": 0.3, "energy": -0.5}, {"theta": 0.3, "energy": 0.5}]
    dyn = parse_config(make_raw("dynamics", {"radius": 8,
                                             "theta": [0.3, 0.1],
                                             "times": [2.0]}))
    assert dyn.points == [{"theta": 0.1}, {"theta": 0.3}]
    assert parse_config(default_config()).points == [{}]


def test_empty_grid_is_an_empty_sweep():
    cfg = parse_config(make_raw("assemble", {"radius": 8, "theta": [],
                                             "energy": [0.0]}))
    bundle = run(cfg)
    assert bundle.manifest["points"] == 0
    assert bundle.summary == [] and bundle.artifacts == {}
    assert exit_code(bundle) == 0


# ---------------------------------------------------------------------------
# cache


def test_cache_key_stability_and_sensitivity(weak_model, monkeypatch):
    box = box_around(np.zeros(1), 8)
    key = cache_key(weak_model, box, 0.3)
    assert key != cache_key(weak_model, box, 0.3 + 1e-12)
    assert key != cache_key(weak_model, box_around(np.zeros(1), 9), 0.3)
    # LAPACK bits depend on the BLAS thread count, so the key does too
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    one_thread = cache_key(weak_model, box, 0.3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert cache_key(weak_model, box, 0.3) != one_thread
    monkeypatch.setattr(cli, "CACHE_SCHEMA", cli.CACHE_SCHEMA + 1)
    assert key != cache_key(weak_model, box, 0.3)
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")


def test_eigendata_disk_layer(weak_model, tmp_path, monkeypatch):
    box = box_around(np.zeros(1), 6)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    ev1 = eigendata(weak_model, box, 0.3)
    key = cache_key(weak_model, box, 0.3)
    disk_file = tmp_path / "eig-cache" / (key + ".npz")
    assert disk_file.exists()

    # a hit reads the stored arrays back without recomputing
    with monkeypatch.context() as m:
        m.setattr(cli, "evolve_amplitudes", _raise(AssertionError))
        ev2 = eigendata(weak_model, box, 0.3)
    assert ev2 is not ev1
    np.testing.assert_array_equal(ev2.eigvals, ev1.eigvals)
    np.testing.assert_array_equal(ev2.eigvecs, ev1.eigvecs)
    np.testing.assert_array_equal(ev2.sites, ev1.sites)

    # an entry written under two BLAS threads is not read under one
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    eigendata(weak_model, box, 0.3)
    assert len(list((tmp_path / "eig-cache").glob("*.npz"))) == 2

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    disk_file.write_bytes(b"this is not an npz archive")
    recovered = eigendata(weak_model, box, 0.3)
    np.testing.assert_allclose(recovered.eigvals, ev1.eigvals)


def test_eigendata_failed_store_leaves_no_temp_file(weak_model, tmp_path,
                                                     monkeypatch):
    box = box_around(np.zeros(1), 6)

    def savez_then(exc):
        def savez(fh, **arrays):
            fh.write(b"part of an archive")
            raise exc
        return savez

    # a full disk costs the entry, not the result
    monkeypatch.setattr(np, "savez", savez_then(OSError(28, "disk full")))
    ev = eigendata(weak_model, box, 0.3)
    want = evolve_amplitudes(weak_model, box, 0.3)
    np.testing.assert_array_equal(ev.eigvals, want.eigvals)
    np.testing.assert_array_equal(ev.eigvecs, want.eigvecs)
    assert list((tmp_path / "eig-cache").iterdir()) == []
    # any other failure propagates, and the temp file goes all the same
    monkeypatch.setattr(np, "savez", savez_then(RuntimeError("planted")))
    with pytest.raises(RuntimeError, match="planted"):
        eigendata(weak_model, box, 0.3)
    assert list((tmp_path / "eig-cache").iterdir()) == []


def test_eigendata_keeps_user_kernels_off_disk(cosine_potential,
                                               golden_frequency, tmp_path):
    # cache_key cannot hash a callable, so two user kernels with the same
    # alpha and rho would share an entry if one were written
    base = HoppingKernel.saturating(1.0, 2.0).fn
    box = box_around(np.zeros(1), 4)
    evs = []
    for scale in (0.5, 0.25):
        kernel = HoppingKernel.from_callable(
            1.0, 2.0, lambda d, c=scale: c * base(d))
        model = ModelSpec(cosine_potential, kernel, golden_frequency, 1e-3)
        evs.append(eigendata(model, box, 0.2))
        np.testing.assert_array_equal(
            evs[-1].eigvals, evolve_amplitudes(model, box, 0.2).eigvals)
    assert not np.array_equal(evs[0].eigvals, evs[1].eigvals)
    assert list((tmp_path / "eig-cache").glob("*")) == []


def test_eigendata_evicts_least_recently_used(weak_model, tmp_path,
                                              monkeypatch):
    box = box_around(np.zeros(1), 6)
    disk = tmp_path / "eig-cache"

    def entry(theta):
        return disk / (cache_key(weak_model, box, theta) + ".npz")

    for age, theta in ((300, 0.1), (200, 0.2)):
        eigendata(weak_model, box, theta)
        old = entry(theta).stat().st_mtime - age
        os.utime(entry(theta), (old, old))
    size = entry(0.1).stat().st_size
    # a hit makes 0.1 the most recently used entry, so 0.2 goes first
    eigendata(weak_model, box, 0.1)
    monkeypatch.setattr(cli, "CACHE_MAX_BYTES", 2 * size)
    eigendata(weak_model, box, 0.3)
    assert sorted(disk.glob("*.npz")) == sorted([entry(0.1), entry(0.3)])
    # a cap below one entry evicts even the newest; the result stands
    monkeypatch.setattr(cli, "CACHE_MAX_BYTES", size - 1)
    ev = eigendata(weak_model, box, 0.4)
    assert list(disk.glob("*.npz")) == []
    np.testing.assert_array_equal(
        ev.eigvecs, evolve_amplitudes(weak_model, box, 0.4).eigvecs)


def test_eviction_does_not_change_a_dynamics_bundle(tmp_path, monkeypatch):
    raw = make_raw("dynamics", {"radius": 8, "theta": [0.1, 0.2, 0.3],
                                "times": [2.0, 200.0]})
    emit(run(parse_config(raw)), str(tmp_path / "roomy"))
    # room for one entry: every store evicts the one before it
    size = next((tmp_path / "eig-cache").glob("*.npz")).stat().st_size
    monkeypatch.setattr(cli, "CACHE_MAX_BYTES", size)
    monkeypatch.setenv("QPLAB_CACHE_DIR", str(tmp_path / "tight-eig"))
    for name in ("cold", "warm"):
        emit(run(parse_config(raw), jobs=2), str(tmp_path / name))
        assert len(list((tmp_path / "tight-eig").glob("*.npz"))) == 1
        assert _read_bundle(tmp_path / name) == \
            _read_bundle(tmp_path / "roomy")


def _bundle_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_eig_cache_replaces_entry_that_does_not_fit_the_box(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(
        "dynamics", {"radius": 8, "theta": [0.1], "times": [200.0]})))
    args = ["dynamics", "--config", str(cfg_path), "--out"]
    assert main(args + [str(tmp_path / "clean")]) == 0
    (entry,) = (tmp_path / "eig-cache").glob("*.npz")

    def single(v):
        return v.real.astype(np.float32)

    # too few columns, then the right shape stored in single precision
    for spoil in ({"eigvecs": lambda v: v[:, :5]}, {"eigvecs": single}):
        with np.load(entry) as data:
            arrays = dict(data)
        for name, fn in spoil.items():
            arrays[name] = fn(arrays[name])
        with open(entry, "wb") as fh:
            np.savez(fh, **arrays)
        assert main(args + [str(tmp_path / "reloaded")]) == 0
        assert (_bundle_bytes(tmp_path / "reloaded")
                == _bundle_bytes(tmp_path / "clean"))
        with np.load(entry) as data:
            assert data["eigvecs"].shape == (17, 17)
            # a real window stores real eigenvectors
            assert data["eigvecs"].dtype == np.float64


# ---------------------------------------------------------------------------
# sweep execution


def test_green_sweep_passes():
    bundle = run(parse_config(make_raw("green", GREEN_PASS)))
    assert [e["status"] for e in bundle.summary] == ["pass"]
    assert exit_code(bundle) == 0
    table = bundle.artifacts["green_000"]
    assert table.header == ("dist", "modulus", "bound", "pass")
    assert len(table.rows) == 17
    assert all(row[-1] for row in table.rows)


def test_green_sweep_detects_violations():
    raw = make_raw("green", GREEN_PASS, model={"eps": 0.5, "eps0": 1.0})
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["fail"]
    assert exit_code(bundle) == 1
    table = bundle.artifacts["green_000"]
    assert any(not row[-1] for row in table.rows)


def test_green_sweep_skips_resonant_phase():
    raw = make_raw("green", {"radius": 8, "theta": [0.25],
                             "energy": [0.0]})
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["skip"]
    assert "not 0-good" in bundle.summary[0]["detail"]
    assert exit_code(bundle) == 0


def test_green_sweep_decay_entries_come_from_the_lu_inverse():
    """The benchmark's green-grid seed-9 point passes every row.

    Building G as the spectral sum V diag(1/(lambda - E)) V^T instead of
    from the LU inverse makes an absolute error of about eps ||G|| ~ 1e-13
    in every entry, which swamps the far ones: at r = 341 the spectral sum
    reads 1.73e-11 against the bound 8.14e-12, a false violation, while
    the LU inverse reads 4.3e-15.
    """
    raw = {"kind": "green", "seed": 9,
           "model": {"potential": "cosine", "strip": 0.5, "beta": 0.05,
                     "alpha": 1.0, "rho": 2.0, "eps": 1e-4, "eps0": 1e-2,
                     "omega": "golden", "tau": 2.0, "gamma": 0.2},
           "schedule": {"mode": "desk", "rho_prime": 1.5, "s_max": 1,
                        "delta0": 5e-4, "n0": 8},
           "sweep": {"radius": 256, "theta": [0.4533584587531274],
                     "energy": [0.7]}}
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["pass"]
    rows = bundle.artifacts["green_000"].rows
    assert len(rows) == 513 and all(row[-1] for row in rows)
    (far,) = [row for row in rows if row[0] == 341]
    assert far[1] < 1e-13 < far[2]


GUARDED_MODULES = ("qplab.greens", "qplab.dynamics", "qplab.model")


def lapack_through(get_lapack_funcs, wrap):
    """``get_lapack_funcs`` whose routines pass through ``wrap(name, fn)``."""
    def funcs(names, *args, **kwargs):
        return [wrap(n, f) for n, f in
                zip(names, get_lapack_funcs(names, *args, **kwargs))]
    return funcs


@pytest.fixture
def dense_calls(monkeypatch):
    """Record (caller, function, dtype) for each factorization that
    ``GUARDED_MODULES`` ask for, the ``sytrf`` that greens takes from
    ``get_lapack_funcs`` included."""
    calls = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in GUARDED_MODULES:
                calls.append((caller, name, np.asarray(a).dtype))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name,
                            wrap(name, getattr(np.linalg, name)))
    for mod in (qplab.greens, qplab.dynamics):
        monkeypatch.setattr(mod, "lu_factor", wrap("lu_factor",
                                                   mod.lu_factor))
    monkeypatch.setattr(qplab.greens, "get_lapack_funcs", lapack_through(
        qplab.greens.get_lapack_funcs,
        lambda n, f: wrap(n, f) if n == "sytrf" else f))
    return calls


def test_real_restrictions_never_reach_complex_lapack(dense_calls):
    assert [e["status"] for e in run(parse_config(make_raw(
        "green", GREEN_PASS))).summary] == ["pass"]
    assert [e["status"] for e in run(parse_config(make_raw(
        "dynamics", {"radius": 8, "theta": [0.1], "times": [200.0]},
        schedule=GATING_SCHEDULE))).summary] == ["pass"]
    model = parse_config(make_raw("green", GREEN_PASS)).model
    box = box_around(np.zeros(1), 8)
    rest = assemble_restriction(model, box, 0.113, 0.0)
    assert spectrum_bounds(rest).contained
    # every restriction path was reached, and none with a complex matrix
    seen = {(caller, name) for caller, name, _ in dense_calls}
    assert seen == {("qplab.greens", "sytrf"),
                    ("qplab.dynamics", "eigh"), ("qplab.model", "eigvalsh")}
    assert {dtype for _, _, dtype in dense_calls} == {np.dtype(np.float64)}
    # Combes-Thomas inverts H - z, complex by construction, and takes no
    # spectrum
    dense_calls.clear()
    assert combes_thomas_check(rest.matrix, box.sites, 0.3 + 1.2j,
                               0.5, 2.0, 0.5).holds
    assert dense_calls == [("qplab.greens", "lu_factor",
                            np.dtype(np.complex128))]


def test_last_bit_asymmetry_is_not_hermitian(dense_calls, weak_model):
    """A real kernel asymmetric by 1e-13 relative stays inside its decay
    envelope, but its restriction is not exactly Hermitian: every
    Hermitian consumer refuses it, while ``green_solve``, which needs no
    Hermitian test, makes only its LU."""
    sat = weak_model.hopping

    def fn(diffs):
        return sat.fn(diffs) * (1.0 + 1e-13 * np.sign(diffs[:, 0]))

    model = ModelSpec(weak_model.potential,
                      HoppingKernel.from_callable(sat.alpha, sat.rho, fn),
                      weak_model.frequency, weak_model.eps)
    box = box_around(np.zeros(1), 8)
    rest = assemble_restriction(model, box, 0.113, 0.0)
    assert 0.0 < float(np.max(np.abs(rest.matrix - rest.matrix.T))) < 1e-15
    assert not rest.hermitian
    with pytest.raises(NotHermitian):
        evolve_amplitudes(model, box, 0.113)
    with pytest.raises(NotHermitian):
        combes_thomas_check(rest.matrix, box.sites, 0.3 + 1.2j,
                            0.5, 2.0, 0.5)
    with pytest.raises(NotHermitian):
        spectrum_bounds(rest)
    dense_calls.clear()
    green_solve(rest.matrix)
    assert {name for _, name, _ in dense_calls} == {"lu_factor"}


def test_green_solve_factors_once(dense_calls, weak_model):
    """A real green point is one symmetric LDL^T and no LU; a complex or
    a non-symmetric T is one LU."""
    assert [e["status"] for e in run(parse_config(make_raw(
        "green", GREEN_PASS))).summary] == ["pass"]
    assert dense_calls == [("qplab.greens", "sytrf", np.dtype(np.float64))]
    rest = assemble_restriction(weak_model, box_around(np.zeros(1), 8),
                                0.113, 0.3)
    t = rest.matrix.copy()
    t[0, 1] = np.nextafter(t[0, 1], 1.0)
    for matrix, dtype in ((rest.matrix + 0.1j, np.complex128),
                          (t, np.float64)):
        dense_calls.clear()
        green_solve(matrix)
        assert dense_calls == [("qplab.greens", "lu_factor", np.dtype(dtype))]


def test_green_sweep_takes_no_spectrum(dense_calls):
    cfg = parse_config(make_raw("green", GREEN_SHARED))
    bundle = run(cfg)
    assert [e["status"] for e in bundle.summary] == ["pass"] * 4
    assert {name for caller, name, _ in dense_calls
            if caller == "qplab.greens"} == {"sytrf"}
    for entry in bundle.summary:
        rest = assemble_restriction(cfg.model, cfg.window, entry["theta"],
                                    entry["energy"])
        (row0,) = [row for row in bundle.artifacts[entry["artifacts"][0]].rows
                   if row[0] == 0]
        assert row0[1] == green_solve(rest.matrix).op_norm
        assert row0[1] >= np.linalg.norm(np.linalg.inv(rest.matrix), 2)


def test_green_sweep_table_is_the_good_set_estimate():
    """A green point's table is ``verify_good_set(run, window, 0)`` on an
    s = 0 run at its phase and energy: one scale-0 estimate."""
    cfg = parse_config(make_raw("green", GREEN_SHARED))
    bundle = run(cfg)
    for entry in bundle.summary:
        table = bundle.artifacts[entry["artifacts"][0]]
        est = verify_good_set(
            run_induction(cfg.model, entry["theta"], entry["energy"],
                          cfg.window, cfg.schedule, 0), cfg.window.sites, 0)
        fit = est.decay
        assert table.rows[0] == (0, est.norm, scale0_bounds(
            cfg.model, cfg.schedule)[0], est.norm_ok)
        assert table.rows[0][2] == pytest.approx(math.exp(est.log_bound))
        assert table.rows[1:] == list(zip(fit.dists, fit.peaks, fit.bounds,
                                          fit.ok))


def test_scale0_bound_is_infinite_once_delta0_squared_underflows():
    cfgs = [parse_config(make_raw("green", GREEN_PASS,
                                  schedule={"delta0": delta0}))
            for delta0 in (1e-100, 1e-200)]
    normal, tiny = (scale0_bounds(c.model, c.schedule)[0] for c in cfgs)
    # delta0^2 = 1e-200 is a normal float: the formula's own bits
    assert normal == 2.0 / (cfgs[0].model.potential.kappa1
                            * cfgs[0].schedule.delta(0) ** 2)
    assert tiny == math.inf


@pytest.mark.parametrize("kind, sweep, status", [
    ("green", GREEN_PASS, "pass"),
    ("dynamics", {"radius": 8, "theta": [0.1], "times": [2.0, 200.0]},
     "skip"),
])
def test_tiny_delta0_completes(tmp_path, kind, sweep, status):
    """delta0 = 1e-200 puts 2/(kappa1 delta0^2) and T_0 = delta0^-3 past
    the float range: the green norm bound and the onset are inf, so a green
    point gates its decay only and a dynamics point gates no row."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(kind, sweep,
                                            schedule={"delta0": 1e-200})))
    assert main([kind, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [e["status"] for e in summary] == [status]
    rows = (tmp_path / "out" / f"{kind}_000.csv").read_text().splitlines()
    if kind == "green":
        assert rows[1].split(",")[2:] == ["inf", "true"]
    else:
        assert summary[0]["detail"].startswith(
            "no row gated: 2 of 2 times before T_0 = inf")


def test_documented_dynamics_example_gates_a_row():
    """The config layout in ``qplab.cli``'s docstring, run at radius 8,
    gates a row: its delta0 puts T_0 among its times."""
    layout = cli.__doc__.split("flat sections::")[1].split("``parse_config")
    raw = json.loads(re.sub(r"#[^\n]*", "", layout[0]))
    assert raw["kind"] == "dynamics"
    raw["sweep"]["radius"] = 8
    bundle = run(parse_config(raw))
    assert any(row[4] for row in bundle.artifacts["dynamics_000"].rows)


def test_dynamics_point_with_no_gated_row_is_a_skip():
    """At eps = 0.5 on a radius-4 window every time from T_0 = 125 on has
    outer-layer mass 1e-3 to 1e-2, so no row is gated."""
    raw = make_raw("dynamics", {"radius": 4, "theta": [0.1],
                                "times": [125.0, 250.0, 500.0, 1000.0]},
                   model={"eps": 0.5, "eps0": 1.0}, schedule=GATING_SCHEDULE)
    bundle = run(parse_config(raw))
    assert [(e["status"], e["detail"]) for e in bundle.summary] == [
        ("skip", "no row gated: 0 of 4 times before T_0 = 125, 4 with "
                 "outer-layer mass >= 1e-06")]
    assert exit_code(bundle) == 0
    rows = bundle.artifacts["dynamics_000"].rows
    assert all(row[3] >= 1e-6 and not row[4] for row in rows)


@pytest.mark.parametrize("owner, name, n_calls", [
    (cli, "sup_distance_classes", 2),  # once per sweep, plus the retry
], ids=["window"])
def test_green_sweep_caches_no_failure(monkeypatch, owner, name, n_calls):
    real = getattr(owner, name)
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(name)
        if len(calls) == 1:
            raise MemoryError("planted failure")
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, fail_once)
    bundle = run(parse_config(make_raw("green", GREEN_SHARED)))
    # the failed step is retried by the next point
    assert [e["status"] for e in bundle.summary] == \
        ["error", "pass", "pass", "pass"]
    assert len(calls) == n_calls


def test_green_sweep_builds_its_distance_classes_once(monkeypatch):
    # the other points wait for the one build instead of starting their own
    real = cli.sup_distance_classes
    calls = []

    def slow(*args, **kwargs):
        calls.append(args)
        time.sleep(0.05)
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "sup_distance_classes", slow)
    bundle = run(parse_config(make_raw("green", GREEN_SHARED)), jobs=4)
    assert [e["status"] for e in bundle.summary] == ["pass"] * 4
    assert len(calls) == 1


def test_import_leaves_out_scipy_integrate():
    """scipy.integrate costs about 0.3 s and 23 MB to import; neither the
    CLI nor ``kernel_sum``, whose tail bound is in closed form, loads it."""
    subprocess.run([sys.executable, "-c",
                    "import qplab.cli, sys; "
                    "qplab.kernel_sum(1.0, 2.0, 1, 30); "
                    "assert 'scipy.integrate' not in sys.modules"],
                   check=True)


def _raise(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("planted failure")
    return fail


@pytest.mark.parametrize("exc_type", [np.linalg.LinAlgError, MemoryError])
@pytest.mark.parametrize("kind, sweep, owner, name", [
    ("green", GREEN_PASS, qplab.greens, "sytrf"),
    ("dynamics", {"radius": 8, "theta": [0.1], "times": [1.0]},
     np.linalg, "eigh"),
], ids=["green-sytrf", "dynamics-eigh"])
def test_linalg_and_memory_errors_become_error_rows(
        tmp_path, monkeypatch, exc_type, kind, sweep, owner, name):
    if owner is qplab.greens:
        monkeypatch.setattr(owner, "get_lapack_funcs", lapack_through(
            owner.get_lapack_funcs,
            lambda n, f: _raise(exc_type) if n == name else f))
    else:
        monkeypatch.setattr(owner, name, _raise(exc_type))
    raw = make_raw(kind, sweep)
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["error"]
    assert bundle.summary[0]["detail"] == (
        f"{exc_type.__name__}: planted failure")
    assert exit_code(bundle) == 2
    with pytest.raises(exc_type):
        run(parse_config(raw), fail_fast=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for flags in ([], ["--fail-fast"]):
        assert main([kind, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")] + flags) == 2


def test_error_rows_and_fail_fast(monkeypatch):
    # a radius-30000 dynamics window would need about 58 GB as a dense
    # matrix: it is refused before any point runs
    for raw in (make_raw("assemble", {"radius": 3000, "theta": [0.1],
                                      "energy": [0.0]}),
                make_raw("dynamics", {"radius": 30000, "theta": [0.1],
                                      "times": [1.0]})):
        with pytest.raises(ConfigInvalid, match="cap") as exc:
            parse_config(raw)
        assert exc.value.field == "sweep.radius"

    # a runtime failure ends its own point only, or the sweep under
    # fail-fast
    assemble = cli.assemble_restriction

    def planted(model, box, theta, energy):
        if theta > 0.15:
            raise QplabError("planted failure")
        return assemble(model, box, theta, energy)

    monkeypatch.setattr(cli, "assemble_restriction", planted)
    cfg = parse_config(make_raw("assemble", {"radius": 8,
                                             "theta": [0.1, 0.2],
                                             "energy": [0.0]}))
    bundle = run(cfg)
    assert [e["status"] for e in bundle.summary] == ["pass", "error"]
    assert bundle.summary[1]["detail"] == "QplabError: planted failure"
    assert exit_code(bundle) == 2
    with pytest.raises(QplabError, match="planted failure"):
        run(cfg, fail_fast=True)


def test_msa_sweep_guards_target_depth():
    raw = make_raw("msa", {"radius": 64, "theta": [0.113],
                           "energy": [0.3], "s_target": 3},
                   schedule={"delta0": 1e-6})
    with pytest.raises(ConfigInvalid, match="s_target"):
        parse_config(raw)


def test_msa_sweep_reports_reached_depth():
    raw = make_raw("msa", {"radius": 64, "theta": [0.113],
                           "energy": [0.3], "s_target": 1},
                   schedule={"delta0": 1e-6})
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["pass"]
    assert "reached scale 0 of 1" in bundle.summary[0]["detail"]


def _planted_msa_sweep():
    """Two case-1 climbers at E = 0.3 and one stopper, planted as the
    msa-ladder benchmark plants them: a climber puts the site ``k`` in the
    - shell, theta + k omega = theta0 + off with |off| < delta0."""
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    theta0 = math.acos(0.3) / (2.0 * math.pi)
    climbers = [(theta0 - k * omega + off) % 1.0
                for k, off in ((21, -7.7e-4), (9, -8.4e-4))]
    return {"radius": 128, "theta": climbers + [0.0793], "energy": [0.3],
            "s_target": 1}


def _msa_raw(sweep):
    return make_raw("msa", sweep, model={"eps": 1e-4},
                    schedule={"rho_prime": 1.9, "delta0": 1e-3})


def test_msa_sweep_tracks_a_shared_root_once(tmp_path, monkeypatch):
    calls = []
    real = qplab.msa.track_theta

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qplab.msa, "track_theta", counted)
    sweep = _planted_msa_sweep()
    cfg = parse_config(_msa_raw(sweep))
    bundle = run(cfg)
    # both climbers reach scale 1 with one tracking call between them
    assert len(calls) == 1
    depths = [len(bundle.artifacts[f"msa_{i:03d}"].rows) - 1
              for i in range(3)]
    assert sorted(depths) == [0, 1, 1]
    assert all(e["status"] == "pass" for e in bundle.summary)
    emit(bundle, str(tmp_path / "shared"))
    shared = _read_bundle(tmp_path / "shared")

    # each point's table is the one it gets in a sweep of its own
    for i, theta in enumerate(cfg.points):
        own = dict(sweep, theta=[theta["theta"]])
        emit(run(parse_config(_msa_raw(own))), str(tmp_path / f"own{i}"))
        assert (tmp_path / f"own{i}" / "msa_000.csv").read_bytes() == \
            shared[f"msa_{i:03d}.csv"]
    emit(run(cfg, jobs=2), str(tmp_path / "pooled"))
    assert _read_bundle(tmp_path / "pooled") == shared

    # the shared roots live for one run() call: each run tracks afresh
    calls.clear()
    run(cfg)
    run(cfg)
    assert len(calls) == 2


def test_msa_sweep_race_costs_a_track_not_a_byte(tmp_path, monkeypatch):
    # both climbers miss the shared key before either stores its step
    real = qplab.msa.track_theta
    barrier = threading.Barrier(2, timeout=60)
    calls = []

    def racing(*args):
        calls.append(args)
        barrier.wait()
        return real(*args)

    cfg = parse_config(_msa_raw(_planted_msa_sweep()))
    emit(run(cfg), str(tmp_path / "serial"))
    monkeypatch.setattr(qplab.msa, "track_theta", racing)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        emit(run(cfg, jobs=4), str(tmp_path / "raced"))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 2
    assert _read_bundle(tmp_path / "raced") == \
        _read_bundle(tmp_path / "serial")


def test_dynamics_sweep_shares_eigendecompositions(tmp_path):
    raw = make_raw("dynamics", {"radius": 16, "theta": [0.1, 0.3],
                                "times": [2.0, 200.0]},
                   schedule=GATING_SCHEDULE)
    bundle = run(parse_config(raw))
    assert [e["status"] for e in bundle.summary] == ["pass", "pass"]
    # one stored eigendecomposition per phase serves all of its times
    assert len(list((tmp_path / "eig-cache").glob("*.npz"))) == 2
    assert "cache" not in bundle.manifest
    raw_no_times = make_raw("dynamics", {"radius": 16, "theta": [0.1]})
    with pytest.raises(ConfigInvalid, match="missing required grid"):
        parse_config(raw_no_times)


def test_dynamics_sweep_averaged_moments():
    sweep = {"radius": 8, "theta": [0.1], "times": [200.0]}
    moments = {}
    for averaged in (False, True):
        bundle = run(parse_config(make_raw(
            "dynamics", dict(sweep, averaged=averaged),
            schedule=GATING_SCHEDULE)))
        assert [e["status"] for e in bundle.summary] == ["pass"]
        (row,) = bundle.artifacts["dynamics_000"].rows
        moments[averaged] = row[1]
    assert moments[True] != pytest.approx(moments[False], rel=1e-6)
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(make_raw("dynamics", dict(sweep, averaged=1)))
    assert exc.value.field == "sweep.averaged"


def test_localize_and_verify_kinds_smoke():
    raw = make_raw("localize", {"radius": 8, "theta": [0.1]})
    bundle = run(parse_config(raw))
    assert bundle.summary[0]["status"] == "pass"
    assert bundle.artifacts["localize_000"].header[0] == "eigenvalue"

    verify = default_config()
    verify["sweep"]["instances"] = 60
    bundle = run(parse_config(verify))
    table = bundle.artifacts["suites_000"]
    assert [row[0] for row in table.rows] == [
        "quasi-metric", "extract", "hadamard", "schur",
        "det-perturbation", "combes-thomas"]
    assert all(row[2] == 0 for row in table.rows)
    assert exit_code(bundle) == 0


def test_combes_thomas_suite_is_the_same_in_any_chunks(monkeypatch):
    """The suite checks the instances that per-instance draws and
    assembly gave, in one stack per chunk of at most ``DENSE_CAP**2``
    entries."""
    cfg = parse_config(default_config())
    seen, stacks, tables = [], [], []
    toeplitz_block = qplab.model.toeplitz_block

    def check(h, sites, z, *args):
        seen[-1].append((h.tobytes(), z))
        return combes_thomas_check(h, sites, z, *args)

    def assemble(*args):
        stack = qplab.model.assemble_t_matrix(*args)
        stacks[-1].append(stack.size)
        return stack

    def table(*args):
        tables[-1] += 1
        return toeplitz_block(*args)

    monkeypatch.setattr(cli, "combes_thomas_check", check)
    monkeypatch.setattr(cli, "assemble_t_matrix", assemble)
    monkeypatch.setattr(qplab.model, "toeplitz_block", table)
    rows = []
    # one chunk, then chunks of four 33-site matrices
    for cap in (cli.DENSE_CAP, 66):
        monkeypatch.setattr(cli, "DENSE_CAP", cap)
        seen.append([])
        stacks.append([])
        tables.append(0)
        rows.append(cli._suite_rows(cfg)[-1])
        assert max(stacks[-1]) <= cap ** 2
    assert rows[0] == rows[1] == ("combes-thomas", 10, 0)
    assert stacks == [[10 * 33 ** 2], [4 * 33 ** 2, 4 * 33 ** 2, 2 * 33 ** 2]]
    assert tables == [1, 3]
    assert seen[0] == seen[1]
    rng = np.random.default_rng([cfg.seed, 15])
    for h, z in seen[0]:
        rest = assemble_restriction(cfg.model, cfg.window,
                                    rng.uniform(0.0, 1.0), 0.0)
        assert (h, z) == (rest.matrix.tobytes(),
                          complex(rng.uniform(-1.0, 1.0), 0.75))


def test_every_kind_has_a_handler():
    assert set(cli._HANDLERS) == set(KINDS)


def _one_failing_green_row(monkeypatch, cfg):
    # a tiny norm bound fails the r = 0 row only
    pot = dataclasses.replace(cfg.model.potential, kappa1=1e30, kappa2=1e30)
    return dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, potential=pot))


def _one_failing_msa_row(monkeypatch, cfg):
    real = qplab.msa.track_theta
    monkeypatch.setattr(qplab.msa, "track_theta", lambda *args: (
        dataclasses.replace(real(*args), det_violations=1)))
    return cfg


def _one_failing_dynamics_row(monkeypatch, cfg):
    real = cli.moment_ceiling
    monkeypatch.setattr(cli, "moment_ceiling", lambda t, p, rho_prime: (
        0.0 if t == 200.0 else real(t, p, rho_prime)))
    return cfg


def _one_failing_verify_row(monkeypatch, cfg):
    real = cli.extract_lower_bound

    def planted(x, y, rho):
        bound = real(x, y, rho)
        bound[:3] = np.log1p(x[:3] - y[:3]) ** rho * 1.01
        return bound
    monkeypatch.setattr(cli, "extract_lower_bound", planted)
    return cfg


def _one_climber_msa_raw():
    # scales 0 and 1
    sweep = _planted_msa_sweep()
    return _msa_raw(dict(sweep, theta=sweep["theta"][:1]))


GATED_KINDS = {
    "green": (lambda: make_raw("green", GREEN_PASS), _one_failing_green_row,
              17),
    "msa": (_one_climber_msa_raw, _one_failing_msa_row, 2),
    "dynamics": (lambda: make_raw("dynamics", {"radius": 8, "theta": [0.1],
                                               "times": [2.0, 200.0]},
                                  schedule=GATING_SCHEDULE),
                 _one_failing_dynamics_row, 2),
    "verify-lemmas": (default_config, _one_failing_verify_row, 6),
}


@pytest.mark.parametrize("kind", sorted(GATED_KINDS))
def test_pass_column_sets_the_status(monkeypatch, kind):
    """Every gated kind reads its point's status off the last column: one
    false cell fails the point and counts in its detail."""
    make, plant, n_rows = GATED_KINDS[kind]
    cfg = parse_config(make())
    bundle = run(cfg)
    assert [(e["status"], e["detail"]) for e in bundle.summary] == [
        ("pass", f"{n_rows} rows, all pass")]
    assert exit_code(bundle) == 0
    bundle = run(plant(monkeypatch, cfg))
    assert [(e["status"], e["detail"]) for e in bundle.summary] == [
        ("fail", f"1 of {n_rows} rows violate")]
    assert exit_code(bundle) == 1
    (table,) = bundle.artifacts.values()
    assert [row[-1] for row in table.rows].count(False) == 1


# ---------------------------------------------------------------------------
# emission


def _read_bundle(path):
    return {name: (path / name).read_bytes()
            for name in sorted(os.listdir(path))}


def test_emit_layout_and_headers(tmp_path):
    bundle = run(parse_config(make_raw("green", GREEN_PASS)))
    out = tmp_path / "report"
    files = emit(bundle, str(out))
    assert files == ["green_000.csv", "manifest.json", "summary.csv",
                     "summary.json"]
    first = (out / "green_000.csv").read_text().splitlines()[0]
    assert first == "dist,modulus,bound,pass"
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "point,theta,energy,status,detail,artifacts"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counts"] == {"pass": 1, "fail": 0, "skip": 0,
                                  "error": 0}
    assert manifest["artifact_files"] == ["green_000"]
    assert manifest["timings"] is None
    assert manifest["version"] == qplab.__version__
    # staging directories must not survive the rename
    assert not [d for d in os.listdir(tmp_path) if d.startswith(".qplab")]


def test_emit_replaces_existing_bundle(tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    (out / "stale.txt").write_text("old run")
    bundle = run(parse_config(make_raw("green", GREEN_PASS)))
    emit(bundle, str(out))
    assert not (out / "stale.txt").exists()
    assert (out / "manifest.json").exists()


def test_emit_json_format(tmp_path):
    bundle = run(parse_config(make_raw("green", GREEN_PASS)))
    out = tmp_path / "report"
    files = emit(bundle, str(out), fmt="json")
    assert "green_000.json" in files and "summary.csv" not in files
    art = json.loads((out / "green_000.json").read_text())
    assert art["header"] == ["dist", "modulus", "bound", "pass"]
    with pytest.raises(ConfigInvalid):
        emit(bundle, str(out), fmt="yaml")


def test_bundle_byte_identical_on_rerun(tmp_path):
    raw = make_raw("green", GREEN_PASS)
    emit(run(parse_config(raw)), str(tmp_path / "a"))
    emit(run(parse_config(raw)), str(tmp_path / "b"))
    assert _read_bundle(tmp_path / "a") == _read_bundle(tmp_path / "b")


PARALLEL_SWEEPS = {
    # two 0-good energies per solved phase, so points share a spectrum
    "green": {"radius": 8, "theta": [0.0, 0.25, 0.38], "energy": [0.3, 0.4]},
    "dynamics": {"radius": 8, "theta": [0.1, 0.3], "times": [2.0, 200.0]},
    "localize": {"radius": 8, "theta": [0.1, 0.3]},
}


@pytest.mark.parametrize("kind", sorted(PARALLEL_SWEEPS))
def test_parallel_jobs_do_not_change_bundles(tmp_path, monkeypatch, kind):
    raw = make_raw(kind, PARALLEL_SWEEPS[kind])
    for name, jobs in (("serial", 1), ("pooled", 4)):
        # a cold cache for each run, so both compute every point
        monkeypatch.setenv("QPLAB_CACHE_DIR", str(tmp_path / f"{name}-eig"))
        emit(run(parse_config(raw), jobs=jobs), str(tmp_path / name))
    assert _read_bundle(tmp_path / "serial") == \
        _read_bundle(tmp_path / "pooled")
    if kind == "dynamics":
        # a warm rerun reads every point from disk and changes no byte
        monkeypatch.setattr(cli, "evolve_amplitudes", _raise(AssertionError))
        emit(run(parse_config(raw), jobs=4), str(tmp_path / "warm"))
        assert _read_bundle(tmp_path / "warm") == \
            _read_bundle(tmp_path / "serial")


# ---------------------------------------------------------------------------
# entry point


def test_main_verify_lemmas_needs_no_config(tmp_path, capsys):
    rc = main(["verify-lemmas", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "verify-lemmas: 1 pass" in capsys.readouterr().out


def test_verify_lemmas_counts_a_planted_extract_violation(
        tmp_path, monkeypatch, capsys):
    # a bound above log^rho(1 + x - y) is a counted violation, a fail row
    # with exit code 1, not an error row
    _one_failing_verify_row(monkeypatch, None)
    rc = main(["verify-lemmas", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "verify-lemmas: 0 pass, 1 fail" in capsys.readouterr().out
    rows = (tmp_path / "out" / "suites_000.csv").read_text().splitlines()
    assert "extract,200,3,false" in rows


def test_main_requires_config_for_other_kinds(tmp_path, capsys):
    rc = main(["green", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_main_green_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw("green", GREEN_PASS)))
    rc = main(["green", "--config", str(cfg_path),
               "--out", str(tmp_path / "out"), "--format", "json"])
    assert rc == 0
    assert (tmp_path / "out" / "green_000.json").exists()
    assert "green: 1 pass" in capsys.readouterr().out


def test_main_rejects_bad_inputs(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["green", "--config", str(bad_json),
                 "--out", str(tmp_path / "out")]) == 2

    mismatched = tmp_path / "mismatch.json"
    mismatched.write_text(json.dumps(make_raw("green", GREEN_PASS)))
    assert main(["dynamics", "--config", str(mismatched),
                 "--out", str(tmp_path / "out")]) == 2

    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(make_raw("green", GREEN_PASS)))
    assert main(["green", "--config", str(ok), "--jobs", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err

    bad_p = tmp_path / "bad-p.json"
    bad_p.write_text(json.dumps(make_raw(
        "dynamics", {"radius": 8, "theta": [0.1], "times": [200.0],
                     "p": "abc"})))
    assert main(["dynamics", "--config", str(bad_p),
                 "--out", str(tmp_path / "out-p")]) == 2
    assert "sweep.p" in capsys.readouterr().err
    assert not (tmp_path / "out-p").exists()


def test_main_propagates_violation_exit(tmp_path, capsys):
    raw = make_raw("green", GREEN_PASS, model={"eps": 0.5, "eps0": 1.0})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    rc = main(["green", "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "1 fail" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config checking: every bad field ends before any point runs


def _small_config(kind, radius=8, thetas=(0.113,), instances=20):
    raw = default_config(kind)
    raw["sweep"] = {"radius": radius, "theta": list(thetas),
                    "energy": [0.3], "instances": instances}
    if kind == "dynamics":
        raw["sweep"]["times"] = [2.0]
    return raw


_ABSENT = object()

BAD_FIELDS = [
    ("dynamics", "sweep.p", "abc", "sweep.p"),
    ("dynamics", "sweep.averaged", 1, "sweep.averaged"),
    ("dynamics", "sweep.times", _ABSENT, "sweep.times"),
    ("dynamics", "sweep.times", [], "sweep.times"),
    ("dynamics", "sweep.radius", 0, "sweep.radius"),
    ("green", "sweep.radius", 2.5, "sweep.radius"),
    ("green", "sweep.radius", True, "sweep.radius"),
    ("green", "sweep.theta", "dense", "sweep.theta"),
    ("green", "sweep.theta", {"random": 3, "low": "abc"}, "sweep.theta.low"),
    ("green", "sweep.theta", {"start": 0.1, "stop": 0.2, "count": 2.7},
     "sweep.theta.count"),
    ("green", "schedule.delta0", 2.0, "schedule.delta0"),
    ("assemble", "sweep.radius", 3000, "sweep.radius"),
    ("msa", "sweep.s_target", 3, "sweep.s_target"),
    ("verify-lemmas", "sweep.instances", 0, "sweep.instances"),
    ("verify-lemmas", "sweep.instances", True, "sweep.instances"),
    ("localize", "sweep.radius", 10 ** 400, "sweep.radius"),
    ("green", "model.omega", [True], "model.omega"),
    ("green", "model.rho", 0.5, "model"),
    ("green", "seed", -1, "seed"),
]


@pytest.mark.parametrize("kind, path, value, field", [
    pytest.param(*case, id=f"{case[0]}:{case[1]}="
                 + ("absent" if case[2] is _ABSENT else reprlib.repr(case[2])))
    for case in BAD_FIELDS])
def test_bad_field_is_refused_before_any_point(tmp_path, capsys, kind, path,
                                               value, field):
    raw = _small_config(kind)
    *sections, name = path.split(".")
    sec = raw[sections[0]] if sections else raw
    if value is _ABSENT:
        del sec[name]
    else:
        sec[name] = value
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == field
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_averaged_needs_positive_horizons():
    raw = make_raw("dynamics", {"radius": 8, "theta": [0.1],
                                "times": [0.0, 2.0], "averaged": True})
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(raw)
    assert exc.value.field == "sweep.times"
    raw["sweep"]["averaged"] = False
    assert parse_config(raw).times == [0.0, 2.0]


def test_main_refuses_non_object_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    out = tmp_path / "out"
    assert main(["green", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "must be an object" in capsys.readouterr().err
    assert not out.exists()


# the sweep fields each kind reads
READS = {
    "assemble": ("radius", "theta", "energy"),
    "green": ("radius", "theta", "energy"),
    "msa": ("radius", "theta", "energy", "s_target"),
    "dynamics": ("radius", "theta", "times", "p", "averaged"),
    "localize": ("radius", "theta"),
    "verify-lemmas": ("radius", "instances"),
}

_NAN = float("nan")
_WRONG_TYPE = st.one_of(st.text(max_size=3), st.none(),
                        st.dictionaries(st.text(max_size=2), st.integers(),
                                        max_size=1))
_BAD_COUNT = st.one_of(st.booleans(), st.integers(max_value=-1), st.floats())
_BAD_GRID = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(), st.floats(),
    st.lists(st.sampled_from([True, _NAN, "x"]), min_size=1, max_size=2),
    st.builds(lambda c: {"start": 0.1, "stop": 0.2, "count": c}, _BAD_COUNT),
    st.builds(lambda c: {"random": c}, _BAD_COUNT),
    st.builds(lambda k: {"start": 0.1, "stop": 0.2, "count": 2, k: 1},
              st.sampled_from(["lgo", "high", "random"])),
    st.builds(lambda v: {"random": 2, "low": v},
              st.one_of(st.text(max_size=3), st.booleans(), st.just(_NAN))))
MUTATIONS = {
    "radius": st.one_of(_WRONG_TYPE, st.booleans(), st.integers(max_value=0),
                        st.floats()),
    "theta": _BAD_GRID,
    "energy": _BAD_GRID,
    "times": _BAD_GRID,
    "p": st.one_of(_WRONG_TYPE, st.booleans(), st.just(_NAN),
                   st.just(float("inf"))),
    "averaged": st.one_of(_WRONG_TYPE, st.integers(), st.floats()),
}
MUTATIONS["s_target"] = MUTATIONS["instances"] = MUTATIONS["radius"]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz(capsys, data):
    """One bad sweep field exits 2 naming it and writes nothing; an
    unmutated small config runs."""
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    raw = _small_config(
        kind, data.draw(st.integers(1, 8), label="radius"),
        data.draw(st.lists(st.sampled_from([0.113, 0.3, 0.7]), min_size=1,
                           max_size=2, unique=True), label="thetas"),
        data.draw(st.integers(1, 20), label="instances"))
    name = data.draw(st.none() | st.sampled_from(READS[kind]),
                     label="field")
    if name is not None:
        raw["sweep"][name] = data.draw(MUTATIONS[name], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out")
        rc = main([kind, "--config", cfg_path, "--out", out])
        err = capsys.readouterr().err
        if name is None:
            assert rc in (0, 1), err
            assert os.path.isdir(out)
        else:
            assert rc == 2
            assert f"sweep.{name}" in err
            assert not os.path.exists(out)
