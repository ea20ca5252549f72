"""Dynamics: propagators, transport moments, and their Green-function bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve

import qplab.dynamics
from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    box_around,
    build_schedule,
    run_induction,
)
from qplab.dynamics import (
    amplitudes,
    arithmetic_phase_test,
    evolve_amplitudes,
    green_moment_bound,
    localization_profile,
    moment_ceiling_check,
    moment_p,
    offaxis_green_decay,
    time_avg_moment,
)
from qplab.errors import (
    BracketViolated,
    NotHermitian,
    PreconditionViolated,
    SpectrumEscapes,
)
from qplab.model import assemble_t_matrix


@pytest.fixture(scope="module")
def weak_ev16(weak_model):
    return evolve_amplitudes(weak_model, box_around(np.zeros(1), 16), 0.3)


@pytest.fixture(scope="module")
def weak_ev32(weak_model):
    return evolve_amplitudes(weak_model, box_around(np.zeros(1), 32), 0.3)


@pytest.fixture(scope="module")
def rabi_ev(cosine_potential, saturating_kernel):
    """Two-site system with both diagonal entries exactly zero.

    With omega = 1/2 and theta = 1/4 the potential vanishes at both sites,
    so the restriction is a pure hopping coupling: a textbook Rabi problem
    with analytically known amplitudes.
    """
    freq = FrequencyVector((0.5,), 2.0, 0.2)
    model = ModelSpec(cosine_potential, saturating_kernel, freq, 1e-3)
    return evolve_amplitudes(model, box_around(np.array([0.5]), 0.5), 0.25)


RABI_C = 1e-3 * math.exp(-math.log(2.0) ** 2)


def test_evolution_is_unitary(weak_ev16):
    for t in (0.0, 1.0, 50.0, 2000.0):
        amp = amplitudes(weak_ev16, t)
        assert abs(float(np.sum(np.abs(amp) ** 2)) - 1.0) <= 1e-8


def test_zeroth_moment_is_one(weak_ev16):
    for t in (0.5, 10.0, 300.0):
        mv = moment_p(weak_ev16, t, 0.0)
        assert mv.value == pytest.approx(1.0, abs=1e-12)
        assert mv.conservation_defect <= 1e-12


def test_frozen_coupling_moments_stay_at_one(weak_model):
    frozen = ModelSpec(weak_model.potential, weak_model.hopping,
                       weak_model.frequency, 0.0)
    ev = evolve_amplitudes(frozen, box_around(np.zeros(1), 16), 0.3)
    for t in (1.0, 100.0):
        assert moment_p(ev, t, 2.0).value == pytest.approx(1.0, abs=1e-12)


def test_evolution_rejects_complex_phase(weak_model):
    with pytest.raises(NotHermitian):
        evolve_amplitudes(weak_model, box_around(np.zeros(1), 4),
                          0.3 + 0.1j)


def test_evolution_needs_origin(weak_model):
    with pytest.raises(PreconditionViolated):
        evolve_amplitudes(weak_model, box_around(np.array([5.0]), 2.0), 0.3)


def test_rabi_amplitudes_match_closed_form(rabi_ev):
    assert rabi_ev.sites.ravel().tolist() == [0, 1]
    j1 = 1 if rabi_ev.sites.ravel()[1] == 1 else 0
    for t in (0.0, 3.0, 700.0, 4000.0):
        amp = amplitudes(rabi_ev, t)
        assert abs(amp[j1]) == pytest.approx(abs(math.sin(RABI_C * t)),
                                             abs=1e-10)


def test_time_average_matches_closed_form(rabi_ev):
    for horizon, p in ((5.0, 1.0), (50.0, 2.0), (300.0, 2.0)):
        ta = time_avg_moment(rabi_ev, horizon, p)
        x = RABI_C ** 2 * horizon ** 2 \
            / (2.0 * (1.0 + RABI_C ** 2 * horizon ** 2))
        assert ta.value == pytest.approx((1.0 - x) + 2.0 ** p * x,
                                         abs=1e-10)


def _resolvent_column(model, ev, theta, z):
    """``G(z)(., 0)`` by one LU solve of the assembled restriction."""
    t_mat = assemble_t_matrix(model, ev.sites, theta, z)
    e0 = np.zeros(ev.sites.shape[0], dtype=complex)
    e0[ev.origin_idx] = 1.0
    return lu_solve(lu_factor(t_mat), e0)


def _time_avg_by_resolvent(model, ev, theta, horizon, p):
    """Abel-averaged moment from the resolvent identity
    ``(1/(pi T)) int_R sum_n (1+|n|)^p |G(E + i/T)(n, 0)|^2 dE``, by
    adaptive quadrature with breakpoints at the eigenvalues and infinite
    tails."""
    wgt = (1.0 + np.max(np.abs(ev.sites), axis=1)) ** p

    def integrand(e):
        g = _resolvent_column(model, ev, theta, complex(e, 1.0 / horizon))
        return float(np.sum(wgt * np.abs(g) ** 2))

    lo = float(np.min(ev.eigvals)) - 1.0
    hi = float(np.max(ev.eigvals)) + 1.0
    kw = {"epsrel": 1e-13, "epsabs": 0.0, "limit": 2000}
    total = (quad(integrand, -np.inf, lo, **kw)[0]
             + quad(integrand, lo, hi, points=ev.eigvals, **kw)[0]
             + quad(integrand, hi, np.inf, **kw)[0])
    return total / (math.pi * horizon)


def _twisted_model(model):
    """``model`` with the complex Hermitian kernel
    ``phi(n) = env(n) exp(i pi sign(n) / 3)``.  Its phase is not linear in
    ``n``, so no diagonal gauge makes the operator real."""
    def fn(diffs):
        return model.hopping.fn(diffs) * np.exp(
            1j * np.pi / 3.0 * np.sign(diffs[:, 0]))

    kernel = HoppingKernel.from_callable(model.hopping.alpha,
                                         model.hopping.rho, fn)
    return ModelSpec(model.potential, kernel, model.frequency, model.eps)


@pytest.mark.parametrize("twisted, radius, theta, horizon", [
    pytest.param(False, r, th, h, id=f"{r}-{th}-{h}")
    for r in (6, 8) for th in (0.113, 0.3)
    for h in (1.0, 20.0, 125.0, 1000.0)
] + [pytest.param(True, 6, 0.113, 125.0, id="complex-kernel")])
def test_time_average_matches_resolvent_oracle(weak_model, twisted, radius,
                                               theta, horizon):
    model = _twisted_model(weak_model) if twisted else weak_model
    ev = evolve_amplitudes(model, box_around(np.zeros(1), radius), theta)
    assert np.iscomplexobj(ev.eigvecs) == twisted
    got = time_avg_moment(ev, horizon, 2.0).value
    want = _time_avg_by_resolvent(model, ev, theta, horizon, 2.0)
    assert got == pytest.approx(want, rel=1e-10)
    assert got - 1.0 == pytest.approx(want - 1.0, rel=1e-6)


def test_time_average_dual_paths_agree(weak_ev32):
    # an independent second path: 64-node Gauss-Laguerre in time over
    # t = T x / 2, one propagator row per node
    ta = time_avg_moment(weak_ev32, 20.0, 2.0)
    x, w = np.polynomial.laguerre.laggauss(64)
    wgt = (1.0 + weak_ev32.dists) ** 2
    by_quad = sum(wi * float(np.sum(wgt * np.abs(
        amplitudes(weak_ev32, 10.0 * xi)) ** 2)) for xi, wi in zip(x, w))
    assert abs(by_quad - ta.value) / max(1.0, ta.value) <= 1e-6


def test_time_average_quadrature_guard(weak_ev32):
    with pytest.raises(ValueError):
        time_avg_moment(weak_ev32, -1.0, 2.0)


def test_time_average_exact_where_laguerre_failed(cosine_potential,
                                                  saturating_kernel,
                                                  golden_frequency):
    # a node-doubling Gauss-Laguerre check reached numpy's non-finite
    # weights (256 nodes and up) on this instance; the exact sum needs none
    model = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                      0.3, eps0=0.5)
    ev = evolve_amplitudes(model, box_around(np.zeros(1), 8), 0.113)
    for horizon in (10.0, 1000.0):
        got = time_avg_moment(ev, horizon, 1.0).value
        assert math.isfinite(got)
        want = _time_avg_by_resolvent(model, ev, 0.113, horizon, 1.0)
        assert got == pytest.approx(want, rel=1e-10)


def test_boundary_mass_reported(cosine_potential, saturating_kernel,
                                golden_frequency):
    spread = ModelSpec(cosine_potential, saturating_kernel,
                       golden_frequency, 0.5, eps0=1.0)
    ev = evolve_amplitudes(spread, box_around(np.zeros(1), 8), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert moment_p(ev, 1000.0, 2.0).boundary_mass > 1e-6
        assert time_avg_moment(ev, 1000.0, 2.0).boundary_mass > 1e-6


@pytest.mark.parametrize("mode", ["fixed", "avg"])
def test_green_moment_bound_holds(weak_model, weak_ev16, mode):
    rep = green_moment_bound(weak_model, weak_ev16, 10.0,
                             [[3], [7], [12]], mode=mode)
    flat = green_moment_bound(weak_model, weak_ev16, 10.0, [3, 7, 12],
                              mode=mode)
    assert np.array_equal(flat.lhs, rep.lhs)
    assert rep.holds
    assert rep.solves == 0 and not rep.budget_hit
    assert np.all(rep.lhs >= 0.0)


def _green_integral_by_quad(model, ev, theta, t, target):
    """Energy integral of |G(E + i/t)(target, 0)|^2 by adaptive quadrature,
    one LU solve of the assembled restriction per node."""
    pot = model.potential
    n = int(np.flatnonzero(np.all(ev.sites == target, axis=1))[0])

    def integrand(e):
        return abs(_resolvent_column(model, ev, theta,
                                     complex(e, 1.0 / t))[n]) ** 2

    lo, hi = pot.a - 2.0 * pot.beta, pot.b + 2.0 * pot.beta
    val, _ = quad(integrand, lo, hi, points=np.sort(ev.eigvals),
                  epsrel=1e-10, epsabs=0.0, limit=1000)
    return val


def _green_prefactor(pot, mode, t):
    if mode == "fixed":
        return (pot.b - pot.a + 4.0 * pot.beta) * math.e ** 2 \
            / (2.0 * math.pi ** 2)
    return 1.0 / (t * math.pi)


@pytest.mark.parametrize("mode", ["fixed", "avg"])
@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_green_moment_integral_matches_quadrature(weak_model, mode, t):
    theta = 0.3
    ev = evolve_amplitudes(weak_model, box_around(np.zeros(1), 6), theta)
    rep = green_moment_bound(weak_model, ev, t, [[2]], mode=mode)
    want = _green_integral_by_quad(weak_model, ev, theta, t, [2])
    got = rep.rhs_integral[0] / _green_prefactor(weak_model.potential,
                                                   mode, t)
    assert got == pytest.approx(want, rel=1e-8)


def test_green_moment_integral_exact_where_simpson_ran_high(
        cosine_potential, saturating_kernel, golden_frequency):
    # a draw on which panel-doubling Simpson reported convergence (spread
    # 1e-5) while sitting 1.1% above the true integral 6.9736e-05
    model = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                      0.0032683332538943908)
    theta = 0.6238214820174439
    ev = evolve_amplitudes(model, box_around(np.zeros(1), 28), theta)
    rep = green_moment_bound(model, ev, 100.0, [[6]], mode="fixed")
    want = _green_integral_by_quad(model, ev, theta, 100.0, [6])
    got = rep.rhs_integral[0] / _green_prefactor(model.potential, "fixed",
                                                   100.0)
    assert want == pytest.approx(6.9736e-05, rel=1e-4)
    assert got == pytest.approx(want, rel=1e-8)


def test_green_moment_bound_guards(weak_model, weak_ev16, cosine_potential,
                                   saturating_kernel, golden_frequency):
    with pytest.raises(KeyError):
        green_moment_bound(weak_model, weak_ev16, 10.0, [[99]])
    with pytest.raises(ValueError):
        green_moment_bound(weak_model, weak_ev16, -2.0, [[3]])
    with pytest.raises(ValueError):
        green_moment_bound(weak_model, weak_ev16, 10.0, [[3]],
                           mode="sideways")
    with pytest.raises(PreconditionViolated, match="width 2.*dimension is 1"):
        green_moment_bound(weak_model, weak_ev16, 10.0, [[3, 7]])
    loud = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                     1.0, eps0=1.0)
    ev = evolve_amplitudes(loud, box_around(np.zeros(1), 16), 0.3)
    with pytest.raises(SpectrumEscapes):
        green_moment_bound(loud, ev, 10.0, [[3]])


def test_moment_ceiling_holds(weak_ev32):
    times = np.geomspace(125.0, 500.0, 4)
    rep = moment_ceiling_check(weak_ev32, 2.0, 1.5, 0.2, 0.05, times)
    assert rep.holds
    assert rep.t0 == pytest.approx(125.0)
    assert rep.boundary_mass_max <= 1e-10
    avg = moment_ceiling_check(weak_ev32, 2.0, 1.5, 0.2, 0.05, [125.0],
                               averaged=True)
    assert avg.holds and avg.averaged
    assert avg.boundary_mass_max <= 1e-10


def test_moment_ceiling_rejects_early_times(weak_ev32):
    with pytest.raises(PreconditionViolated):
        moment_ceiling_check(weak_ev32, 2.0, 1.5, 0.2, 0.05, [100.0])


def test_localization_profile_recovers_hopping_rate(weak_ev16):
    profiles = localization_profile(weak_ev16, 2.0)
    rates = np.array([p.fitted_rate for p in profiles])
    goods = np.array([p.goodness for p in profiles])
    # the hopping envelope rate is alpha = 1; weak coupling keeps every
    # eigenvector pinned near it
    assert np.all((rates > 0.8) & (rates < 1.5))
    assert 0.9 < float(np.median(rates)) < 1.3
    assert np.all(goods > 0.6)
    peaks = {p.center for p in profiles}
    assert len(peaks) == len(profiles)


def test_arithmetic_phase_profile(golden_frequency):
    rep = arithmetic_phase_test(0.0, golden_frequency, 50)
    assert rep.violations == ((-1,), (1,), (-2,), (2,))
    assert rep.count == 4
    omega = float(golden_frequency.array()[0])
    assert rep.worst_margin == pytest.approx(1.0 - omega)
    assert rep.tau == 2.0
    # oracle for a generic phase: rebuild the violation set directly over
    # both signs, since ||2 theta - n omega|| differs from ||2 theta + n
    # omega|| once theta is nonzero (here n = -1 is the worst site)
    theta = 0.31
    other = arithmetic_phase_test(theta, golden_frequency, 20)
    ns = np.array(sorted(range(-20, 21), key=abs)[1:])
    resid = np.abs(np.mod(2.0 * theta + ns * omega + 0.5, 1.0) - 0.5)
    expect = tuple((int(n),) for n in ns[resid * np.abs(ns) ** 2.0 < 1.0])
    assert other.violations == expect
    assert (-1,) in expect


@pytest.fixture(scope="module")
def offaxis_run(cosine_potential, saturating_kernel, golden_frequency):
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=1, delta0=0.12, n0=8)
    model = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                      1e-3, eps0=0.12)
    window = box_around(np.zeros(1), 192)
    return run_induction(model, 0.113, 0.3, window, sched, 0)


def test_offaxis_decay_beyond_onset(offaxis_run):
    rep = offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[170], [185]])
    assert offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0,
                               [170, 185]) == rep
    assert rep.holds
    assert rep.onset == pytest.approx(158.59, abs=0.05)
    assert rep.violations == 0
    for entry in rep.entries:
        assert entry.log_green < entry.log_bound
        assert entry.regular_ok and entry.containment_ok


@pytest.mark.parametrize("twisted", [False, True],
                         ids=["symmetric", "complex-kernel"])
def test_offaxis_column_matches_an_lu_solve(offaxis_run, monkeypatch,
                                            twisted):
    """The origin's column, from one LU of ``T^T`` factored in place and
    solved transposed, is that of an LU solve of ``T``; a complex Hermitian
    kernel's ``T`` is not symmetric, so a solve with ``T^T`` would show."""
    in_place = []

    def record(a, *args, **kwargs):
        lu_piv = lu_factor(a, *args, **kwargs)
        in_place.append(np.shares_memory(lu_piv[0], a))
        return lu_piv
    monkeypatch.setattr(qplab.dynamics, "lu_factor", record)
    run = offaxis_run
    if twisted:
        run = dataclasses.replace(run, model=_twisted_model(run.model))
    rep = offaxis_green_decay(run, 1, 0.3, 2000.0, [[170], [-180]])
    assert in_place == [True]
    sites = run.window.sites
    t_mat = assemble_t_matrix(run.model, sites, run.theta,
                              complex(0.3, 1.0 / 2000.0))
    assert np.array_equal(t_mat, t_mat.T) != twisted
    e0 = np.all(sites == 0, axis=1).astype(complex)
    g = lu_solve(lu_factor(t_mat), e0)
    for entry in rep.entries:
        (i,) = np.flatnonzero(np.all(sites == entry.site, axis=1))
        assert entry.log_green == pytest.approx(math.log(abs(g[i])),
                                                abs=1e-12)


def test_offaxis_checks_targets_before_assembly(offaxis_run, monkeypatch):
    def refuse(*args):
        raise AssertionError("assembled before the targets were checked")
    monkeypatch.setattr(qplab.dynamics, "assemble_t_matrix", refuse)
    with pytest.raises(PreconditionViolated, match="onset"):
        offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[170], [50]])
    with pytest.raises(KeyError):
        offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[500]])
    with pytest.raises(PreconditionViolated, match="width 2.*dimension is 1"):
        offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[170, 185]])
    for t in (0.0, -1.0):
        with pytest.raises(BracketViolated, match=f"t = {t:g} "):
            offaxis_green_decay(offaxis_run, 1, 0.3, t, [[170]])


def test_offaxis_decay_guards(offaxis_run):
    with pytest.raises(BracketViolated, match="outside"):
        offaxis_green_decay(offaxis_run, 1, 0.3, 100.0, [[170]])
    with pytest.raises(BracketViolated):
        offaxis_green_decay(offaxis_run, 1, 5.0, 2000.0, [[170]])
    with pytest.raises(PreconditionViolated, match="onset"):
        offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[50]])
    with pytest.raises(KeyError):
        offaxis_green_decay(offaxis_run, 1, 0.3, 2000.0, [[500]])
    with pytest.raises(ValueError):
        offaxis_green_decay(offaxis_run, 2, 0.3, 2000.0, [[170]])
