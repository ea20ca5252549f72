"""Dynamics: propagators, transport moments, and their Green-function bounds."""

import math
import time

import numpy as np
import pytest

from qplab import (
    FrequencyVector,
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
    QuadratureDisagreement,
    SpectrumEscapes,
)


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
        assert ta.agreement <= 1e-6


def test_time_average_dual_paths_agree(weak_ev32):
    ta = time_avg_moment(weak_ev32, 20.0, 2.0)
    assert ta.agreement <= 1e-6
    assert ta.value == pytest.approx(ta.quad_value, rel=1e-5)


def test_time_average_quadrature_guard(weak_ev32):
    with pytest.raises(QuadratureDisagreement):
        time_avg_moment(weak_ev32, 20.0, 2.0, nodes=2, node_cap=2,
                        rtol=1e-15)
    with pytest.raises(ValueError):
        time_avg_moment(weak_ev32, -1.0, 2.0)


def test_time_average_nonfinite_weights_raise(cosine_potential,
                                              saturating_kernel,
                                              golden_frequency):
    # numpy's laggauss returns non-finite weights from a few hundred nodes
    # on; doubling into them must stop at once instead of running to the
    # node cap and reporting a NaN agreement
    model = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                      0.3, eps0=0.5)
    ev = evolve_amplitudes(model, box_around(np.zeros(1), 8), 0.113)
    start = time.perf_counter()
    with pytest.raises(QuadratureDisagreement, match="not finite"):
        time_avg_moment(ev, 10.0, 1.0)
    assert time.perf_counter() - start < 1.0


def test_boundary_mass_warning(cosine_potential, saturating_kernel,
                               golden_frequency):
    spread = ModelSpec(cosine_potential, saturating_kernel,
                       golden_frequency, 0.5, eps0=1.0)
    ev = evolve_amplitudes(spread, box_around(np.zeros(1), 8), 0.3)
    with pytest.warns(UserWarning, match="boundary layer"):
        moment_p(ev, 1000.0, 2.0)


@pytest.mark.parametrize("mode", ["fixed", "avg"])
def test_green_moment_bound_holds(weak_model, weak_ev16, mode):
    rep = green_moment_bound(weak_model, weak_ev16, 10.0,
                             [[3], [7], [12]], mode=mode)
    assert rep.holds
    assert not rep.budget_hit
    assert rep.integral_spread <= 1e-4
    assert np.all(rep.lhs >= 0.0)


def test_green_moment_bound_budget_flag(weak_model, weak_ev16):
    rep = green_moment_bound(weak_model, weak_ev16, 10.0, [[3]],
                             solve_budget=20)
    assert rep.budget_hit
    assert rep.solves == 17


def test_green_moment_bound_guards(weak_model, weak_ev16, cosine_potential,
                                   saturating_kernel, golden_frequency):
    with pytest.raises(KeyError):
        green_moment_bound(weak_model, weak_ev16, 10.0, [[99]])
    with pytest.raises(ValueError):
        green_moment_bound(weak_model, weak_ev16, -2.0, [[3]])
    with pytest.raises(ValueError):
        green_moment_bound(weak_model, weak_ev16, 10.0, [[3]],
                           mode="sideways")
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
    assert rep.violations == ((1,), (2,))
    assert rep.count == 2
    omega = float(golden_frequency.array()[0])
    assert rep.worst_margin == pytest.approx(1.0 - omega)
    assert rep.tau == 2.0
    # oracle for a generic phase: rebuild the violation set directly
    theta = 0.31
    other = arithmetic_phase_test(theta, golden_frequency, 20)
    ns = np.arange(1, 21)
    resid = np.abs(np.mod(2.0 * theta + ns * omega + 0.5, 1.0) - 0.5)
    expect = tuple((int(n),) for n in ns[resid * ns ** 2.0 < 1.0])
    assert other.violations == expect


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
    assert rep.holds
    assert rep.onset == pytest.approx(158.59, abs=0.05)
    assert rep.fit.violations == 0
    for entry in rep.entries:
        assert entry.log_green < entry.log_bound
        assert entry.regular_ok and entry.containment_ok


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
