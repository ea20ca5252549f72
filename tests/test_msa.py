"""Multi-scale ladder: schedules, resonances, blocks, root tracking."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    advance_resonances,
    box_around,
    build_schedule,
    check_good,
    classify_case,
    construct_blocks,
    deformation_levels,
    detect_resonances,
    run_induction,
    solve_phase_for_energy,
    track_theta,
    verify_block,
    verify_block_family,
    verify_good_set,
)
from qplab.errors import (
    PreconditionViolated,
    ScheduleOverflow,
    SeparationViolated,
    WindingMismatch,
    WindowTooSmall,
)
from qplab.lattice import regular_deformation, site_index
from qplab.model import eval_potential, toeplitz_block
from qplab.msa import (
    CaseData,
    ResonanceStructure,
    _count_zeros,
    _sample_ring,
    _SchurDet,
    canonical_root,
)
from qplab.torus import log_torus_norm, torus_norm


@pytest.fixture(scope="module")
def sched19():
    """Desk ladder at delta0 = 1e-3, rho' = 1.9 (N_1 = 15)."""
    return build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                          s_max=1, delta0=1e-3, n0=8)


@pytest.fixture(scope="module")
def planted_model(cosine_potential, saturating_kernel, golden_frequency):
    return ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                     1e-4)


def _planted_theta(pot, omega) -> complex:
    """Phase that makes site 3 plus-resonant for E = 0.3 up to 1e-4."""
    theta0 = solve_phase_for_energy(pot, 0.3)
    return complex(-theta0.real - 3 * float(omega[0]) + 1e-4)


# ---------------------------------------------------------------------------
# schedules


def test_desk_schedule_frozen_lengths():
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=2, delta0=0.02, n0=8, g_delta=3.0, g_n=1.5)
    assert sched.n_seq == (8, 11, 37)
    exp4 = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                          s_max=2, delta0=math.exp(-4.0), n0=8,
                          g_delta=3.0, g_n=1.5)
    assert exp4.n_seq == (8, 12, 42)
    assert exp4.log_delta == pytest.approx((-4.0, -12.0, -36.0))


def test_desk_schedule_derived_quantities():
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=2, delta0=0.02, n0=8, g_delta=3.0, g_n=1.5)
    assert sched.delta(0) == pytest.approx(0.02)
    assert sched.q_threshold(0) == pytest.approx(0.02 ** 0.25)
    assert sched.sep_threshold(0) == 22.0
    assert sched.radii(1, 1) == (11, 22, 44)
    assert sched.radii(1, 2) == (22, 44, 88)
    assert sched.radii(2, 1) == (37, 74, 148)
    assert sched.pad_budget(1) == 0
    assert sched.pad_budget(2) == 50 * 88
    assert sched.alpha_seq[0] == pytest.approx(0.75)
    # the ladder decrements but never crosses alpha/2
    assert all(a > b >= 0.5 for a, b in zip(sched.alpha_seq,
                                            sched.alpha_seq[1:]))
    assert sched.alpha_seq[1] <= sched.alpha_prime[1] <= sched.alpha_seq[0]


def test_paper_schedule_seeds_n1_from_delta0():
    with pytest.warns(UserWarning, match="beyond scale 2"):
        sched = build_schedule("paper", alpha=1e13, rho=2.0, rho_prime=1.5,
                               s_max=2, eps0=1e-20)
    # delta_0 = eps0^(1/10) = 1e-2, N_1 = floor(exp(|log delta_0|^(1/rho')))
    assert sched.log_delta[0] == pytest.approx(math.log(1e-2))
    assert sched.n_seq[1] == 15
    assert sched.n_seq[2] is None  # N_2 overflows machine integers
    assert sched.log_delta[1] == pytest.approx(
        math.log(1e-2) * 10.0 ** 7.5)
    assert sched.radii(1, 1) == (15, 30, 15 ** 10)
    assert sched.sep_threshold(0) == pytest.approx(100.0 * 15.0 ** 10)
    with pytest.raises(ScheduleOverflow):
        sched.radii(2, 1)
    with pytest.raises(ScheduleOverflow):
        sched.sep_threshold(1)


def test_paper_schedule_alpha_collapse():
    # at alpha = 1 the faithful decrement 50 * 10^(5 rho') destroys the rate
    with pytest.raises(ScheduleOverflow):
        build_schedule("paper", alpha=1.0, rho=2.0, rho_prime=1.5,
                       s_max=1, eps0=1e-20)


def test_schedule_validation():
    kw = dict(alpha=1.0, rho=2.0, rho_prime=1.5, s_max=1)
    with pytest.raises(ValueError):
        build_schedule("nope", delta0=0.1, n0=4, **kw)
    with pytest.raises(ValueError):
        build_schedule("desk", n0=4, **kw)
    with pytest.raises(ValueError):
        build_schedule("desk", delta0=0.1, **kw)
    with pytest.raises(ValueError):
        build_schedule("desk", delta0=0.1, n0=4, g_n=5.0, **kw)
    with pytest.raises(ValueError):
        build_schedule("paper", **kw)
    with pytest.raises(ValueError):
        build_schedule("desk", alpha=1.0, rho=3.0, rho_prime=1.5,
                       s_max=1, delta0=0.1, n0=4)
    with pytest.raises(ValueError):
        build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                       s_max=0, delta0=0.1, n0=4)


# ---------------------------------------------------------------------------
# resonances


def test_detect_resonances_planted(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 32)
    res = detect_resonances(planted_model, theta, 0, theta0, sched19,
                            2 * win.sites, (0,))
    assert res.q_plus2.ravel().tolist() == [6]
    # an accidental minus resonance sits at site -19 inside this window
    assert res.q_minus2.ravel().tolist() == [-38]
    assert [4] in res.q_tilde_minus2.tolist()
    assert res.delta == pytest.approx(1e-3)
    assert res.q_tilde_delta == pytest.approx(1e-3 ** 0.25)

    # oracle: recompute both tilde shells directly from the definition
    phases = theta + win.sites.ravel() * omega[0]
    tp = win.sites[torus_norm(phases + theta0) < res.q_tilde_delta]
    tm = win.sites[torus_norm(phases - theta0) < res.q_tilde_delta]
    assert res.q_tilde_plus2.tolist() == (2 * tp).tolist()
    assert res.q_tilde_minus2.tolist() == (2 * tm).tolist()


def test_classify_case_merge_pair(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 32)
    res = detect_resonances(planted_model, theta, 0, theta0, sched19,
                            2 * win.sites, (0,))
    case = classify_case(res, sched19.sep_threshold(0))
    assert case.case == 2
    assert case.l == (1,)
    assert (case.witness_i2, case.witness_j2) == ((6,), (4,))
    assert case.dist == 1.0


def test_classify_case_far_shells():
    empty = np.empty((0, 1), dtype=np.int64)
    plus = np.asarray([[6]])
    res = ResonanceStructure(0, 0.2, (0,), plus, plus, empty, plus, empty,
                             1e-3, 0.17)
    case = classify_case(res, 30.0)
    assert case.case == 1 and case.l is None
    assert case.dist == math.inf


def test_classify_case_rejects_fractional_merge():
    plus = np.asarray([[1]])
    minus = np.asarray([[0]])
    res = ResonanceStructure(1, 0.2, (0,), plus, plus, minus, plus, minus,
                             1e-3, 0.17)
    with pytest.raises(PreconditionViolated):
        classify_case(res, 30.0)


def test_advance_resonances_planted_merge(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 32)
    res = detect_resonances(planted_model, theta, 0, theta0, sched19,
                            2 * win.sites, (0,))
    case = classify_case(res, sched19.sep_threshold(0))
    p2, offset2, cores = advance_resonances(res, case, None)
    assert p2.tolist() == [[-37], [5]]
    assert offset2 == (1,)
    assert cores[(-37,)].tolist() == [[-38], [-36]]
    assert cores[(5,)].tolist() == [[4], [6]]


def test_advance_resonances_case1_keeps_centers():
    plus = np.asarray([[6]])
    minus = np.asarray([[-38]])
    both = np.asarray([[-38], [6]])
    res = ResonanceStructure(0, 0.2, (0,), both, plus, minus, plus, minus,
                             1e-3, 0.17)
    p2, offset2, cores = advance_resonances(
        res, CaseData(1, None, None, None, math.inf), None)
    assert p2.tolist() == [[-38], [6]]
    assert offset2 == (0,)
    assert cores[(6,)].tolist() == [[6]]


def test_advance_resonances_missing_partner_core():
    plus = np.asarray([[6]])
    minus = np.asarray([[0]])
    res = ResonanceStructure(1, 0.2, (0,), plus, plus, minus, plus, minus,
                             1e-3, 0.17)
    case = CaseData(2, (3,), (6,), (0,), 3.0)
    with pytest.raises(PreconditionViolated, match="no tracked core"):
        advance_resonances(res, case, {(0,): [[0]]})


# ---------------------------------------------------------------------------
# block construction


@pytest.fixture(scope="module")
def toy_schedule():
    return build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                          s_max=2, delta0=0.02, n0=8, g_delta=3.0, g_n=1.5)


def test_construct_single_block_template(toy_schedule):
    window = box_around(np.zeros(1), 300)
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), toy_schedule, [], window)
    assert fam.radii == (11, 22, 44)
    assert fam.realized_pad == 0 and fam.declared_pad == 0
    np.testing.assert_array_equal(fam.resonant[(0,)].ravel(),
                                  np.arange(-11, 12))
    np.testing.assert_array_equal(fam.enlarged[(0,)].ravel(),
                                  np.arange(-44, 45))
    assert verify_block_family(fam, [], None).all_ok


def test_construct_blocks_two_scale_toy(toy_schedule):
    window = box_around(np.zeros(1), 9000)
    l = 1
    offs = [0, 4000]
    p2_1 = np.asarray([[2 * o + l] for o in offs])
    cores1 = {(2 * o + l,): np.asarray([[2 * o], [2 * o + 2 * l]])
              for o in offs}
    fam1 = construct_blocks(p2_1, cores1, 1, 2, (l,), toy_schedule, [],
                            window)
    assert fam1.radii == (22, 44, 88)
    q0 = np.asarray([[2 * o] for o in offs] + [[2 * (o + l)] for o in offs])
    res0 = ResonanceStructure(0, 0.1, (0,), q0, q0[:2], q0[2:], q0[:2],
                              q0[2:], 0.02, 0.02 ** 0.25)
    assert verify_block_family(fam1, [], res0).all_ok

    cores2 = {k: 2 * fam1.cores[k] for k in fam1.center_keys()}
    fam2 = construct_blocks(fam1.centers2, cores2, 2, 1, (l,), toy_schedule,
                            [fam1], window)
    # the scale-2 resonant ball absorbs the radius-88 lower block it covers
    assert fam2.realized_pad == 51
    assert fam2.declared_pad == 4400
    res1 = ResonanceStructure(1, 0.1, (l,), fam1.centers2,
                              fam1.centers2[:1], fam1.centers2[1:],
                              fam1.centers2[:1], fam1.centers2[1:],
                              0.02 ** 3, 0.02 ** 0.75)
    rep = verify_block_family(fam2, [fam1], res1)
    assert rep.all_ok


def test_construct_blocks_separation_guard(toy_schedule):
    window = box_around(np.zeros(1), 2000)
    p2 = np.asarray([[0], [48]])
    cores = {(0,): np.asarray([[0]]), (48,): np.asarray([[48]])}
    with pytest.raises(SeparationViolated):
        construct_blocks(p2, cores, 1, 1, (0,), toy_schedule, [], window)


def test_construct_blocks_window_guard(toy_schedule):
    window = box_around(np.zeros(1), 10)
    with pytest.raises(WindowTooSmall):
        construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                         1, 1, (0,), toy_schedule, [], window)


def test_construct_blocks_core_guards(toy_schedule):
    window = box_around(np.zeros(1), 300)
    with pytest.raises(PreconditionViolated, match="limit"):
        construct_blocks(np.asarray([[0]]),
                         {(0,): np.asarray([[-2], [0], [2]])},
                         1, 1, (0,), toy_schedule, [], window)
    with pytest.raises(PreconditionViolated, match="leaks"):
        construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[60]])},
                         1, 1, (0,), toy_schedule, [], window)
    with pytest.raises(PreconditionViolated, match="symmetric"):
        construct_blocks(np.asarray([[0]]),
                         {(0,): np.asarray([[0], [2]])},
                         1, 1, (0,), toy_schedule, [], window)


# ---------------------------------------------------------------------------
# root tracking


def _same_root_pair(w, v) -> bool:
    """Whether ``w`` and ``v`` name the same root pair {z, -z} mod 1."""
    def red(u):
        return complex(u.real - math.floor(u.real + 0.5), u.imag)
    return min(abs(red(v - w)), abs(red(v + w))) <= 1e-11


@given(st.floats(-3, 3, allow_nan=False), st.floats(-1, 1, allow_nan=False))
@example(re=1e-12, im=-1.0)
@example(re=9.094946017729283e-13, im=-1.0)
@settings(max_examples=200, deadline=None)
def test_canonical_root_properties(re, im):
    # inputs at a snap seam may land on either representative of their
    # pair, so the symmetries are checked on pair classes, not raw values
    z = complex(re, im)
    w = canonical_root(z)
    assert 0.0 <= w.real <= 0.5
    assert _same_root_pair(w, z)
    assert _same_root_pair(canonical_root(-z), w)
    assert _same_root_pair(canonical_root(z + 1.0), w)
    assert canonical_root(w) == w


def test_track_theta_case1_plant(planted_model, sched19):
    window = box_around(np.zeros(1), 64)
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched19, [], window)
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    case = CaseData(1, None, None, None, math.inf)
    step = track_theta(planted_model, fam, theta0, case, sched19, 1, 0.3)
    assert step.case == 1
    assert step.deviation_ok and step.det_violations == 0
    assert step.deviation == pytest.approx(4.72e-9, rel=0.05)
    assert step.deviation_bound == pytest.approx(1e-4)
    assert step.winding_total == 2
    assert step.expected == pytest.approx(canonical_root(theta0))


def test_track_theta_zero_coupling_is_exact(planted_model, sched19):
    frozen = ModelSpec(planted_model.potential, planted_model.hopping,
                       planted_model.frequency, 0.0)
    window = box_around(np.zeros(1), 64)
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched19, [], window)
    theta0 = solve_phase_for_energy(frozen.potential, 0.3)
    case = CaseData(1, None, None, None, math.inf)
    step = track_theta(frozen, fam, theta0, case, sched19, 1, 0.3)
    assert step.deviation == 0.0


def test_track_theta_case2_merge():
    pot = PotentialSpec.cosine()
    kern = HoppingKernel.saturating(1.0, 2.0)
    freq = FrequencyVector.golden()
    model = ModelSpec(pot, kern, freq, 1e-4)
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                           s_max=1, delta0=0.05, n0=4)
    assert sched.n_seq[1] == 5
    window = box_around(np.zeros(1), 64)
    fam = construct_blocks(np.asarray([[1]]),
                           {(1,): np.asarray([[0], [2]])},
                           1, 2, (1,), sched, [], window)
    theta0 = solve_phase_for_energy(pot, 0.3)
    case = CaseData(2, (1,), (2,), (0,), 1.0)
    step = track_theta(model, fam, theta0, case, sched, 1, 0.3)
    omega = freq.array()[0]
    assert step.expected == pytest.approx(canonical_root(
        complex(omega / 2.0 + theta0)))
    # merged roots split by O(sqrt eps); the bound reflects that
    assert step.deviation_bound == pytest.approx(math.sqrt(1e-4))
    assert step.deviation < 1e-6
    assert step.deviation_ok
    assert step.winding_total == 4


def _oracle_track(model, fam, theta_prev, case, sched, energy):
    """``track_theta``'s search with fixed sampling, as a reference for a
    step to scale 1.

    A 720-sample circle per candidate, Newton with central differences of
    det S from five starts, 240-sample multiplicity circles, then the same
    root choice and 64-point lower-bound grid.  det S is built from the full
    matrix ``eps W + diag(v(z + n . omega) - E)``.  Returns (canonical
    roots, winding total, lower-bound violations).
    """
    key = fam.center_keys()[0]
    frame = (2 * fam.enlarged[key] - np.asarray(key)) / 2.0
    core = site_index(fam.enlarged[key], fam.cores[key])
    rest = np.setdiff1d(np.arange(frame.shape[0]), core)
    omega = model.frequency.array()
    hop = model.eps * toeplitz_block(model.hopping, frame)

    def det(z):
        m = hop + np.diag(eval_potential(model.potential, z + frame @ omega)
                        - energy)
        x = np.linalg.solve(m[np.ix_(rest, rest)], m[np.ix_(rest, core)])
        return complex(np.linalg.det(m[np.ix_(core, core)]
                                     - m[np.ix_(core, rest)] @ x))

    def circle(c, r, n):
        return np.asarray([det(z) for z in
                           c + r * np.exp(2j * np.pi * np.arange(n) / n)])

    def winding(vals):
        inc = np.angle(np.roll(vals, -1) / vals)
        return int(round(float(np.sum(inc)) / (2.0 * np.pi)))

    tp = complex(theta_prev)
    if case.case == 1:
        cands, expected = [tp, -tp], canonical_root(tp)
    else:
        shift = float(np.asarray(case.l, dtype=float) @ omega) / 2.0
        cands = [shift + tp, shift - tp, -shift + tp, -shift - tp]
        expected = canonical_root(shift + tp)
    cands = [complex(c.real - math.floor(c.real + 0.5), c.imag)
             for c in cands]
    uniq = []
    for c in cands:
        if all(torus_norm(c - o) > 1e-9 for o in uniq):
            uniq.append(c)
    slope = frame[rest] @ omega
    poles = np.concatenate([tp - slope, -tp - slope])
    delta_prev = sched.delta(0)
    roots, total, radius_used = [], 0, 0.0
    for c in uniq:
        gap = float(np.min(torus_norm(poles - c)))
        sep = min((torus_norm(c - o) for o in uniq if o is not c),
                  default=math.inf)
        r_win = min(math.sqrt(delta_prev), gap / 3.0, 0.45 * sep)
        radius_used = max(radius_used, r_win)
        for bump in range(4):
            vals = circle(c, r_win * (1.0 + 0.02 * bump), 720)
            if np.min(np.abs(vals)) > 1e-14 * np.median(np.abs(vals)):
                r_win *= 1.0 + 0.02 * bump
                break
        w = winding(vals)
        total += w
        tol = 1e-12 * float(np.median(np.abs(vals)))
        local, h = [], 1e-5 * r_win
        for frac in (0.0, 0.3, 0.3j, -0.3, -0.3j):
            z = c + frac * r_win
            for _ in range(60):
                f = det(z)
                if abs(f) < tol:
                    break
                step = f / ((det(z + h) - det(z - h)) / (2.0 * h))
                z = z - step
                if abs(z - c) > 1.5 * r_win:
                    z = None
                    break
                if abs(step) < 1e-14 * max(1.0, abs(z)):
                    break
            if (z is not None and abs(z - c) < r_win
                    and abs(det(z)) <= 10.0 * tol
                    and all(abs(z - r) > 1e-9 for r in local)):
                local.append(z)
        mult = sum(abs(winding(circle(r, max(1e-3 * r_win, 1e-10), 240)))
                   for r in local)
        assert mult == w
        roots.extend(local)
    canon = []
    for r in roots:
        cr = canonical_root(r)
        if all(torus_norm(cr - o) > 1e-8 for o in canon):
            canon.append(cr)
    theta = min(canon, key=lambda r: torus_norm(r - expected))
    z_cap = min(radius_used, math.exp(max(sched.z_exp * sched.log_delta[1],
                                          -700.0)))
    bad = 0
    for rr in np.geomspace(max(z_cap * 1e-3, 1e-12), z_cap * 0.99, 8):
        for ang in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            z = theta + rr * np.exp(1j * ang)
            d = det(z)
            lhs = math.log(abs(d)) if d != 0 else -math.inf
            rhs = (sched.log_delta[0] + log_torus_norm(z - theta)
                   + log_torus_norm(z + theta))
            bad += lhs < rhs - 1e-9
    return canon, total, bad


def _tracking_input(name):
    """(model, family, theta_prev, case, schedule, energy) for a named
    tracking problem."""
    pot = PotentialSpec.cosine()
    kern = HoppingKernel.saturating(1.0, 2.0)
    freq = FrequencyVector.golden()
    window = box_around(np.zeros(1), 64)
    if name == "case2-merge":
        sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                               s_max=1, delta0=0.05, n0=4)
        fam = construct_blocks(np.asarray([[1]]),
                               {(1,): np.asarray([[0], [2]])},
                               1, 2, (1,), sched, [], window)
        return (ModelSpec(pot, kern, freq, 1e-4), fam,
                solve_phase_for_energy(pot, 0.3),
                CaseData(2, (1,), (2,), (0,), 1.0), sched, 0.3)
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                           s_max=1, delta0=1e-3, n0=8)
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched, [], window)
    case = CaseData(1, None, None, None, math.inf)
    if name == "user-cosine":
        # a user potential equal to the cosine: v' by finite differences
        pot = dataclasses.replace(pot, kind="user",
                                  fn=lambda z: np.cos(2.0 * np.pi * z))
        energy = 0.3
    else:
        # criterion 4's energy draws, by index
        draw = int(name.removeprefix("crit4-draw"))
        energy = float(np.random.default_rng(7).uniform(-0.9, 0.9, 100)[draw])
    return (ModelSpec(pot, kern, freq, 1e-4), fam,
            solve_phase_for_energy(pot, energy), case, sched, energy)


# Draw 36 has a 2.2e-6 window.  A Newton run from the Delves-Lyness point
# alone stops one ulp from the root with |det S| = 1.361e-16, just above
# 10 tol_det = 1.354e-16, so the root is found only because the five fixed
# starts stay.
@pytest.mark.parametrize("name", ["crit4-draw0", "crit4-draw1",
                                  "crit4-draw2", "crit4-draw36",
                                  "case2-merge", "user-cosine"])
def test_track_theta_matches_fixed_sample_oracle(name):
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    roots, winding, bad = _oracle_track(model, fam, theta_prev, case, sched,
                                        energy)
    assert step.winding_total == winding
    assert len(step.roots) == len(roots)
    for got, want in zip(step.roots, roots):
        assert abs(got - want) <= 1e-10
    assert step.det_violations == bad
    if name == "crit4-draw36":
        assert step.window_radius == pytest.approx(2.2e-6, rel=0.01)


@pytest.mark.parametrize("name", ["crit4-draw0", "case2-merge",
                                  "user-cosine"])
def test_schur_logderiv_matches_central_difference(name):
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    key = fam.center_keys()[0]
    frame = (2 * fam.enlarged[key] - np.asarray(key)) / 2.0
    core = np.zeros(frame.shape[0], dtype=bool)
    core[site_index(fam.enlarged[key], fam.cores[key])] = True
    ev = _SchurDet(model, frame, core, energy)
    for off in (0.004, 0.003j, -0.002 + 0.001j):
        z = complex(theta_prev) + off
        f, g = ev.det_logderiv(z)
        h = 1e-6
        fd = (ev.det(z + h) - ev.det(z - h)) / (2.0 * h) / f
        assert f == ev.det(z)
        assert abs(g - fd) <= 1e-6 * abs(fd)


class _Linear:
    """Stand-in evaluator for f(z) = z - a, with an optional wrong f'/f."""

    def __init__(self, a, logderiv_ok=True):
        self.a, self.ok = a, logderiv_ok

    def det_logderiv(self, z):
        f = complex(z - self.a)
        if not self.ok:
            return f, 0j
        return f, (1.0 / f if f != 0 else complex(math.nan))


def test_sample_ring_refines_and_cross_checks():
    # a zero at distance 0.05 from the unit circle needs more than 16 samples
    z, f, g = _sample_ring(_Linear(0.95), 0j, 1.0, 16)
    assert z.size == 256
    assert np.max(np.abs(np.angle(np.roll(f, -1) / f))) <= math.pi / 4.0
    w, s0, s1c = _count_zeros(z, f, g, 0j)
    # the trapezoid moments are off by 0.95**256, about 2e-6
    assert w == 1 and abs(s0 - 1.0) < 1e-5 and abs(s1c - 0.95) < 1e-5
    assert _sample_ring(_Linear(1.0), 0j, 1.0, 16) is None
    with pytest.raises(WindingMismatch, match="still steps"):
        _sample_ring(_Linear(1.0 + 1e-6j), 0j, 1.0, 16)
    z, f, g = _sample_ring(_Linear(0.5, logderiv_ok=False), 0j, 1.0, 16)
    with pytest.raises(WindingMismatch, match="moment"):
        _count_zeros(z, f, g, 0j)


# ---------------------------------------------------------------------------
# induction


def test_run_induction_planted_full_stack(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 128)
    run = run_induction(planted_model, theta, 0.3, win, sched19, 1)
    assert run.depth == 1
    assert run.res(0).q2.ravel().tolist() == [-38, 6]
    assert run.scales[0].case_to_next.case == 2
    # the merged center at -18.5 cannot fit its enlarged block: dropped
    assert run.scales[1].edge_dropped == 1
    assert run.family(1).center_keys() == [(5,)]
    step = run.scales[1].theta_step
    assert step is not None and step.deviation_ok
    assert step.winding_total == 4
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    expected = canonical_root(complex(omega[0] / 2.0 + theta0))
    assert step.theta == pytest.approx(expected, abs=1e-6)


def test_run_induction_depth_zero_when_window_is_clear(planted_model):
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=1, delta0=1e-6, n0=8)
    win = box_around(np.zeros(1), 16)
    run = run_induction(planted_model, 0.113, 0.3, win, sched, 1)
    assert run.depth == 0
    assert run.res(0).q2.shape[0] == 0
    with pytest.raises(ValueError):
        run.family(0)
    with pytest.raises(ValueError):
        run_induction(planted_model, 0.113, 0.3, win, sched, 5)


@pytest.fixture(scope="module")
def planted_run(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 128)
    return run_induction(planted_model, theta, 0.3, win, sched19, 1,
                         track=False)


def test_check_good_carry_clause(planted_run):
    bad = np.arange(-10, 11)[:, None]
    rep = check_good(planted_run, bad, 1)
    assert not rep.good
    assert ("carry", 0, (6,), (5,)) in rep.failures
    good = np.arange(30, 51)[:, None]
    assert check_good(planted_run, good, 1).good
    with pytest.raises(ValueError):
        check_good(planted_run, good, 2)


def test_check_good_scale_zero_avoids_resonances(planted_run):
    assert not check_good(planted_run, [[2], [3], [4]], 0).good
    assert check_good(planted_run, [[10], [11]], 0).good


def test_verify_good_set_estimates(planted_run):
    est = verify_good_set(planted_run, np.arange(10, 21)[:, None], 0)
    assert est.passed and est.norm_ok
    assert est.log_norm <= est.log_bound
    assert est.decay.violations == 0
    with pytest.raises(PreconditionViolated):
        verify_good_set(planted_run, [[2], [3], [4]], 0)


def test_verify_block_modes(planted_run):
    res = verify_block(planted_run, 1, (5,), "resonant")
    assert res.passed
    off = verify_block(planted_run, 1, (5,), "offdiag")
    assert off.passed and off.decay.violations == 0
    with pytest.raises(KeyError):
        verify_block(planted_run, 1, (99,), "resonant")
    with pytest.raises(ValueError):
        verify_block(planted_run, 0, (5,), "resonant")
    with pytest.raises(ValueError):
        verify_block(planted_run, 1, (5,), "sideways")


def test_deformation_levels_follow_depth(planted_model, planted_run):
    levels = deformation_levels(planted_run, 1)
    assert len(levels) == 1
    assert levels[0].scale == 1
    assert levels[0].test_reach2 == 240
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=1, delta0=1e-6, n0=8)
    shallow = run_induction(planted_model, 0.113, 0.3,
                            box_around(np.zeros(1), 16), sched, 1)
    assert deformation_levels(shallow, 1) == []


def test_deformation_levels_keep_true_block_centres(planted_run):
    # the one block sits around 2.5 (doubled key 5) and covers -117..122;
    # its trigger box of test radius 120 ends at 122.5
    (level,) = deformation_levels(planted_run, 1)
    assert [c2 for c2, _ in level.blocks] == [(5,)]
    closed, rep = regular_deformation(np.array([[124], [125], [126]]),
                                      [level])
    assert rep.absorbed == () and closed.shape[0] == 3
