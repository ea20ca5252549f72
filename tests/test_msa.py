"""Multi-scale ladder: schedules, resonances, blocks, root tracking."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import qplab.msa
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
    ASingular,
    AsymmetricBox,
    PreconditionViolated,
    ScheduleOverflow,
    SeparationViolated,
    WindingMismatch,
    WindowTooSmall,
)
from qplab.lattice import regular_deformation, site_index
from qplab.model import (
    eval_potential,
    eval_potential_derivative,
    toeplitz_block,
)
from qplab.msa import (
    CaseData,
    ResonanceStructure,
    _count_zeros,
    _floor_violations,
    _sample_ring,
    _SchurDet,
)
from qplab.torus import canonical_root, log_torus_norm, torus_norm


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


def test_detect_resonances_empty_candidates(planted_model, sched19):
    res = detect_resonances(planted_model, 0.1, 1, 0.2, sched19,
                            np.empty((0, 1), dtype=np.int64), (3,))
    for shell in (res.p2, res.q2, res.q_tilde2):
        assert shell.shape == (0, 1)
    assert res.offset2 == (3,)
    assert res.delta == sched19.delta(1)


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


class _StandInLower:
    """Lower family with only what ``construct_blocks`` reads of one."""

    def __init__(self, tiles):
        self.enlarged = {(2 * i,): np.asarray(t)[:, None]
                         for i, t in enumerate(tiles)}

    def center_keys(self):
        return list(self.enlarged)


@pytest.mark.parametrize("n_tiles, reach", [(15, 30), (16, 31), (20, 35)])
def test_construct_blocks_closes_a_long_chain(sched19, n_tiles, reach):
    # two-site tiles just outside alternate sides of the radius-15 ball:
    # [15, 16], [-17, -16], [17, 18], ...; each mirror exposes one more,
    # so the closure takes one round per tile
    tiles = [[15 + i, 16 + i] if i % 2 == 0 else [-16 - i, -15 - i]
             for i in range(n_tiles)]
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched19, [_StandInLower(tiles)],
                           box_around(np.zeros(1), 100))
    np.testing.assert_array_equal(fam.resonant[(0,)].ravel(),
                                  np.arange(-reach, reach + 1))


# ---------------------------------------------------------------------------
# root tracking


def _count_factorizations(monkeypatch) -> dict:
    """Counts the determinants that the evaluators ``track_theta`` builds
    give, and the rest-block factorizations (``sytrf`` calls) they make."""
    seen = {"dets": 0, "factorizations": 0}
    real = qplab.msa._SchurDet

    def made(*args):
        ev = real(*args)
        sytrf, det_logderiv = ev.sytrf, ev.det_logderiv

        def counted_sytrf(*a, **kw):
            seen["factorizations"] += 1
            return sytrf(*a, **kw)

        def counted_det(z):
            seen["dets"] += 1
            return det_logderiv(z)

        ev.sytrf, ev.det_logderiv = counted_sytrf, counted_det
        return ev

    monkeypatch.setattr(qplab.msa, "_SchurDet", made)
    return seen


def test_track_theta_case1_plant(planted_model, sched19, monkeypatch):
    window = box_around(np.zeros(1), 64)
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched19, [], window)
    theta0 = solve_phase_for_energy(planted_model.potential, 0.3)
    case = CaseData(1, None, None, None, math.inf)
    n = _count_factorizations(monkeypatch)
    step = track_theta(planted_model, fam, theta0, case, sched19, 1, 0.3)
    # one factorization per determinant: 254 per root when both members of
    # the +- pair were searched and Newton ran every start, 146 with the
    # mirror and the early stop, 82 once the lower bound reads the winding
    # ring, 44 once real-centred rings evaluate their upper half only
    assert n["factorizations"] / len(step.roots) <= 50
    assert n["factorizations"] == n["dets"]
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


def test_track_theta_case2_merge(monkeypatch):
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
    n = _count_factorizations(monkeypatch)
    step = track_theta(model, fam, theta0, case, sched, 1, 0.3)
    # four candidates, two +- pairs, two roots: 460 factorizations (230 per
    # root) when every candidate was searched, 229 with the mirror, 165
    # once the lower bound reads the winding ring, 89 with half-evaluated
    # real rings
    assert n["factorizations"] / len(step.roots) <= 50
    assert n["factorizations"] == n["dets"]
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
    root choice and the 64-point lower-bound grid that ``track_theta`` used
    before its minimum-modulus certificate.  det S is built from the full
    matrix ``eps W + diag(v(z + n . omega) - E)``.  Returns (canonical
    roots, winding total, grid violations).
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
    return canon, total, _grid_violations(det, theta, radius_used, sched)


def _grid_violations(det, theta, radius, sched):
    """Points of the old 8 x 8 grid around ``theta`` (radii up to 0.99 of
    ``radius``, capped by delta_1^z_exp) where |det| < delta_0 ||z - theta||
    ||z + theta||."""
    z_cap = min(radius, math.exp(max(sched.z_exp * sched.log_delta[1],
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
    return bad


def _tracking_input(name):
    """(model, family, theta_prev, case, schedule, energy) for a named
    tracking problem."""
    pot = PotentialSpec.cosine()
    kern = HoppingKernel.saturating(1.0, 2.0)
    freq = FrequencyVector.golden()
    window = box_around(np.zeros(1), 64)
    if name.startswith("case2-"):
        sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                               s_max=1, delta0=0.05, n0=4)
        fam = construct_blocks(np.asarray([[1]]),
                               {(1,): np.asarray([[0], [2]])},
                               1, 2, (1,), sched, [], window)
        # at E = -0.35 the window that holds theta (radius 1.41e-3) is
        # smaller than the other +- pair's (1.90e-3)
        energy = 0.3 if name == "case2-merge" else -0.35
        return (ModelSpec(pot, kern, freq, 1e-4), fam,
                solve_phase_for_energy(pot, energy),
                CaseData(2, (1,), (2,), (0,), 1.0), sched, energy)
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
    elif name == "case1-plant":
        energy = 0.3
    elif name == "band-edge":
        # theta_prev = 0: one candidate, its own mirror, holds both roots
        energy = 1.0
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
    # the grid counts points and the certificate counts ring samples, so
    # only the verdicts compare
    assert (bad == 0) == (step.det_violations == 0)
    if name == "crit4-draw36":
        assert step.window_radius == pytest.approx(2.2e-6, rel=0.01)


def _schur_det(model, fam, energy):
    """``_SchurDet`` on the frame ``track_theta`` builds for ``fam``."""
    key = fam.center_keys()[0]
    frame = (2 * fam.enlarged[key] - np.asarray(key)) / 2.0
    core = np.zeros(frame.shape[0], dtype=bool)
    core[site_index(fam.enlarged[key], fam.cores[key])] = True
    return _SchurDet(model, frame, core, energy)


@pytest.mark.parametrize("name", ["crit4-draw0", "case2-merge",
                                  "user-cosine"])
def test_schur_logderiv_matches_central_difference(name):
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    ev = _schur_det(model, fam, energy)
    for off in (0.004, 0.003j, -0.002 + 0.001j):
        z = complex(theta_prev) + off
        f, g = ev.det_logderiv(z)
        h = 1e-6
        fd = (ev.det_logderiv(z + h)[0] - ev.det_logderiv(z - h)[0]) \
            / (2.0 * h) / f
        assert abs(g - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("name", ["case1-plant", "case2-merge"])
def test_schur_det_is_even(name):
    # the identity behind track_theta's mirror: f(-z) = f(z), so
    # f'/f(-z) = -f'/f(z)
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    ev = _schur_det(model, fam, energy)
    ring = complex(theta_prev) + 0.003 * np.exp(2j * np.pi * np.arange(16)
                                                / 16)
    for z in ring:
        f, g = ev.det_logderiv(z)
        f_m, g_m = ev.det_logderiv(-z)
        assert abs(f_m - f) <= 1e-12 * abs(f)
        assert abs(g_m + g) <= 1e-12 * abs(g)


def _lu_oracle(model, fam, energy, z):
    """(det S, f'/f) at z from LU solves of the full matrix
    ``eps W + diag(v(z + n . omega) - E)``, with S' = D'_c + Y D'_r X,
    X = A_rr^-1 A_rc and Y = A_cr A_rr^-1 solved separately."""
    key = fam.center_keys()[0]
    frame = (2 * fam.enlarged[key] - np.asarray(key)) / 2.0
    core = site_index(fam.enlarged[key], fam.cores[key])
    rest = np.setdiff1d(np.arange(frame.shape[0]), core)
    phases = complex(z) + frame @ model.frequency.array()
    m = model.eps * toeplitz_block(model.hopping, frame) + np.diag(
        eval_potential(model.potential, phases) - energy)
    dv = eval_potential_derivative(model.potential, phases)
    lu = lu_factor(m[np.ix_(rest, rest)])
    x = lu_solve(lu, m[np.ix_(rest, core)])
    y = lu_solve(lu, m[np.ix_(core, rest)].T, trans=1).T
    s = m[np.ix_(core, core)] - m[np.ix_(core, rest)] @ x
    ds = np.diag(dv[core]) + y @ (dv[rest, None] * x)
    return np.linalg.det(s), np.trace(np.linalg.solve(s, ds))


@pytest.mark.parametrize("name", ["crit4-draw0", "case2-merge", "band-edge",
                                  "user-cosine", "complex-energy"])
def test_schur_det_matches_an_lu_oracle(name):
    model, fam, theta_prev, case, sched, energy = _tracking_input(
        "crit4-draw0" if name == "complex-energy" else name)
    if name == "complex-energy":
        energy += 0.01j
    ev = _schur_det(model, fam, energy)
    for off in (0.004, 0.003j, -0.002 + 0.001j):
        z = complex(theta_prev) + off
        f, g = ev.det_logderiv(z)
        f_lu, g_lu = _lu_oracle(model, fam, energy, z)
        assert abs(f - f_lu) <= 1e-12 * abs(f_lu)
        assert abs(g - g_lu) <= 1e-12 * abs(g_lu)


def test_schur_det_refuses_a_singular_rest_block():
    model, fam, theta_prev, case, sched, energy = \
        _tracking_input("crit4-draw0")
    frozen = dataclasses.replace(model, eps=0.0)
    ev = _schur_det(frozen, fam, energy)
    z = complex(theta_prev) + 0.004
    # at zero coupling the rest block is diagonal: put E on one entry
    ev.energy = complex(eval_potential(frozen.potential, z + ev.slope)[0])
    with pytest.raises(ASingular, match="singular at z"):
        ev.det_logderiv(z)


def _spy(monkeypatch, name) -> list:
    """Records the arguments of each call to ``qplab.msa.<name>``."""
    seen = []
    real = getattr(qplab.msa, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(qplab.msa, name, spy)
    return seen


@pytest.mark.parametrize("name", ["crit4-draw0", "case2-merge",
                                  "case2-uneven", "band-edge"])
def test_lower_bound_certificate_is_sound(name, monkeypatch):
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    seen = _spy(monkeypatch, "_floor_violations")
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    assert step.det_violations == 0
    ((c, r_win, (zs, fs, _), found), y, rho, log_dp), = seen
    assert canonical_root(y) == step.theta and abs(y - c) + rho <= r_win
    log_q = np.log(np.abs(fs)) - sum(m * np.log(np.abs(zs - r))
                                     for r, m in found)
    ev = _schur_det(model, fam, energy)
    rng = np.random.default_rng(0)
    u = (rho * np.sqrt(rng.uniform(size=200))
         * np.exp(2j * np.pi * rng.uniform(size=200)))
    for du in u:
        # the minimum-modulus floor around y, and the paper's floor around
        # theta itself, which evenness and period map onto y
        z = y + du
        floor = float(np.min(log_q)) + sum(m * math.log(abs(z - r))
                                           for r, m in found)
        assert math.log(abs(ev.det_logderiv(z)[0])) >= floor
        z = step.theta + du
        assert math.log(abs(ev.det_logderiv(z)[0])) >= (
            log_dp + log_torus_norm(z - step.theta)
            + log_torus_norm(z + step.theta))


def test_lower_bound_reads_the_ring_that_holds_theta(monkeypatch):
    # a disk of 0.99 of the largest ring would leave the ring whose winding
    # was certified
    model, fam, theta_prev, case, sched, energy = \
        _tracking_input("case2-uneven")
    rings = _spy(monkeypatch, "_sample_ring")
    seen = _spy(monkeypatch, "_floor_violations")
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    ((c, r_win, ring, found), y, rho, log_dp), = seen
    assert r_win == pytest.approx(1.41e-3, rel=0.01)
    assert max(r for _, _, r, _ in rings) == pytest.approx(1.90e-3,
                                                          rel=0.01)
    assert step.window_radius == r_win
    assert rho == pytest.approx(0.99 * (r_win - abs(y - c)))
    assert abs(y - c) + rho <= r_win
    assert step.det_violations == 0


class _Dipped:
    """Stand-in for ``_SchurDet``: f(z) prod (z^2 - a^2) / (theta^2 - a^2)
    over the dips a, even like f, with the extra zeros +-a.  It is real on
    the real axis only if f is and the dips are closed under conjugation."""

    def __init__(self, ev, dips, theta):
        self.ev, self.dips, self.theta = ev, dips, theta
        self.slope, self.n_rest = ev.slope, ev.n_rest
        self.real_axis = ev.real_axis and set(np.conj(dips)) == set(dips)

    def det_logderiv(self, z):
        f, g = self.ev.det_logderiv(z)
        for a in self.dips:
            q = z * z - a * a
            f, g = f * q / (self.theta ** 2 - a * a), g + 2.0 * z / q
        return f, g


def _dip_between_grid_points():
    """crit4-draw0's tracking input, theta, its window radius, and a point
    between the old grid's rings 5 and 6 and its rays 0 and pi/4, nearer to
    the Newton start at 0.3 of the radius than to theta."""
    args = _tracking_input("crit4-draw0")
    clean = track_theta(*args[:5], 1, args[5])
    theta, radius = clean.theta, clean.window_radius
    grid = np.geomspace(radius * 1e-3, radius * 0.99, 8)
    a = theta + math.sqrt(grid[5] * grid[6]) * np.exp(1j * np.pi / 8.0)
    return args, theta, radius, a


def test_lower_bound_refuses_a_zero_between_grid_points(monkeypatch):
    (model, fam, theta_prev, case, sched, energy), theta, radius, a = \
        _dip_between_grid_points()
    real = qplab.msa._SchurDet
    monkeypatch.setattr(qplab.msa, "_SchurDet",
                        lambda *args: _Dipped(real(*args), (a,), theta))
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    # the winding counts +-a and Newton finds a
    assert step.winding_total == 4
    assert any(abs(r - canonical_root(a)) < 1e-12 for r in step.roots)
    assert abs(step.theta - theta) < 1e-12
    dipped = _Dipped(_schur_det(model, fam, energy), (a,), theta)
    # one dip off the axis: f is not real there, so rings stay full
    assert not dipped.real_axis
    assert _grid_violations(lambda z: dipped.det_logderiv(z)[0], theta,
                            radius, sched) == 0
    assert step.det_violations > 0


def test_lower_bound_refuses_a_conjugate_pair_of_dips(monkeypatch):
    # the same dip and its conjugate keep f real on the real axis, so the
    # rings are mirrored, and the certificate still sees the dips
    (model, fam, theta_prev, case, sched, energy), theta, _, a = \
        _dip_between_grid_points()
    real = qplab.msa._SchurDet
    made = []

    def dipped(*args):
        made.append(_Dipped(real(*args), (a, a.conjugate()), theta))
        return made[-1]

    monkeypatch.setattr(qplab.msa, "_SchurDet", dipped)
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    assert made[0].real_axis
    assert step.winding_total == 6
    for r in (a, a.conjugate()):
        assert any(abs(x - canonical_root(r)) < 1e-12 for x in step.roots)
    assert abs(step.theta - theta) < 1e-12
    assert step.det_violations > 0


@pytest.mark.parametrize("name", ["crit4-draw0", "case2-merge",
                                  "band-edge"])
def test_mirrored_ring_matches_a_full_ring(name, monkeypatch):
    model, fam, theta_prev, case, sched, energy = _tracking_input(name)
    seen = _spy(monkeypatch, "_floor_violations")
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    ((c, r_win, ring, found), y, rho, log_dp), = seen
    assert c.imag == 0
    ev = _schur_det(model, fam, energy)
    ev.real_axis = False
    full = _sample_ring(ev, c, r_win, qplab.msa.RING_SAMPLES)
    for got, want in zip(ring, full):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    (w, s0, _), (w_f, s0_f, _) = (_count_zeros(*r, c) for r in (ring, full))
    assert w == w_f and abs(s0 - s0_f) <= 1e-12
    assert step.det_violations == 0
    assert _floor_violations((c, r_win, full, found), y, rho, log_dp) == 0


def _counted(ev) -> list:
    """Records the points at which ``ev`` is evaluated."""
    calls = []
    real = ev.det_logderiv

    def det_logderiv(z):
        calls.append(z)
        return real(z)

    ev.det_logderiv = det_logderiv
    return calls


def test_ring_evaluates_half_only_when_real_on_the_axis():
    model, fam, theta_prev, case, sched, energy = \
        _tracking_input("crit4-draw0")
    c, r = complex(theta_prev.real), 1e-4
    ev = _schur_det(model, fam, energy)
    calls = _counted(ev)
    z, f, g = _sample_ring(ev, c, r, 64)
    assert ev.real_axis and len(calls) == 33 and z.size == 64
    # each unevaluated sample is the conjugate of its partner
    k = np.arange(1, 32)
    assert np.array_equal(z[64 - k], z[k].conj())
    assert np.array_equal(f[64 - k], f[k].conj())
    # a centre off the axis has no partners
    calls.clear()
    _sample_ring(ev, c + 1e-5j, r, 64)
    assert len(calls) == 64
    sat = model.hopping
    twisted = HoppingKernel.from_callable(
        sat.alpha, sat.rho, lambda d: sat.fn(d) * np.exp(0.1j))
    user = dataclasses.replace(model.potential, kind="user",
                               fn=lambda z: np.cos(2.0 * np.pi * z))
    for m, e in ((model, energy + 1e-9j),
                 (dataclasses.replace(model, hopping=twisted), energy),
                 (dataclasses.replace(model, potential=user), energy)):
        ev = _schur_det(m, fam, e)
        calls = _counted(ev)
        z, f, g = _sample_ring(ev, c, r, 64)
        assert not ev.real_axis and len(calls) == 64 and z.size == 64


# criterion 4's frame at E = cos 2 pi theta_prev: (theta, window radius)
# where the search kept each +- candidate in its own window, None where
# those windows were too small to hold the roots the coupling moved
BAND_EDGE_PROBE = {
    0.0: (1.9824747318924326e-05, 0.002710206251926195),
    1e-12: (1.9824747335188476e-05, 0.0027102062512582847),
    1e-6: None,
    1e-5: None,
    1e-4: None,
    1e-3: (0.001000196506881822, 0.0009000000000000008),
    0.25: (0.2499999999998114, 0.0021926029160711145),
    0.5 - 1e-6: None,
    0.5: (0.4999801786940798, 0.002710206251926195),
}


# (determinants, Newton steps) per call.  A band-edge window accepts the
# mirror of each root it finds; before, the start on the imaginary axis
# spent the whole Newton budget there (112-133 determinants, 61-81 steps).
BAND_EDGE_COUNTS = {0.0: (53, 11), 1e-12: (53, 11), 1e-6: (53, 11),
                    1e-5: (53, 11), 1e-4: (51, 9), 1e-3: (46, 3),
                    0.25: (44, 2), 0.5 - 1e-6: (53, 11), 0.5: (53, 11)}


@pytest.mark.parametrize("theta_prev", list(BAND_EDGE_PROBE))
def test_track_theta_near_the_band_edge(theta_prev, monkeypatch):
    model, fam, _, case, sched, _ = _tracking_input("crit4-draw0")
    energy = math.cos(2.0 * math.pi * theta_prev)
    n = _count_factorizations(monkeypatch)
    step = track_theta(model, fam, theta_prev, case, sched, 1, energy)
    assert (n["dets"], step.newton_iters) == BAND_EDGE_COUNTS[theta_prev]
    assert step.winding_total == 2 and len(step.roots) == 1
    assert step.det_violations == 0 and step.deviation_ok
    if BAND_EDGE_PROBE[theta_prev] is not None:
        theta, radius = BAND_EDGE_PROBE[theta_prev]
        assert abs(step.theta - theta) <= 1e-12
        assert step.window_radius == pytest.approx(radius, rel=1e-12)


def test_track_theta_refuses_an_odd_kernel_or_frame():
    model, fam, theta_prev, case, sched, energy = \
        _tracking_input("case1-plant")
    frame = np.arange(-1.5, 3.0)[:, None]
    with pytest.raises(AsymmetricBox, match="frame or its core"):
        _SchurDet(model, frame, np.arange(5) == 2, energy)
    with pytest.raises(AsymmetricBox, match="frame or its core"):
        _SchurDet(model, frame[:4], np.arange(4) == 1, energy)
    sat = model.hopping

    def lopsided(diffs):
        # within the envelope, but phi(n) = phi(-n) / 2 for n < 0
        return sat.fn(diffs) * np.where(diffs[:, 0] < 0, 0.5, 1.0)

    odd = dataclasses.replace(model, hopping=HoppingKernel.from_callable(
        sat.alpha, sat.rho, lopsided))
    with pytest.raises(AsymmetricBox, match="eps W"):
        track_theta(odd, fam, theta_prev, case, sched, 1, energy)


def test_track_theta_refuses_a_potential_that_is_not_even():
    model, fam, theta_prev, case, sched, energy = \
        _tracking_input("case1-plant")
    tilted = dataclasses.replace(
        model.potential, kind="user",
        fn=lambda z: np.cos(2.0 * np.pi * z) + 1e-3 * np.sin(2.0 * np.pi * z))
    with pytest.raises(PreconditionViolated, match="not even"):
        track_theta(dataclasses.replace(model, potential=tilted), fam,
                    theta_prev, case, sched, 1, energy)


class _Linear:
    """Stand-in evaluator for f(z) = z - a, with an optional wrong f'/f;
    real on the real axis for real a."""

    def __init__(self, a, logderiv_ok=True):
        self.a, self.ok = a, logderiv_ok
        self.real_axis = complex(a).imag == 0

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


def _case1_theta(model, energy: float, k: int) -> float:
    """Phase that puts site ``k`` in the - shell at ``energy``, 5e-4 off:
    a case-1 climber in the radius-64 window."""
    theta0 = solve_phase_for_energy(model.potential, energy).real
    return (theta0 - k * float(model.frequency.array()[0]) - 5e-4) % 1.0


def test_run_induction_shares_roots_by_key(planted_model, sched19):
    # g_delta moves delta_1 but not N_1, so both schedules build one frame
    sched_b = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                             s_max=1, delta0=1e-3, n0=8, g_delta=3.0)
    win = box_around(np.zeros(1), 64)
    shared: dict = {}
    for eps in (1e-4, 2e-4):
        model = dataclasses.replace(planted_model, eps=eps)
        for energy in (0.25, 0.28):
            for sched in (sched19, sched_b):
                # the blocks around sites 0 and 2 translate to one frame
                for k in (0, 2):
                    theta = _case1_theta(model, energy, k)
                    run = run_induction(model, theta, energy, win, sched, 1,
                                        roots=shared)
                    fresh = run_induction(model, theta, energy, win, sched,
                                          1, roots={})
                    assert run.depth == 1
                    assert run.scales[1].theta_step == \
                        fresh.scales[1].theta_step
    # one root per (eps, E, schedule), each shared by both phases
    assert len(shared) == 8


def test_run_induction_stores_no_failed_track(planted_model, sched19,
                                              monkeypatch):
    calls = []

    def fail(*args):
        calls.append(args)
        raise WindingMismatch("planted")

    monkeypatch.setattr(qplab.msa, "track_theta", fail)
    win = box_around(np.zeros(1), 64)
    theta = _case1_theta(planted_model, 0.25, 0)
    roots: dict = {}
    for _ in range(2):
        with pytest.raises(WindingMismatch, match="planted"):
            run_induction(planted_model, theta, 0.25, win, sched19, 1,
                          roots=roots)
        assert roots == {}
    assert len(calls) == 2


@pytest.fixture(scope="module")
def planted_run(planted_model, sched19):
    omega = planted_model.frequency.array()
    theta = _planted_theta(planted_model.potential, omega)
    win = box_around(np.zeros(1), 128)
    return run_induction(planted_model, theta, 0.3, win, sched19, 1)


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
    # a flat list in d = 1 is a column of sites
    for bad, good in (([[2], [3], [4]], [[10], [11]]),
                      ([2, 3, 4], [10, 11])):
        assert not check_good(planted_run, bad, 0).good
        assert check_good(planted_run, good, 0).good
    with pytest.raises(PreconditionViolated, match="width 2.*dimension is 1"):
        check_good(planted_run, [[10, 11]], 0)


def test_verify_good_set_estimates(planted_run):
    est = verify_good_set(planted_run, np.arange(10, 21)[:, None], 0)
    assert est.passed and est.norm_ok
    assert math.log(est.norm) <= est.log_bound
    assert est.decay.violations == 0
    assert verify_good_set(planted_run, np.arange(10, 21), 0) == est
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
