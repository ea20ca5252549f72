"""Release gate: eleven end-to-end checks, one per shipped guarantee.

Each test ends by printing a single ``criterion NN: PASS`` line (visible
under ``pytest -s``); a failing criterion surfaces as an ordinary test
failure.  All randomized suites run from frozen seeds, so the numbers
quoted in the pass lines are reproducible bit for bit.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    amplitudes,
    assemble_restriction,
    box_around,
    build_schedule,
    combes_thomas_check,
    construct_blocks,
    decay_scan,
    evolve_amplitudes,
    green_moment_bound,
    green_solve,
    moment_ceiling_check,
    moment_p,
    offaxis_green_decay,
    quasi_metric_certify,
    quasi_metric_defects,
    run_induction,
    solve_phase_for_energy,
    time_avg_moment,
    track_theta,
    verify_block_family,
)
from qplab.lattice import sup_distance_classes
from qplab.model import toeplitz_block
from qplab.msa import CaseData, ResonanceStructure
from qplab.torus import torus_norm


def _pass(num: int, detail: str) -> None:
    print(f"criterion {num:02d}: PASS  {detail}")


# ---------------------------------------------------------------------------
# criterion 1: the six inequality suites, 1e5 randomized instances each


def test_criterion_01_lemma_suites(saturating_kernel):
    start = time.monotonic()

    # quasi-metric constant: certify once, then hammer with a fresh stream
    cert = quasi_metric_certify(2.0, 64, budget=10**6, seed=11)
    assert cert.c_hat == pytest.approx(0.5294055451796252, rel=1e-9)
    rng = np.random.default_rng(101)
    sizes = rng.integers(2, 65, size=100_000)
    worst = -np.inf
    for n in np.unique(sizes):
        m = int(np.count_nonzero(sizes == n))
        half = m // 2
        heavy = np.exp(rng.uniform(math.log(1e-3), math.log(1e4),
                                   size=(half, n)))
        flat = rng.uniform(0.05, 4.0, size=(m - half, n))
        for block in (heavy, flat):
            if block.shape[0]:
                worst = max(worst,
                            float(np.max(quasi_metric_defects(block, 2.0))))
    assert worst <= cert.c_hat

    rng = np.random.default_rng(202)

    # extract: shaving y off x costs at least the linearized log-power drop
    n = 100_000
    x = np.exp(rng.uniform(0.0, 12.0, n))
    y = rng.uniform(0.0, 1.0, n) * np.minimum(x, (1.0 + x) / 2.0) * 0.999
    rho = rng.uniform(1.05, 2.95, n)
    keep = (x > y) & (y > 0) & (1.0 + x > 2.0 * y)
    x, y, rho = x[keep], y[keep], rho[keep]
    assert x.size == 100_000
    l1p = np.log1p(x)
    lin = (1.0 - 2.0 * rho * y / ((1.0 + x) * l1p)) * l1p**rho
    actual = np.log1p(x - y) ** rho
    bad_extract = int(np.count_nonzero(lin > actual * (1 + 1e-12) + 1e-12))
    assert bad_extract == 0

    # hadamard: adjugate entries bounded by the max row sum to the (n-1)
    sizes = rng.integers(1, 9, size=100_000)
    bad_h = 0
    skipped = 0
    for nn in range(1, 9):
        m = int(np.count_nonzero(sizes == nn))
        if m == 0:
            continue
        batch = (rng.normal(size=(m, nn, nn))
                 + 1j * rng.normal(size=(m, nn, nn)))
        row = np.abs(batch).sum(axis=2).max(axis=1)
        if nn == 1:
            adj_max = np.ones(m)
        else:
            det = np.linalg.det(batch)
            ok = np.abs(det) > 1e-10
            adj = det[ok, None, None] * np.linalg.inv(batch[ok])
            adj_max = np.abs(adj).max(axis=(1, 2))
            row = row[ok]
            skipped += int(np.count_nonzero(~ok))
        bad_h += int(np.count_nonzero(
            adj_max > row ** (nn - 1) * (1 + 1e-9) + 1e-300))
    assert bad_h == 0 and skipped == 0

    # schur: determinant factorization plus the two-sided inverse sandwich
    sizes = rng.integers(2, 9, size=100_000)
    bad_det = 0
    bad_sw = 0
    for nn in range(2, 9):
        m = int(np.count_nonzero(sizes == nn))
        ks = rng.integers(1, nn, size=m)
        for k in range(1, nn):
            cnt = int(np.count_nonzero(ks == k))
            if cnt == 0:
                continue
            mat = (rng.normal(size=(cnt, nn, nn))
                   + 1j * rng.normal(size=(cnt, nn, nn)))
            mat += 2.0 * nn * np.eye(nn)[None, :, :]
            mat /= (np.abs(mat).max(axis=(1, 2)) * nn)[:, None, None]
            a = mat[:, :k, :k]
            b = mat[:, :k, k:]
            c = mat[:, k:, :k]
            d = mat[:, k:, k:]
            s = d - c @ np.linalg.solve(a, b)
            sgn_m, log_m = np.linalg.slogdet(mat)
            sgn_a, log_a = np.linalg.slogdet(a)
            sgn_s, log_s = np.linalg.slogdet(s)
            defect = np.abs(sgn_m - sgn_a * sgn_s * np.exp(
                np.clip(log_a + log_s - log_m, -700, 700)))
            bad_det += int(np.count_nonzero(defect > 1e-6))
            sv_m = np.linalg.svd(mat, compute_uv=False)
            sv_a = np.linalg.svd(a, compute_uv=False)
            sv_s = np.linalg.svd(s, compute_uv=False)
            sv_b = np.linalg.svd(b, compute_uv=False)
            sv_c = np.linalg.svd(c, compute_uv=False)
            m_inv = 1.0 / sv_m[:, -1]
            a_inv = 1.0 / sv_a[:, -1]
            s_inv = 1.0 / sv_s[:, -1]
            contr = ((sv_b[:, 0] <= 1 + 1e-12)
                     & (sv_c[:, 0] <= 1 + 1e-12))
            tol = 1e-9 * np.maximum(1.0, m_inv)
            lower = s_inv <= m_inv + tol
            upper = ~contr | (m_inv < 4.0 * (1 + a_inv) ** 2
                              * (1 + s_inv) + tol)
            bad_sw += int(np.count_nonzero(~(lower & upper)))
    assert bad_det == 0 and bad_sw == 0

    # determinant perturbation: |det(A+B) - det A| via row norms
    sizes = rng.integers(2, 9, size=100_000)
    bad_p = 0
    for nn in range(2, 9):
        m = int(np.count_nonzero(sizes == nn))
        a = rng.normal(size=(m, nn, nn))
        b = (rng.normal(size=(m, nn, nn))
             * 10.0 ** rng.uniform(-6, 0, size=(m, 1, 1)))
        m_row = np.abs(a).sum(axis=2).max(axis=1)
        e_row = np.abs(b).sum(axis=2).max(axis=1)
        lhs = np.abs(np.linalg.det(a + b) - np.linalg.det(a))
        rhs = e_row * nn**2 * (m_row + e_row) ** (nn - 1)
        bad_p += int(np.count_nonzero(lhs > rhs * (1 + 1e-9) + 1e-300))
    assert bad_p == 0

    # evenness: det T(z) = det T(-z) on symmetric frames, 40 x 2500 draws
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    bad_e = 0
    for _ in range(40):
        half = rng.integers(0, 2)
        offs = rng.choice(np.arange(1, 13), size=rng.integers(1, 5),
                          replace=False).astype(float)
        if half:
            offs = offs - 0.5
            frame = np.concatenate([-offs[::-1], offs])
        else:
            frame = np.concatenate([-offs[::-1], [0.0], offs])
        frame = np.sort(frame)[:, None]
        eps = float(10.0 ** rng.uniform(-4, -1))
        w = eps * toeplitz_block(saturating_kernel, frame)
        slope = frame[:, 0] * omega
        z = (rng.uniform(-0.5, 0.5, 2500)
             + 1j * rng.uniform(-0.2, 0.2, 2500))
        e_val = rng.uniform(-0.9, 0.9)
        diag_p = np.cos(2 * np.pi * (z[:, None] + slope[None, :])) - e_val
        diag_m = np.cos(2 * np.pi * (-z[:, None] + slope[None, :])) - e_val
        tp = np.broadcast_to(w, (2500,) + w.shape).copy().astype(complex)
        tm = tp.copy()
        ii = np.arange(w.shape[0])
        tp[:, ii, ii] += diag_p
        tm[:, ii, ii] += diag_m
        sp, lp = np.linalg.slogdet(tp)
        sm, lm = np.linalg.slogdet(tm)
        rel = np.abs(sp - sm * np.exp(np.clip(lm - lp, -700, 700)))
        bad_e += int(np.count_nonzero(rel > 1e-8))
    assert bad_e == 0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _pass(1, f"six suites x 1e5 instances, zero violations ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 2: scale-length arithmetic against an independent evaluator


def test_criterion_02_schedule_sandwich():
    sys.set_int_max_str_digits(200_000)
    expected_n1 = {"1.2": 35, "1.5": 15, "1.9": 9}

    # exact anchor: rho' = 1.5, the second length as a literal integer
    with mp.workdps(60):
        l1 = mp.power(-mp.log(mpf(10) ** -2), 1 / mpf("1.5"))
        n1 = int(mp.floor(mp.exp(l1)))
    assert n1 == 15
    with mp.workdps(120_400):
        base = mp.exp(mp.power(-mp.log(mpf(10) ** -2), 1 / mpf("1.5")))
        n2 = int(mp.floor(mp.power(base, 100_000)))
    assert n1**100_000 - 1 <= n2 <= (n1 + 1) ** 100_000
    with mp.workdps(60):
        log_n2 = mp.log(mpf(n2))
        jump_15 = mp.power(mpf(10), mpf("7.5")) * (-mp.log(mpf(10) ** -2))
        assert mp.power(log_n2, mpf("1.5")) <= jump_15
        assert jump_15 <= mp.power(mp.log(mpf(n2) + 1), mpf("1.5"))

    # log-domain brackets for every scale s <= 10 and all three exponents;
    # u[s] is the log of the untruncated length x_{s+1}, and the floor slack
    # log1p(+-exp(-u)) brackets log N and log(N+1) around it.  From s = 1 on
    # that slack is of order exp(-1e5) and underflows 60-digit arithmetic,
    # so the endpoint comparisons carry a rounding allowance (1e-45 relative)
    # that sits far above the dps-60 noise floor yet below anything the
    # bracket could resolve; at s = 0 the slack is ~0.06 and bites for real
    with mp.workdps(60):
        for rp_str, n1_want in expected_n1.items():
            rp = mpf(rp_str)
            l0 = -mp.log(mpf(10) ** -2)
            jump = mp.power(10, 5 * rp)
            u = [mp.power(jump**s * l0, 1 / rp) for s in range(11)]
            first = int(mp.floor(mp.exp(u[0])))
            assert first == n1_want
            assert mp.log(first) <= u[0] < mp.log(first + 1)
            for s in range(11):
                level = jump**s * l0
                assert abs(mp.power(u[s], rp) - level) <= mpf("1e-40") * level
                lo_end = mp.power(u[s] + mp.log1p(-mp.exp(-u[s])), rp)
                hi_end = mp.power(u[s] + mp.log1p(mp.exp(-u[s])), rp)
                allow = mpf("1e-45") * level
                assert lo_end <= level + allow
                assert level <= hi_end + allow
            for s in range(10):
                cur, nxt = u[s], u[s + 1]
                assert abs(nxt - 10**5 * cur) <= mpf("1e-40") * nxt
                up_gap = mp.log1p(mp.exp(-cur))
                dn_gap = mp.log1p(-mp.exp(-cur))
                assert up_gap > 0 > dn_gap
                allow = mpf("1e-45") * nxt
                assert 10**5 * (cur + dn_gap) <= nxt + allow
                assert nxt <= 10**5 * (cur + up_gap) + allow

    # the shipped schedule builder agrees with the independent evaluation
    for rp_f, n1_want in ((1.2, 35), (1.5, 15), (1.9, 9)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule("paper", alpha=1e13, rho=rp_f + 0.5,
                                   rho_prime=rp_f, s_max=2, eps0=1e-20)
        assert sched.n_seq[1] == n1_want
        assert (sched.log_delta[1] / sched.log_delta[0]
                == pytest.approx(10.0 ** (5 * rp_f), rel=1e-12))

    _pass(2, "N_1 = {35, 15, 9}, exact 1.2e5-digit sandwich, "
             "log-domain brackets to s = 10")


# ---------------------------------------------------------------------------
# criterion 3: resolvent bound and decay on 0-good windows


def test_criterion_03_zero_good_boxes(weak_model, golden_frequency,
                                      cosine_potential):
    start = time.monotonic()
    omega = golden_frequency.array()
    energy = 0.3
    delta0 = 2e-3
    theta0 = solve_phase_for_energy(cosine_potential, energy).real
    win = box_around(np.zeros(1), 64)
    sites = win.sites
    classes = sup_distance_classes(sites)
    offs = sites @ omega
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0.0, 1.0, 200)
    kept = bad_norm = bad_decay = 0
    worst_norm = 0.0
    bound = 2.0 / (cosine_potential.kappa1 * delta0**2)
    for th in thetas:
        ph = th + offs
        dmin = min(torus_norm(ph - theta0).min(),
                   torus_norm(ph + theta0).min())
        if dmin < delta0:
            continue
        kept += 1
        rest = assemble_restriction(weak_model, win, complex(th), energy)
        g = green_solve(rest.matrix)
        nrm = g.op_norm
        worst_norm = max(worst_norm, nrm)
        if nrm > bound:
            bad_norm += 1
        fit = decay_scan(g.matrix, classes, 0.75, 2.0)
        if not fit.holds:
            bad_decay += 1
    elapsed = time.monotonic() - start
    assert kept >= 50
    assert bad_norm == 0 and bad_decay == 0
    assert worst_norm <= bound
    assert elapsed < 300.0
    _pass(3, f"{kept}/200 phases 0-good, all pass norm+decay "
             f"(worst norm {worst_norm:.1f} vs {bound:.3g}, {elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 4: root tracking across coupling strengths plus winding checks


def test_criterion_04_theta_tracking(cosine_potential, saturating_kernel,
                                     golden_frequency):
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.9,
                           s_max=1, delta0=1e-3, n0=8)
    window = box_around(np.zeros(1), 64)
    case = CaseData(1, None, None, None, float("inf"))
    fam = construct_blocks(np.asarray([[0]]), {(0,): np.asarray([[0]])},
                           1, 1, (0,), sched, [], window)
    energy = 0.3
    theta0 = solve_phase_for_energy(cosine_potential, energy)
    for eps in (1e-5, 1e-4, 1e-3):
        model = ModelSpec(cosine_potential, saturating_kernel,
                          golden_frequency, eps)
        step = track_theta(model, fam, theta0, case, sched, 1, energy)
        assert step.deviation < eps
        assert step.winding_total == 2
        assert step.det_violations == 0
        assert len(step.roots) == 1
    frozen = ModelSpec(cosine_potential, saturating_kernel,
                       golden_frequency, 0.0)
    step0 = track_theta(frozen, fam, theta0, case, sched, 1, energy)
    assert step0.deviation <= 1e-12

    model = ModelSpec(cosine_potential, saturating_kernel,
                      golden_frequency, 1e-4)
    rng = np.random.default_rng(7)
    bad_wind = bad_det = 0
    max_dev = 0.0
    for _ in range(100):
        e_draw = float(rng.uniform(-0.9, 0.9))
        t_root = solve_phase_for_energy(cosine_potential, e_draw)
        step = track_theta(model, fam, t_root, case, sched, 1, e_draw)
        if step.winding_total != 2:
            bad_wind += 1
        if step.det_violations:
            bad_det += 1
        max_dev = max(max_dev, step.deviation)
    assert bad_wind == 0 and bad_det == 0
    assert max_dev < 1e-4
    _pass(4, f"deviation < eps at three couplings, exact at eps = 0, "
             f"100 windings clean (max dev {max_dev:.2e})")


# ---------------------------------------------------------------------------
# criterion 5: randomized two-scale block constructions stay closed


def test_criterion_05_block_closure():
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=2, delta0=0.02, n0=8, g_delta=3.0, g_n=1.5)
    rng = np.random.default_rng(55)
    start = time.monotonic()
    bad = asym = 0
    trials = 50
    for _ in range(trials):
        k1 = int(rng.integers(1, 4))
        case1 = int(rng.integers(1, 3))
        l = int(rng.integers(1, 4))
        offs = [int(rng.integers(-500, 500))]
        for _ in range(k1 - 1):
            offs.append(offs[-1] + int(rng.integers(4000, 6001)))
        if case1 == 2:
            p2_1 = np.asarray([[2 * o + l] for o in offs])
            cores1 = {(2 * o + l,): np.asarray([[2 * o], [2 * o + 2 * l]])
                      for o in offs}
            q0 = np.asarray(sorted([2 * o] for o in offs)
                            + sorted([2 * (o + l)] for o in offs))
            half = len(offs)
            res0 = ResonanceStructure(0, 0.1, (0,), q0, q0[:half], q0[half:],
                                      q0[:half], q0[half:], 0.02, 0.02**0.25)
            off1 = (l,)
        else:
            p2_1 = np.asarray([[2 * o] for o in offs])
            cores1 = {(2 * o,): np.asarray([[2 * o]]) for o in offs}
            q0 = np.asarray(sorted([2 * o] for o in offs))
            res0 = ResonanceStructure(0, 0.1, (0,), q0, q0, q0[:0],
                                      q0, q0[:0], 0.02, 0.02**0.25)
            off1 = (0,)
        span = max(abs(v) for v in offs) + 2000
        window = box_around(np.zeros(1), span)
        fam1 = construct_blocks(p2_1, cores1, 1, case1, off1, sched,
                                [], window)
        rep1 = verify_block_family(fam1, [], res0)
        cores2 = {k: 2 * fam1.cores[k] for k in fam1.center_keys()}
        fam2 = construct_blocks(fam1.centers2, cores2, 2, 1, off1, sched,
                                [fam1], window)
        half1 = max(1, fam1.centers2.shape[0] // 2)
        res1 = ResonanceStructure(1, 0.1, off1, fam1.centers2,
                                  fam1.centers2[:half1],
                                  fam1.centers2[half1:],
                                  fam1.centers2[:half1],
                                  fam1.centers2[half1:],
                                  0.02**3, 0.02**0.75)
        rep2 = verify_block_family(fam2, [fam1], res1)
        if not (rep1.all_ok and rep2.all_ok):
            bad += 1
        if not (rep1.symmetry_ok and rep2.symmetry_ok):
            asym += 1
    elapsed = time.monotonic() - start
    assert bad == 0
    assert asym == 0
    _pass(5, f"{trials} random two-scale toys, zero clause violations, "
             f"zero asymmetry ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 6: off-spectrum resolvent decay with positive denominator


def test_criterion_06_combes_thomas(weak_model):
    win = box_around(np.zeros(1), 64)
    rng = np.random.default_rng(41)
    bad = 0
    denom_min = math.inf
    for _ in range(100):
        th = rng.uniform(0.0, 1.0)
        z = complex(rng.uniform(-1.0, 1.0), 1.55)
        rest = assemble_restriction(weak_model, win, complex(th), 0.0)
        rep = combes_thomas_check(rest.matrix, win.sites, z, 0.5, 2.0, 0.5)
        assert rep.dist_to_spectrum >= 0.5
        assert rep.denominator > 0.0
        denom_min = min(denom_min, rep.denominator)
        if rep.violations:
            bad += 1
    assert bad == 0
    _pass(6, f"100 draws, zero per-entry violations "
             f"(min denominator {denom_min:.3f})")


# ---------------------------------------------------------------------------
# criterion 7: moments from eigendecomposition vs resolvent integrals


def test_criterion_07_moment_green_bound(cosine_potential, saturating_kernel,
                                         golden_frequency):
    rng = np.random.default_rng(77)
    bad = 0
    budget_hits = 0
    seen = set()
    for i in range(100):
        eps = float(rng.uniform(1e-4, 5e-3))
        model = ModelSpec(cosine_potential, saturating_kernel,
                          golden_frequency, eps)
        radius = int(rng.integers(4, 16))
        theta = float(rng.uniform(0.0, 1.0))
        win = box_around(np.zeros(1), radius)
        ev = evolve_amplitudes(model, win, complex(theta))
        horizon = float(rng.choice([1.0, 10.0, 100.0]))
        mode = "fixed" if i % 2 == 0 else "avg"
        targets = [float(rng.uniform(1.0, radius))]
        rep = green_moment_bound(model, ev, horizon, targets, mode=mode)
        seen.add((horizon, mode))
        if not rep.holds:
            bad += 1
        if rep.budget_hit:
            budget_hits += 1
    assert bad == 0
    assert seen == {(t, m) for t in (1.0, 10.0, 100.0)
                    for m in ("fixed", "avg")}
    _pass(7, f"100 instances, both bounds at t, T in {{1, 10, 100}}, "
             f"zero violations ({budget_hits} quadrature budget hits)")


# ---------------------------------------------------------------------------
# criterion 8: off-axis decay past the onset radius inside the time bracket


def test_criterion_08_offaxis_decay(cosine_potential, saturating_kernel,
                                    golden_frequency):
    model = ModelSpec(cosine_potential, saturating_kernel, golden_frequency,
                      1e-3, eps0=0.12)
    sched = build_schedule("desk", alpha=1.0, rho=2.0, rho_prime=1.5,
                           s_max=1, delta0=0.12, n0=8)
    d0 = math.exp(sched.log_delta[0])
    d1 = math.exp(sched.log_delta[1])
    t_lo = 1.0 / min(d0**3, cosine_potential.beta)
    t_hi = 1.0 / d1**3
    assert t_lo <= 2000.0 < t_hi

    win = box_around(np.zeros(1), 256)
    rng = np.random.default_rng(88)
    bad = 0
    n_entries = 0
    worst = -math.inf
    onset = None
    for _ in range(20):
        theta = float(rng.uniform(0.0, 1.0))
        energy = float(rng.uniform(-0.9, 0.9))
        run = run_induction(model, complex(theta), energy, win, sched, 0)
        targets = rng.integers(165, 251, (4, 1))
        rep = offaxis_green_decay(run, 1, energy, 2000.0, targets)
        assert rep.holds
        onset = rep.onset
        for e in rep.entries:
            n_entries += 1
            worst = max(worst, e.log_green - e.log_bound)
            if e.log_green > e.log_bound + 1e-9:
                bad += 1
    assert bad == 0
    assert n_entries == 80
    _pass(8, f"20 draws x 4 probes beyond onset {onset:.1f}, zero "
             f"violations (worst margin {-worst:.1f} nats)")


# ---------------------------------------------------------------------------
# criterion 9: evolution invariants


def test_criterion_09_dynamics_invariants(weak_model, cosine_potential,
                                          saturating_kernel,
                                          golden_frequency):
    ev32 = evolve_amplitudes(weak_model, box_around(np.zeros(1), 32), 0.3)
    for t in (0.0, 1.0, 50.0, 2000.0):
        a = amplitudes(ev32, t)
        assert abs(float(np.sum(np.abs(a) ** 2)) - 1.0) <= 1e-8
    for t in (1.0, 100.0):
        assert moment_p(ev32, t, 0.0).value == pytest.approx(1.0, abs=1e-12)

    frozen = ModelSpec(cosine_potential, saturating_kernel,
                       golden_frequency, 0.0)
    ev_frozen = evolve_amplitudes(frozen, box_around(np.zeros(1), 16), 0.3)
    for p in (1.0, 2.0):
        assert (moment_p(ev_frozen, 50.0, p).value
                == pytest.approx(1.0, abs=1e-12))

    rabi_freq = FrequencyVector((0.5,), 2.0, 0.2)
    rabi = ModelSpec(cosine_potential, saturating_kernel, rabi_freq, 1e-3)
    ev2 = evolve_amplitudes(rabi, box_around(np.array([0.5]), 0.5), 0.25)
    hop = 1e-3 * math.exp(-math.log(2.0) ** 2)
    idx = ev2.sites.ravel().tolist().index(1)
    for t in (0.0, 3.0, 700.0, 4000.0):
        a = amplitudes(ev2, t)
        assert abs(abs(a[idx]) - abs(math.sin(hop * t))) <= 1e-10

    # dual path: the exact Abel average against 64-node Gauss-Laguerre
    # quadrature in time (t = T x / 2), one propagator row per node
    ta = time_avg_moment(ev32, 20.0, 2.0)
    x, w = np.polynomial.laguerre.laggauss(64)
    wgt = (1.0 + ev32.dists) ** 2
    by_quad = sum(wi * float(np.sum(wgt * np.abs(amplitudes(ev32, 10.0 * xi))
                                    ** 2)) for xi, wi in zip(x, w))
    agreement = abs(by_quad - ta.value) / max(1.0, abs(ta.value))
    assert agreement <= 1e-6
    _pass(9, f"unitarity, p = 0, frozen hop, Rabi, dual-path "
             f"(averaging agreement {agreement:.1e})")


# ---------------------------------------------------------------------------
# criterion 10: sub-polynomial moment ceiling with a negative control


def test_criterion_10_moment_ceiling(weak_model, cosine_potential,
                                     saturating_kernel, golden_frequency):
    times = np.geomspace(125.0, 1000.0, 12)
    win = box_around(np.zeros(1), 512)
    ev = evolve_amplitudes(weak_model, win, 0.113)
    rep = moment_ceiling_check(ev, 2.0, 1.5, 0.2, 0.05, times)
    assert rep.t0 == pytest.approx(125.0)
    assert rep.holds
    assert rep.boundary_mass_max < 1e-6

    control = ModelSpec(cosine_potential, saturating_kernel,
                        golden_frequency, 1.0, eps0=1.0)
    ev_ctl = evolve_amplitudes(control, win, 0.113)
    rep_ctl = moment_ceiling_check(ev_ctl, 2.0, 1.5, 0.2, 0.05, times)
    exceed = rep_ctl.values > rep_ctl.bounds
    assert exceed.any()
    ratio = float(np.max(rep.values / rep.bounds))

    avg = moment_ceiling_check(ev, 2.0, 1.5, 0.2, 0.05, times,
                               averaged=True)
    assert avg.holds
    assert avg.boundary_mass_max < 1e-6
    avg_ctl = moment_ceiling_check(ev_ctl, 2.0, 1.5, 0.2, 0.05, times,
                                   averaged=True)
    avg_exceed = avg_ctl.values > avg_ctl.bounds
    assert avg_exceed.any()
    assert avg_ctl.boundary_mass_max > 0.0
    avg_ratio = float(np.max(avg.values / avg.bounds))
    _pass(10, f"12 log-spaced times under the ceiling (max ratio "
              f"{ratio:.2e}, averaged {avg_ratio:.2e}); eps = 1 control "
              f"exceeds at {int(exceed.sum())}/12 times "
              f"({int(avg_exceed.sum())}/12 averaged)")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical report bundles on rerun


def _bundle_digest(path):
    acc = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        acc.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            acc.update(fh.read())
    return acc.hexdigest()


def test_criterion_11_determinism(tmp_path):
    env = dict(os.environ, QPLAB_CACHE_DIR=str(tmp_path / "cache"))

    def run_cli(*args):
        proc = subprocess.run([sys.executable, "-m", "qplab.cli", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # the package must not import qplab.cli before runpy executes it
        assert "RuntimeWarning" not in proc.stderr
        return proc

    out_a = tmp_path / "lemmas-a"
    out_b = tmp_path / "lemmas-b"
    run_cli("verify-lemmas", "--out", str(out_a))
    run_cli("verify-lemmas", "--out", str(out_b))
    assert _bundle_digest(out_a) == _bundle_digest(out_b)

    from qplab.cli import default_config

    cfg = default_config("green")
    cfg["sweep"]["radius"] = 8
    cfg["sweep"]["theta"] = [0.0]
    cfg["sweep"]["energy"] = [0.3]
    cfg_path = tmp_path / "green.json"
    cfg_path.write_text(json.dumps(cfg))
    out_c = tmp_path / "green-a"
    out_d = tmp_path / "green-b"
    run_cli("green", "--config", str(cfg_path), "--out", str(out_c))
    run_cli("green", "--config", str(cfg_path), "--out", str(out_d))
    assert _bundle_digest(out_c) == _bundle_digest(out_d)
    _pass(11, "verify-lemmas and green bundles byte-identical across reruns")
