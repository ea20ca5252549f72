"""Quantum dynamics on finite windows: moments, averages, and their bounds.

Everything runs through one eigendecomposition of the (Hermitian) window
restriction.  Wave-packet amplitudes, transport moments, and Abel-type time
averages are exact spectral sums; quadrature enters only as a cross-check.
The moment-to-Green bounds and the long-time moment ceiling mirror the
estimates the localization machinery exports, with every constant spelled
out so the checks are reproducible inequalities rather than fits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    BracketViolated,
    NotHermitian,
    PreconditionViolated,
    QuadratureDisagreement,
    SpectrumEscapes,
)
from .greens import DecayFit, decay_scan
from .lattice import (
    LatticeBox,
    box_around,
    is_regular,
    pairwise_sup_dist,
    regular_deformation,
    set_contains,
)
from .model import ModelSpec, assemble_t_matrix, log_decay_envelope
from .msa import MsaRun, deformation_levels


# ---------------------------------------------------------------------------
# evolution


@dataclass(frozen=True)
class EvolutionData:
    """Eigendecomposition of a window restriction, reused by every moment.

    ``weights0`` are the overlaps of the eigenvectors with the origin site,
    so an amplitude row is ``V (exp(-i w t) * weights0)``.
    """

    sites: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    origin_idx: int
    weights0: np.ndarray
    dists: np.ndarray


def evolve_amplitudes(model: ModelSpec, window: LatticeBox, theta,
                      *, herm_tol: float = 1e-10) -> EvolutionData:
    """Diagonalize ``H(theta)`` on a window around an origin site."""
    theta_c = theta.theta if hasattr(theta, "theta") else complex(theta)
    if abs(theta_c.imag) > 1e-15:
        raise NotHermitian("dynamics needs a real phase")
    sites = window.sites
    h = assemble_t_matrix(model.potential, model.hopping,
                          model.frequency.array(), model.eps,
                          sites.astype(float), theta_c.real, 0.0)
    defect = float(np.max(np.abs(h - h.conj().T)))
    if defect > herm_tol * max(1.0, float(np.max(np.abs(h)))):
        raise NotHermitian(f"restriction asymmetry {defect:.3e}")
    origin = np.flatnonzero(np.all(sites == 0, axis=1))
    if origin.size != 1:
        raise PreconditionViolated("window must contain the origin site")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    o = int(origin[0])
    dists = np.max(np.abs(sites), axis=1).astype(float)
    return EvolutionData(sites, w, v, o, v[o, :].conj(), dists)


def amplitudes(ev: EvolutionData, t: float) -> np.ndarray:
    """Row of the propagator from the origin: ``<delta_n, e^{-itH} delta_0>``."""
    return ev.eigvecs @ (np.exp(-1j * ev.eigvals * t) * ev.weights0)


@dataclass(frozen=True)
class MomentValue:
    value: float
    p: float
    t: float
    conservation_defect: float
    boundary_mass: float


def moment_p(ev: EvolutionData, t: float, p: float, *,
             boundary_tol: float = 1e-6) -> MomentValue:
    """p-th transport moment ``sum (1+||n||)^p |a_n(t)|^2``.

    Warns when the outermost site layer already carries mass above
    ``boundary_tol``; past that point the window, not the operator, caps the
    moment.
    """
    amp2 = np.abs(amplitudes(ev, t)) ** 2
    total = float(np.sum(amp2))
    edge = float(np.sum(amp2[ev.dists >= ev.dists.max()]))
    if edge > boundary_tol:
        warnings.warn(
            f"boundary layer holds mass {edge:.2e} at t = {t:g}; the window "
            "truncates the true moment", stacklevel=2)
    value = float(np.sum((1.0 + ev.dists) ** p * amp2))
    return MomentValue(value, float(p), float(t), abs(total - 1.0), edge)


@dataclass(frozen=True)
class TimeAvgMoment:
    value: float
    quad_value: float
    p: float
    horizon: float
    nodes_used: int
    agreement: float


def time_avg_moment(ev: EvolutionData, horizon: float, p: float, *,
                    nodes: int = 64, node_cap: int = 4096,
                    rtol: float = 1e-6) -> TimeAvgMoment:
    """Abel-averaged moment ``(2/T) int exp(-2t/T) moment_p(t) dt``.

    The reference value is the exact spectral double sum (the average of
    each oscillating pair is ``1/(1 + i(w_j - w_k) T/2)``).  A
    Gauss-Laguerre quadrature of the same integral must reproduce it; nodes
    double until agreement or the cap, since beat periods shorter than the
    node spacing otherwise alias badly.
    """
    big_t = float(horizon)
    if big_t <= 0:
        raise ValueError("averaging horizon must be positive")
    wgt = (1.0 + ev.dists) ** p
    b = ev.eigvecs * ev.weights0[None, :]
    c = (b.conj().T * wgt[None, :]) @ b
    gaps = ev.eigvals[:, None] - ev.eigvals[None, :]
    kern = 1.0 / (1.0 + 0.5j * gaps * big_t)
    exact = float(np.real(np.sum(kern * c.T)))

    n_q = int(nodes)
    quad = math.nan
    agree = math.inf
    while True:
        with np.errstate(all="ignore"):
            x, w = np.polynomial.laguerre.laggauss(n_q)
        if not np.all(np.isfinite(w)):
            raise QuadratureDisagreement(
                f"Gauss-Laguerre weights are not finite at {n_q} nodes")
        ts = big_t * x / 2.0
        vals = np.empty_like(ts)
        for i, t in enumerate(ts):
            amp2 = np.abs(amplitudes(ev, float(t))) ** 2
            vals[i] = float(np.sum(wgt * amp2))
        quad = float(np.sum(w * vals))
        agree = abs(quad - exact) / max(1.0, abs(exact))
        if agree <= rtol or 2 * n_q > node_cap or math.isnan(agree):
            break
        n_q *= 2
    if not agree <= rtol:
        raise QuadratureDisagreement(
            f"quadrature stalled at {n_q} nodes with relative spread "
            f"{agree:.2e}; spectral phases beat faster than the grid")
    span = big_t * float(np.max(x)) / 2.0
    if span < 10.0 * big_t:
        raise QuadratureDisagreement(
            "quadrature horizon does not dominate the averaging time")
    return TimeAvgMoment(exact, quad, float(p), big_t, n_q, agree)


# ---------------------------------------------------------------------------
# moment vs Green's function


def _simpson(vals: np.ndarray, h: float) -> np.ndarray:
    return (h / 3.0) * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2],
                                                          axis=0)
                        + 2.0 * np.sum(vals[2:-1:2], axis=0))


@dataclass(frozen=True)
class GreenMomentBound:
    mode: str
    t: float
    targets: np.ndarray
    lhs: np.ndarray
    rhs_integral: np.ndarray
    rhs_tail: np.ndarray
    solves: int
    budget_hit: bool
    integral_spread: float

    @property
    def holds(self) -> bool:
        return bool(np.all(self.lhs <= self.rhs_integral + self.rhs_tail
                           + 1e-12))


def green_moment_bound(model: ModelSpec, ev: EvolutionData, t: float,
                       targets, *, mode: str = "fixed",
                       panels: int = 16, solve_budget: int = 2048,
                       rtol: float = 1e-4) -> GreenMomentBound:
    """Check the wave-packet vs Green's-function inequality site by site.

    ``fixed`` bounds ``|a_n(t)|^2`` by ``(b-a+4 beta) e^2 / (2 pi^2)`` times
    the energy integral of ``|G(E + i/t)(n, 0)|^2`` over the beta-padded
    range plus an explicit tail.  ``avg`` bounds the Abel average with
    prefactors ``1/(pi T)`` and ``4/(beta pi T)``, the resolvent offset
    being ``1/T``.  The energy integral uses composite Simpson with panel
    doubling under a MatVec budget; hitting the budget is reported, not
    raised.
    """
    pot = model.potential
    lo, hi = pot.a - 2.0 * pot.beta, pot.b + 2.0 * pot.beta
    spec_lo = float(np.min(ev.eigvals))
    spec_hi = float(np.max(ev.eigvals))
    if spec_lo < pot.a - pot.beta or spec_hi > pot.b + pot.beta:
        raise SpectrumEscapes(
            f"window spectrum [{spec_lo:.4f}, {spec_hi:.4f}] leaves "
            f"[{pot.a - pot.beta:.4f}, {pot.b + pot.beta:.4f}]")
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")

    targets = np.atleast_2d(np.asarray(targets, dtype=np.int64))
    idx = []
    site_map = {tuple(r.tolist()): i for i, r in enumerate(ev.sites)}
    for row in targets:
        key = tuple(row.tolist())
        if key not in site_map:
            raise KeyError(f"target {key} lies outside the window")
        idx.append(site_map[key])
    idx = np.asarray(idx)

    if mode == "fixed":
        amp = amplitudes(ev, t)[idx]
        lhs = np.abs(amp) ** 2
        pref = (pot.b - pot.a + 4.0 * pot.beta) * math.e ** 2 \
            / (2.0 * math.pi ** 2)
        tail_pref = (2.0 * math.e ** 2 / (pot.beta ** 2 * math.pi ** 2)) \
            * (pot.b - pot.a + 6.0 * pot.beta + 2.0 / t) ** 2
    elif mode == "avg":
        b_mat = ev.eigvecs * ev.weights0[None, :]
        gaps = ev.eigvals[:, None] - ev.eigvals[None, :]
        kern = 1.0 / (1.0 + 0.5j * gaps * t)
        rows = b_mat[idx]
        lhs = np.real(np.einsum("nj,jk,nk->n", rows, kern, rows.conj()))
        pref = 1.0 / (t * math.pi)
        tail_pref = 4.0 / (pot.beta * t * math.pi)
    else:
        raise ValueError(f"unknown bound mode {mode!r}")

    z_off = 1.0 / t
    h_mat = ev.eigvecs @ (ev.eigvals[:, None] * ev.eigvecs.conj().T)
    origin = ev.origin_idx
    n_sites = ev.sites.shape[0]
    e0 = np.zeros(n_sites, dtype=complex)
    e0[origin] = 1.0

    def integrand(es: np.ndarray) -> np.ndarray:
        cols = np.empty((es.size, idx.size))
        for i, e_val in enumerate(es):
            t_mat = h_mat - (e_val + 1j * z_off) * np.eye(n_sites)
            lu, piv = lu_factor(t_mat, check_finite=False)
            g0 = lu_solve((lu, piv), e0, check_finite=False)
            cols[i] = np.abs(g0[idx]) ** 2
        return cols

    m = int(panels)
    solves = 0
    prev = None
    spread = math.inf
    budget_hit = False
    while True:
        es = np.linspace(lo, hi, m + 1)
        vals = integrand(es)
        solves += es.size
        cur = _simpson(vals, (hi - lo) / m)
        if prev is not None:
            spread = float(np.max(np.abs(cur - prev)
                                  / np.maximum(1e-300, np.abs(cur))))
            if spread <= rtol:
                prev = cur
                break
        prev = cur
        if solves + 2 * m + 1 > solve_budget:
            budget_hit = True
            break
        m *= 2

    alpha = model.hopping.alpha
    rho = model.hopping.rho
    dist_n = np.max(np.abs(targets), axis=1).astype(float)
    tail = tail_pref * np.exp(-1.8 * alpha * np.log1p(dist_n) ** rho)
    return GreenMomentBound(mode, t, targets, lhs, pref * prev, tail,
                            solves, budget_hit, spread)


# ---------------------------------------------------------------------------
# off-axis Green decay past the onset radius


@dataclass(frozen=True)
class OffAxisEntry:
    site: tuple
    dist: float
    log_green: float
    log_bound: float
    regular_ok: bool
    containment_ok: bool
    realized_pad: int


@dataclass(frozen=True)
class OffAxisReport:
    s: int
    t: float
    onset: float
    bracket: tuple
    entries: tuple
    fit: DecayFit

    @property
    def holds(self) -> bool:
        return (self.fit.violations == 0
                and all(e.regular_ok and e.containment_ok
                        for e in self.entries))


def offaxis_green_decay(run: MsaRun, s: int, energy: float, t: float,
                        targets) -> OffAxisReport:
    """Decay of ``T^{-1}(E + i/t)(0, n)`` past the onset radius.

    Validates the time bracket ``delta_s^3 <= 1/t < min(delta_{s-1}^3,
    beta)`` in log form, builds around every target an insulating set by
    regular deformation of ``Lambda_{||n||/5}(n)`` against the tracked block
    stack (checking regularity and the containment sandwich), then tests
    ``|G(0, n)| < exp(-(3/4) alpha_s log^rho(1+||n||))`` for every target at
    distance beyond ``exp((log t)^(2/(1+rho')))``.
    """
    sched = run.schedule
    model = run.model
    pot = model.potential
    if not (pot.a - 2.0 * pot.beta <= energy <= pot.b + 2.0 * pot.beta):
        raise BracketViolated(
            f"energy {energy:g} outside the padded spectral range")
    if s < 1 or s > sched.s_max:
        raise ValueError(f"scale {s} is outside the schedule")
    log_inv_t = -math.log(t)
    lo = 3.0 * sched.log_delta[s]
    hi = min(3.0 * sched.log_delta[s - 1], math.log(pot.beta))
    if not (lo <= log_inv_t < hi):
        raise BracketViolated(
            f"1/t = {1.0 / t:.3e} outside [delta_s^3, min(delta_(s-1)^3, "
            f"beta)) = [{math.exp(lo):.3e}, {math.exp(hi):.3e})")
    onset = math.exp(math.log(t) ** (2.0 / (1.0 + sched.rho_prime)))

    window = run.window
    sites = window.sites
    t_mat = assemble_t_matrix(pot, model.hopping, model.frequency.array(),
                              model.eps, sites.astype(float), run.theta,
                              complex(energy, 1.0 / t))
    lu, piv = lu_factor(t_mat, check_finite=False)
    origin = np.flatnonzero(np.all(sites == 0, axis=1))
    if origin.size != 1:
        raise PreconditionViolated("run window must contain the origin")
    e0 = np.zeros(sites.shape[0], dtype=complex)
    e0[int(origin[0])] = 1.0
    g0 = lu_solve((lu, piv), e0, check_finite=False)
    site_map = {tuple(r.tolist()): i for i, r in enumerate(sites)}

    levels = deformation_levels(run, s)
    alpha_s = sched.alpha_seq[s]
    entries = []
    dists, logs = [], []
    for row in np.atleast_2d(np.asarray(targets, dtype=np.int64)):
        key = tuple(int(v) for v in row)
        if key not in site_map:
            raise KeyError(f"target {key} lies outside the window")
        dist = float(np.max(np.abs(row)))
        if dist < onset:
            raise PreconditionViolated(
                f"target {key} at distance {dist:g} is inside the onset "
                f"radius {onset:.4g}")
        seed = box_around(row.astype(float), dist / 5.0)
        o_n, rep = regular_deformation(seed, levels)
        regular = is_regular(o_n, levels)
        outer = box_around(row.astype(float), dist / 5.0 + rep.realized_pad)
        contained = (set_contains(o_n, seed.sites)
                     and set_contains(outer.sites, o_n))
        val = abs(complex(g0[site_map[key]]))
        log_g = math.log(val) if val > 0 else -math.inf
        log_b = 0.75 * float(log_decay_envelope(alpha_s, sched.rho, dist))
        entries.append(OffAxisEntry(key, dist, log_g, log_b, regular,
                                    contained, rep.realized_pad))
        dists.append(dist)
        logs.append(log_g)

    idx = [site_map[e.site] for e in entries]
    sub = np.zeros((1, len(idx)), dtype=complex)
    sub[0, :] = g0[idx]
    pair_sites = np.concatenate([np.zeros((1, sites.shape[1])),
                                 np.asarray([e.site for e in entries],
                                            dtype=float)])
    g_pad = np.zeros((pair_sites.shape[0], pair_sites.shape[0]),
                     dtype=complex)
    g_pad[0, 1:] = g0[idx]
    g_pad[1:, 0] = g0[idx]
    fit = decay_scan(g_pad, pair_sites, 0.75 * alpha_s, sched.rho,
                     threshold=max(0.0, onset - 1.0))
    return OffAxisReport(s, t, onset, (math.exp(lo), math.exp(hi)),
                         tuple(entries), fit)


# ---------------------------------------------------------------------------
# long-time moment ceiling


@dataclass(frozen=True)
class MomentCeilingReport:
    p: float
    t0: float
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    averaged: bool
    boundary_mass_max: float

    @property
    def holds(self) -> bool:
        return bool(np.all(self.values <= self.bounds))


def moment_ceiling_check(ev: EvolutionData, p: float, rho_prime: float,
                         delta0: float, beta: float, times, *,
                         averaged: bool = False) -> MomentCeilingReport:
    """Check ``moment_p <= 2^p exp(p (log t)^(2/(1+rho')))`` past ``T_0``.

    ``T_0 = max(beta^-1, delta_0^-3)``.  Works for both instantaneous and
    Abel-averaged moments; the supplied times must all sit at or beyond
    ``T_0``.
    """
    t0 = max(1.0 / beta, delta0 ** -3.0)
    times = np.asarray(times, dtype=float)
    if np.any(times < t0):
        raise PreconditionViolated(
            f"all probe times must be >= T_0 = {t0:g}")
    vals = np.empty_like(times)
    edge = 0.0
    for i, t in enumerate(times):
        if averaged:
            vals[i] = time_avg_moment(ev, float(t), p).value
        else:
            mv = moment_p(ev, float(t), p)
            vals[i] = mv.value
            edge = max(edge, mv.boundary_mass)
    bounds = 2.0 ** p * np.exp(p * np.log(times) ** (2.0 / (1.0 + rho_prime)))
    return MomentCeilingReport(float(p), t0, times, vals, bounds,
                               bool(averaged), edge)


# ---------------------------------------------------------------------------
# localization profiles and arithmetic phases


@dataclass(frozen=True)
class EigenProfile:
    eigenvalue: float
    center: tuple
    fitted_rate: float
    goodness: float
    support: int


def localization_profile(ev: EvolutionData, rho: float, *,
                         floor: float = 1e-14) -> tuple:
    """Per-eigenvector decay rates ``|psi| ~ exp(-c log^rho(1+dist))``.

    Returns one profile per eigenvector: its peak site, the least-squares
    rate ``c`` of ``-log|psi|`` against ``log^rho(1 + dist-from-peak)``, and
    the regression goodness (1 minus residual share).  Localized spectra
    show rates clustered near the hopping envelope rate.
    """
    profiles = []
    sites = ev.sites.astype(float)
    for j in range(ev.eigvals.size):
        psi = np.abs(ev.eigvecs[:, j])
        peak = int(np.argmax(psi))
        dist = pairwise_sup_dist(sites, sites[peak][None, :])[:, 0]
        live = psi > floor
        x = np.log1p(dist[live]) ** rho
        y = -np.log(psi[live])
        if x.size < 3 or float(np.max(x)) == 0.0:
            profiles.append(EigenProfile(float(ev.eigvals[j]),
                                         tuple(ev.sites[peak].tolist()),
                                         math.nan, 0.0, int(live.sum())))
            continue
        a_mat = np.stack([x, np.ones_like(x)], axis=1)
        coef, res, _, _ = np.linalg.lstsq(a_mat, y, rcond=None)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        good = 1.0 - float(res[0]) / ss_tot if res.size and ss_tot > 0 \
            else 0.0
        profiles.append(EigenProfile(float(ev.eigvals[j]),
                                     tuple(ev.sites[peak].tolist()),
                                     float(coef[0]), good, int(live.sum())))
    return tuple(profiles)


@dataclass(frozen=True)
class ArithmeticReport:
    n_max: int
    tau: float
    violations: tuple
    worst_margin: float

    @property
    def count(self) -> int:
        return len(self.violations)


def arithmetic_phase_test(theta: float, freq, n_max: int,
                          tau: float | None = None) -> ArithmeticReport:
    """Exhaustive scan for doubled-phase resonances ``||2 theta + n.omega||``.

    A site violates when the doubled phase beats ``||n||^-tau``; for the
    zero phase with the golden frequency and tau = 2 exactly the first two
    integers violate, which is the classic arithmetic obstruction profile.
    """
    omega = freq.array() if hasattr(freq, "array") else \
        np.atleast_1d(np.asarray(freq, dtype=float))
    tau = float(tau if tau is not None else getattr(freq, "tau", 2.0))
    d = omega.size
    if d == 1:
        sites = np.arange(1, n_max + 1, dtype=np.int64)[:, None]
    else:
        sites = box_around(np.zeros(d), n_max).sites
        sites = sites[np.max(np.abs(sites), axis=1) > 0]
    from .torus import torus_norm as _tn

    norms = np.max(np.abs(sites), axis=1).astype(float)
    resid = _tn(2.0 * theta + sites @ omega)
    margin = resid * norms ** tau
    bad = margin < 1.0
    order = np.lexsort((norms[bad],))
    viol = tuple(tuple(int(v) for v in row)
                 for row in sites[bad][order])
    return ArithmeticReport(int(n_max), tau, viol, float(np.min(margin)))
