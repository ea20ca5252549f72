"""Quantum dynamics on finite windows: moments, averages, and their bounds.

Everything runs through one eigendecomposition of the (Hermitian) window
restriction.  Wave-packet amplitudes, transport moments, Abel-type time
averages and the energy integral of ``|G(E + i/t)(n, 0)|^2`` are exact
spectral sums; the last is a closed form by partial fractions, so no
resolvent is solved and nothing is integrated numerically.
The moment-to-Green bounds and the long-time moment ceiling mirror the
estimates the localization machinery exports, with every constant spelled
out so the checks are reproducible inequalities rather than fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    BracketViolated,
    NotHermitian,
    PreconditionViolated,
    SpectrumEscapes,
)
from .lattice import (
    LatticeBox,
    as_sites,
    box_around,
    is_regular,
    pairwise_sup_dist,
    regular_deformation,
    set_contains,
    site_index,
)
from .model import (
    FrequencyVector,
    ModelSpec,
    assemble_t_matrix,
    is_hermitian,
)
from .msa import MsaRun, deformation_levels
from .torus import torus_norm

# the eigenvector modulus at or below which a profile fit drops a site
PROFILE_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# evolution


@dataclass(frozen=True)
class EvolutionData:
    """Eigendecomposition of a window restriction, reused by every moment.

    Derived on first use: the origin's row ``origin_idx``, the eigenvector
    overlaps ``weights0`` with it (an amplitude row is ``V (exp(-i w t) *
    weights0)``) and the sites' sup-distances ``dists`` from it.
    """

    sites: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @cached_property
    def origin_idx(self) -> int:
        origin = np.flatnonzero(np.all(self.sites == 0, axis=1))
        if origin.size != 1:
            raise PreconditionViolated("window must contain the origin site")
        return int(origin[0])

    @cached_property
    def weights0(self) -> np.ndarray:
        return self.eigvecs[self.origin_idx, :].conj()

    @cached_property
    def dists(self) -> np.ndarray:
        return np.max(np.abs(self.sites), axis=1).astype(float)


def evolve_amplitudes(model: ModelSpec, window: LatticeBox, theta
                      ) -> EvolutionData:
    """Diagonalize ``H(theta)`` on a window around an origin site."""
    h = assemble_t_matrix(model, window.sites, complex(theta))
    if not is_hermitian(h):
        raise NotHermitian("dynamics needs an exactly Hermitian H(theta)")
    ev = EvolutionData(window.sites, *np.linalg.eigh(h))
    _ = ev.origin_idx  # a window without the origin raises here
    return ev


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


def moment_p(ev: EvolutionData, t: float, p: float) -> MomentValue:
    """p-th transport moment ``sum (1+||n||)^p |a_n(t)|^2``.

    ``boundary_mass`` is the mass on the outermost site layer; once it is
    not small the window, not the operator, caps the moment.
    """
    amp2 = np.abs(amplitudes(ev, t)) ** 2
    total = float(np.sum(amp2))
    edge = float(np.sum(amp2[ev.dists >= ev.dists.max()]))
    value = float(np.sum((1.0 + ev.dists) ** p * amp2))
    return MomentValue(value, float(p), float(t), abs(total - 1.0), edge)


def _abel_probabilities(ev: EvolutionData, horizon: float,
                        idx=slice(None)) -> np.ndarray:
    """Abel average ``(2/T) int exp(-2t/T) |a_n(t)|^2 dt`` at the sites
    ``idx`` (all sites by default).

    Exact: each oscillating pair ``exp(-i (w_j - w_k) t)`` averages to
    ``K_jk = 1/(1 + i x_jk)`` with ``x_jk = (w_j - w_k) T/2``, so with
    ``b = V diag(weights0)`` the average is ``Re sum_jk b_nj K_jk
    conj(b_nk)``, one matrix product over the requested rows of ``b``.
    For real ``b`` only ``Re K = 1/(1 + x^2)`` survives, and the product
    runs in real arithmetic.
    """
    big_t = float(horizon)
    if big_t <= 0:
        raise ValueError("averaging horizon must be positive")
    b = ev.eigvecs[idx] * ev.weights0[None, :]
    x = 0.5 * big_t * (ev.eigvals[:, None] - ev.eigvals[None, :])
    if np.isrealobj(b):
        return np.sum(b * (b @ (1.0 / (1.0 + x * x))), axis=1)
    return np.real(np.sum(b * (b.conj() @ (1.0 / (1.0 + 1j * x)).T),
                          axis=1))


@dataclass(frozen=True)
class TimeAvgMoment:
    value: float
    p: float
    horizon: float
    boundary_mass: float
    # the average is an exact spectral sum: no quadrature nodes
    nodes_used: ClassVar[int] = 0


def time_avg_moment(ev: EvolutionData, horizon: float,
                    p: float) -> TimeAvgMoment:
    """Abel-averaged moment ``(2/T) int exp(-2t/T) moment_p(t) dt``.

    The moment weights applied to :func:`_abel_probabilities`;
    ``boundary_mass`` is the averaged mass on the outermost site layer.
    """
    prob = _abel_probabilities(ev, horizon)
    edge = float(np.sum(prob[ev.dists >= ev.dists.max()]))
    value = float(np.sum((1.0 + ev.dists) ** p * prob))
    return TimeAvgMoment(value, float(p), float(horizon), edge)


# ---------------------------------------------------------------------------
# moment vs Green's function


@dataclass(frozen=True)
class GreenMomentBound:
    mode: str
    t: float
    targets: np.ndarray
    lhs: np.ndarray
    rhs_integral: np.ndarray
    rhs_tail: np.ndarray
    # the energy integral is a closed form: no resolvent solves, no budget
    solves: ClassVar[int] = 0
    budget_hit: ClassVar[bool] = False

    @property
    def holds(self) -> bool:
        return bool(np.all(self.lhs <= self.rhs_integral + self.rhs_tail
                           + 1e-12))


def green_moment_bound(model: ModelSpec, ev: EvolutionData, t: float,
                       targets, *, mode: str = "fixed") -> GreenMomentBound:
    """Check the wave-packet vs Green's-function inequality site by site.

    ``fixed`` bounds ``|a_n(t)|^2`` by ``(b-a+4 beta) e^2 / (2 pi^2)`` times
    the energy integral of ``|G(E + i/t)(n, 0)|^2`` over the beta-padded
    range ``[lo, hi]`` plus an explicit tail.  ``avg`` bounds the Abel
    average with prefactors ``1/(pi T)`` and ``4/(beta pi T)``, the
    resolvent offset being ``1/T``.

    The energy integral is exact, by partial fractions over the eigenpairs
    of ``ev``: with ``c_j = V[n, j] conj(V[0, j])``, ``p_j = w_j - i/t`` and
    ``q_k = w_k + i/t`` it is ``sum_jk c_j conj(c_k) (L(q_k) - L(p_j)) /
    (q_k - p_j)``, where ``L(w) = log(w - hi) - log(w - lo)``.  The poles sit
    off the real axis, so the principal logs never cross their cut and
    ``q_k - p_j`` never vanishes; there is no quadrature to converge.
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

    targets = as_sites(np.asarray(targets, dtype=np.int64), model.dim)
    idx = site_index(ev.sites, targets)
    rows = ev.eigvecs[idx] * ev.weights0[None, :]

    if mode == "fixed":
        amp = amplitudes(ev, t)[idx]
        lhs = np.abs(amp) ** 2
        pref = (pot.b - pot.a + 4.0 * pot.beta) * math.e ** 2 \
            / (2.0 * math.pi ** 2)
        tail_pref = (2.0 * math.e ** 2 / (pot.beta ** 2 * math.pi ** 2)) \
            * (pot.b - pot.a + 6.0 * pot.beta + 2.0 / t) ** 2
    elif mode == "avg":
        lhs = _abel_probabilities(ev, t, idx)
        pref = 1.0 / (t * math.pi)
        tail_pref = 4.0 / (pot.beta * t * math.pi)
    else:
        raise ValueError(f"unknown bound mode {mode!r}")

    p = ev.eigvals - 1j / t
    q = ev.eigvals + 1j / t

    def log_ratio(w: np.ndarray) -> np.ndarray:
        return np.log(w - hi) - np.log(w - lo)

    kern = ((log_ratio(q)[None, :] - log_ratio(p)[:, None])
            / (q[None, :] - p[:, None]))
    integral = np.real(np.einsum("nj,jk,nk->n", rows, kern, rows.conj()))

    alpha = model.hopping.alpha
    rho = model.hopping.rho
    dist_n = np.max(np.abs(targets), axis=1).astype(float)
    tail = tail_pref * np.exp(-1.8 * alpha * np.log1p(dist_n) ** rho)
    return GreenMomentBound(mode, t, targets, lhs, pref * integral, tail)


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
    violations: int

    @property
    def holds(self) -> bool:
        return (self.violations == 0
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
    distance beyond ``exp((log t)^(2/(1+rho')))``; ``violations`` counts
    the targets whose ``log|G|`` exceeds the bound by more than 1e-9.
    The origin and the targets are checked before assembly; the origin's
    column takes one in-place LU of ``T = H - (E + i/t)``.
    """
    sched = run.schedule
    model = run.model
    pot = model.potential
    if not (pot.a - 2.0 * pot.beta <= energy <= pot.b + 2.0 * pot.beta):
        raise BracketViolated(
            f"energy {energy:g} outside the padded spectral range")
    if s < 1 or s > sched.s_max:
        raise ValueError(f"scale {s} is outside the schedule")
    if not t > 0:
        raise BracketViolated(f"time t = {t:g} is not positive")
    log_inv_t = -math.log(t)
    lo = 3.0 * sched.log_delta[s]
    hi = min(3.0 * sched.log_delta[s - 1], math.log(pot.beta))
    if not (lo <= log_inv_t < hi):
        raise BracketViolated(
            f"1/t = {1.0 / t:.3e} outside [delta_s^3, min(delta_(s-1)^3, "
            f"beta)) = [{math.exp(lo):.3e}, {math.exp(hi):.3e})")
    onset = math.exp(math.log(t) ** (2.0 / (1.0 + sched.rho_prime)))

    sites = run.window.sites
    origin = np.flatnonzero(np.all(sites == 0, axis=1))
    if origin.size != 1:
        raise PreconditionViolated("run window must contain the origin")
    targets = as_sites(np.asarray(targets, dtype=np.int64), model.dim)
    idx = site_index(sites, targets)
    dists = np.max(np.abs(targets), axis=1).astype(float)
    if np.any(dists < onset):
        i = int(np.argmax(dists < onset))
        raise PreconditionViolated(
            f"target {tuple(targets[i].tolist())} at distance {dists[i]:g} "
            f"is inside the onset radius {onset:.4g}")
    t_mat = assemble_t_matrix(model, sites, run.theta,
                              complex(energy, 1.0 / t))
    e0 = np.zeros(sites.shape[0], dtype=complex)
    e0[int(origin[0])] = 1.0
    # t_mat.T is t_mat in Fortran order, so LAPACK factors it in place
    g0 = lu_solve(lu_factor(t_mat.T, overwrite_a=True, check_finite=False),
                  e0, trans=1, check_finite=False)

    levels = deformation_levels(run, s)
    alpha_s = sched.alpha_seq[s]
    entries = []
    for row, i, dist in zip(targets, idx, dists.tolist()):
        key = tuple(int(v) for v in row)
        seed = box_around(row.astype(float), dist / 5.0)
        o_n, rep = regular_deformation(seed, levels)
        regular = is_regular(o_n, levels)
        outer = box_around(row.astype(float), dist / 5.0 + rep.realized_pad)
        contained = (set_contains(o_n, seed.sites)
                     and set_contains(outer.sites, o_n))
        val = abs(complex(g0[i]))
        log_g = math.log(val) if val > 0 else -math.inf
        log_b = 0.75 * float(-alpha_s * np.log1p(dist) ** sched.rho)
        entries.append(OffAxisEntry(key, dist, log_g, log_b, regular,
                                    contained, rep.realized_pad))

    violations = sum(e.log_green > e.log_bound + 1e-9 for e in entries)
    return OffAxisReport(s, t, onset, (math.exp(lo), math.exp(hi)),
                         tuple(entries), violations)


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


def ceiling_onset(delta0: float, beta: float) -> float:
    """``T_0 = max(beta^-1, delta_0^-3)``, the time the ceiling starts at."""
    return max(1.0 / beta, delta0 ** -3.0)


def moment_ceiling(t: float, p: float, rho_prime: float) -> float:
    """The ceiling ``2^p exp(p (log t)^(2/(1+rho')))`` on ``moment_p`` at
    a time ``t > 1``."""
    return 2.0 ** p * math.exp(p * math.log(t) ** (2.0 / (1.0 + rho_prime)))


def moment_ceiling_check(ev: EvolutionData, p: float, rho_prime: float,
                         delta0: float, beta: float, times, *,
                         averaged: bool = False) -> MomentCeilingReport:
    """Check ``moment_p`` against ``moment_ceiling`` past ``ceiling_onset``.

    This is the paper's sub-polynomial upper bound on quantum dynamics for
    every phase, and acceptance criterion 10.  Works for both instantaneous
    and Abel-averaged moments; the supplied times must all sit at or beyond
    ``T_0``.  ``boundary_mass_max`` is the largest outer-layer mass, of the
    same (instantaneous or averaged) distribution, over the times.
    """
    t0 = ceiling_onset(delta0, beta)
    times = np.asarray(times, dtype=float)
    if np.any(times < t0):
        raise PreconditionViolated(
            f"all probe times must be >= T_0 = {t0:g}")
    moment = time_avg_moment if averaged else moment_p
    mvs = [moment(ev, float(t), p) for t in times]
    vals = np.array([mv.value for mv in mvs])
    bounds = np.array([moment_ceiling(float(t), p, rho_prime) for t in times])
    edge = max((mv.boundary_mass for mv in mvs), default=0.0)
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


def localization_profile(ev: EvolutionData, rho: float) -> tuple:
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
        live = psi > PROFILE_FLOOR
        x = np.log1p(dist[live]) ** rho
        y = -np.log(psi[live])
        rate, good = math.nan, 0.0
        if x.size >= 3 and float(np.max(x)) != 0.0:
            a_mat = np.stack([x, np.ones_like(x)], axis=1)
            coef, res, _, _ = np.linalg.lstsq(a_mat, y, rcond=None)
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            rate = float(coef[0])
            if res.size and ss_tot > 0:
                good = 1.0 - float(res[0]) / ss_tot
        profiles.append(EigenProfile(float(ev.eigvals[j]),
                                     tuple(ev.sites[peak].tolist()),
                                     rate, good, int(live.sum())))
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


def arithmetic_phase_test(theta: float, freq: FrequencyVector,
                          n_max: int) -> ArithmeticReport:
    """Exhaustive scan for doubled-phase resonances ``||2 theta + n.omega||``.

    Every nonzero ``n`` in the box of radius ``n_max``, of either sign, is
    a violation when the doubled phase beats ``||n||^-tau`` (the
    frequency's ``tau``): for theta = 0, golden omega and tau = 2 exactly
    +-1 and +-2, the classic obstruction.  It scans the arithmetic
    condition on theta under which the paper proves spectral localization.
    """
    sites = box_around(np.zeros(freq.dim), n_max).sites
    sites = sites[np.max(np.abs(sites), axis=1) > 0]
    norms = np.max(np.abs(sites), axis=1).astype(float)
    margin = (torus_norm(2.0 * theta + sites @ freq.array())
              * norms ** freq.tau)
    bad = margin < 1.0
    order = np.lexsort((norms[bad],))
    viol = tuple(tuple(int(v) for v in row)
                 for row in sites[bad][order])
    return ArithmeticReport(int(n_max), float(freq.tau), viol,
                            float(np.min(margin)))
