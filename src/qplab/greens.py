"""Finite-volume Green's functions and the matrix estimates behind them.

The multi-scale induction consumes a small toolbox of exact linear-algebra
facts: Cramer/Hadamard bounds on adjugates, determinant perturbation, the
Schur complement determinant identity with its norm sandwich, a
Combes-Thomas bound tailored to log-power (quasi-metric) decay, and Neumann
series inversion of diagonally dominant restrictions.  Each fact gets a
checker that computes both sides numerically, so the test suite can hammer
them on random instances while the induction code calls the same paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import (
    ASingular,
    AsymmetricBox,
    DenominatorNonpositive,
    NonConvergence,
    NotContractive,
    NotHermitian,
    Singular,
)
from .lattice import pairwise_sup_dist
from .model import assemble_t_matrix, is_hermitian, log_decay_envelope

LOG2 = float(np.log(2.0))
# fixed gates: the relative LU pivot and identity residual of green_solve,
# the Neumann stopping term, the relative gap of det T(z) to det T(-z) and
# the log excess at which a decay entry violates its envelope
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-8
NEUMANN_TOL = 1e-14
EVENNESS_TOL = 1e-8
DECAY_LOG_TOL = 1e-9


def two_norm(a: np.ndarray) -> float:
    """Spectral norm (largest singular value, by SVD)."""
    a = np.asarray(a)
    if min(a.shape) == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class GreenMatrix:
    """An inverse ``G = T^{-1}`` with its certification data."""

    matrix: np.ndarray
    op_norm: float
    residual: float
    pivot_min: float


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of ``h`` if ``model.is_hermitian(h)``, else None."""
    return np.linalg.eigvalsh(h) if is_hermitian(h) else None


def green_solve(t: np.ndarray, eigenvalues=None) -> GreenMatrix:
    """Invert a dense restriction, refusing numerically singular input.

    Raises Singular when an LU pivot falls below ``PIVOT_RTOL`` times the
    largest entry, or when the identity residual of the computed inverse
    exceeds the conditioning-aware tolerance.  The inverse is formed in
    place from the checked LU (LAPACK ``getri``), so the peak memory is
    that of ``t``, its LU and the residual product.

    ``op_norm`` is the exact ``||T^{-1}|| = 1 / sigma_min(T)``.  For a
    normal ``T`` the singular values are the moduli of its eigenvalues:
    pass them as ``eigenvalues`` when they are known (the green sweep
    shifts one spectrum of ``H(theta)`` by each energy), or let an exactly
    Hermitian ``T`` get them from ``hermitian_eigenvalues``.  Any other
    ``T`` takes the SVD.
    """
    t = np.asarray(t)
    n = t.shape[0]
    if n == 0:
        raise Singular("cannot invert an empty restriction")
    scale = float(np.max(np.abs(t)))
    if not np.isfinite(scale) or scale == 0.0:
        raise Singular("matrix entries are zero or non-finite")
    if eigenvalues is None:
        eigenvalues = hermitian_eigenvalues(t)
    if eigenvalues is not None:
        sigma_min = float(np.min(np.abs(eigenvalues)))
    else:
        sigma_min = float(np.linalg.svd(t, compute_uv=False)[-1])
    lu, piv = lu_factor(t)
    pivot_min = float(np.min(np.abs(np.diag(lu))))
    if not np.isfinite(pivot_min) or pivot_min < PIVOT_RTOL * scale:
        raise Singular(
            f"pivot {pivot_min:.3e} below threshold {PIVOT_RTOL * scale:.3e}")
    getri, getri_lwork = get_lapack_funcs(("getri", "getri_lwork"), (lu,))
    lwork, _ = getri_lwork(n)
    g, info = getri(lu, piv, lwork=int(np.real(lwork)), overwrite_lu=True)
    if info != 0:
        raise Singular(f"getri failed (info {info})")
    r = t @ g
    r[np.diag_indices(n)] -= 1.0
    residual = float(np.linalg.norm(r))
    gate = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(t))
                               * float(np.linalg.norm(g)))
    if residual > gate:
        raise Singular(
            f"identity residual {residual:.3e} exceeds gate {gate:.3e}")
    return GreenMatrix(g, 1.0 / sigma_min, residual, pivot_min)


# ---------------------------------------------------------------------------
# Schur complement


@dataclass(frozen=True)
class SchurData:
    s_matrix: np.ndarray
    inner_idx: np.ndarray
    keep_idx: np.ndarray
    a_inverse: np.ndarray
    det_defect: float


def schur_complement(m: np.ndarray, inner_idx, *,
                     check_det: bool = True) -> SchurData:
    """Eliminate the block indexed by ``inner_idx``; verify det M = det A det S.

    The determinant identity is checked in log form (slogdet) whenever both
    sides are finite; its relative defect is recorded on the result.
    """
    m = np.asarray(m)
    n = m.shape[0]
    inner = np.asarray(inner_idx, dtype=np.int64).ravel()
    mask = np.zeros(n, dtype=bool)
    mask[inner] = True
    keep = np.flatnonzero(~mask)
    inner = np.flatnonzero(mask)
    if inner.size == 0 or keep.size == 0:
        raise ValueError("both blocks of the partition must be non-empty")

    a = m[np.ix_(inner, inner)]
    b = m[np.ix_(inner, keep)]
    c = m[np.ix_(keep, inner)]
    d = m[np.ix_(keep, keep)]
    try:
        lu, piv = lu_factor(a)
    except Exception as exc:
        raise ASingular(f"eliminated block is singular: {exc}") from exc
    pivot_min = float(np.min(np.abs(np.diag(lu))))
    if not np.isfinite(pivot_min) or pivot_min < 1e-14 * max(
            1e-300, float(np.max(np.abs(a)))):
        raise ASingular(
            f"eliminated block pivot {pivot_min:.3e} is effectively zero")
    a_inv = lu_solve((lu, piv), np.eye(inner.size, dtype=m.dtype))
    s = d - c @ (a_inv @ b)

    defect = 0.0
    if check_det:
        sign_m, log_m = np.linalg.slogdet(m)
        sign_a, log_a = np.linalg.slogdet(a)
        sign_s, log_s = np.linalg.slogdet(s)
        if np.isfinite(log_m) and np.isfinite(log_a) and np.isfinite(log_s):
            lhs = sign_m
            rhs = sign_a * sign_s * np.exp(
                np.clip(log_a + log_s - log_m, -700.0, 700.0))
            defect = float(abs(lhs - rhs))
    return SchurData(s, inner, keep, a_inv, defect)


@dataclass(frozen=True)
class SandwichReport:
    s_inv_norm: float
    m_inv_norm: float
    a_inv_norm: float
    b_norm: float
    c_norm: float
    upper_bound: float
    upper_applicable: bool
    lower_holds: bool
    upper_holds: bool


def sandwich_check(m: np.ndarray, inner_idx) -> SandwichReport:
    """Check ``||S^{-1}|| <= ||M^{-1}|| < 4(1+||A^{-1}||)^2 (1+||S^{-1}||)``.

    The lower inequality is unconditional (S^{-1} is a sub-block of M^{-1});
    the upper one requires the off-diagonal blocks to be contractions, which
    is reported rather than enforced.
    """
    data = schur_complement(m, inner_idx, check_det=False)
    m = np.asarray(m)
    b = m[np.ix_(data.inner_idx, data.keep_idx)]
    c = m[np.ix_(data.keep_idx, data.inner_idx)]
    s_inv = two_norm(np.linalg.inv(data.s_matrix))
    m_inv = two_norm(np.linalg.inv(m))
    a_inv = two_norm(data.a_inverse)
    b_n, c_n = two_norm(b), two_norm(c)
    upper = 4.0 * (1.0 + a_inv) ** 2 * (1.0 + s_inv)
    applicable = b_n <= 1.0 + 1e-12 and c_n <= 1.0 + 1e-12
    tol = 1e-9 * max(1.0, m_inv)
    return SandwichReport(s_inv, m_inv, a_inv, b_n, c_n, upper, applicable,
                          s_inv <= m_inv + tol,
                          (not applicable) or m_inv < upper + tol)


# ---------------------------------------------------------------------------
# Hadamard adjugate and determinant perturbation


def adjugate(m: np.ndarray) -> np.ndarray:
    """Exact-ish adjugate by cofactor expansion; intended for small n."""
    m = np.asarray(m)
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=m.dtype)
    adj = np.empty_like(m)
    rows = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = m[np.ix_(rows != j, rows != i)]
            adj[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


@dataclass(frozen=True)
class HadamardReport:
    entry_bound: float
    norm_bound: float
    row_sum: float
    exact_max: float | None
    holds: bool


def hadamard_adjugate_check(m: np.ndarray) -> HadamardReport:
    """Adjugate entries are bounded by (max row l1 sum)^(n-1).

    For n up to 8 the adjugate is computed exactly and compared; beyond
    that only the bounds are reported (the inequality is a theorem, the
    check exists to catch implementation drift).
    """
    m = np.asarray(m)
    n = m.shape[0]
    row = float(np.max(np.sum(np.abs(m), axis=1)))
    entry_bound = row ** (n - 1)
    norm_bound = n * entry_bound
    exact = None
    holds = True
    if n <= 8:
        exact = float(np.max(np.abs(adjugate(m))))
        holds = exact <= entry_bound * (1.0 + 1e-9) + 1e-300
    return HadamardReport(entry_bound, norm_bound, row, exact, holds)


@dataclass(frozen=True)
class DetPerturbReport:
    lhs: float
    bound: float
    m_row: float
    eps_row: float
    holds: bool


def det_perturbation_check(a: np.ndarray, b: np.ndarray) -> DetPerturbReport:
    """``|det(A+B) - det A| <= eps n^2 (M + eps)^(n-1)`` with row-sum M, eps."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    m_row = float(np.max(np.sum(np.abs(a), axis=1)))
    eps_row = float(np.max(np.sum(np.abs(b), axis=1)))
    lhs = float(abs(np.linalg.det(a + b) - np.linalg.det(a)))
    bound = eps_row * n ** 2 * (m_row + eps_row) ** (n - 1)
    return DetPerturbReport(lhs, bound, m_row, eps_row,
                            lhs <= bound * (1.0 + 1e-9) + 1e-300)


# ---------------------------------------------------------------------------
# Combes-Thomas


@dataclass(frozen=True)
class CombesThomasReport:
    s_lambda: float
    dist_to_spectrum: float
    denominator: float
    max_log_excess: float
    violations: int
    n_pairs: int

    @property
    def holds(self) -> bool:
        return self.violations == 0


def combes_thomas_check(h: np.ndarray, sites: np.ndarray, z: complex,
                        lam: float, rho: float, c_rho: float
                        ) -> CombesThomasReport:
    """Check the off-spectrum Green's function bound with log-power weight.

    For self-adjoint ``H`` (``model.is_hermitian``) and ``dist(z, spec) >
    2 exp(lam C(rho) log^rho 2) S_lam`` every entry of ``(H - z)^{-1}`` must
    obey ``exp(-lam log^rho(1+dist)) / (D - 2 exp(lam C(rho) log^rho 2)
    S_lam)``.
    ``c_rho`` is the certified quasi-metric constant.
    """
    h = np.asarray(h)
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if not is_hermitian(h):
        raise NotHermitian("Combes-Thomas needs an exactly Hermitian H")
    dist = pairwise_sup_dist(sites)
    weight = np.exp(lam * np.log1p(dist) ** rho)
    off = ~np.eye(h.shape[0], dtype=bool)
    s_lam = float(np.max(np.sum(np.abs(h) * weight * off, axis=1)))
    spec, vecs = np.linalg.eigh(h)
    shifted = spec - complex(z)
    d_spec = float(np.min(np.abs(shifted)))
    denom = d_spec - 2.0 * np.exp(lam * c_rho * LOG2 ** rho) * s_lam
    if denom <= 0.0:
        raise DenominatorNonpositive(
            f"spectral gap {d_spec:.3e} does not dominate the weighted "
            f"row sum term {d_spec - denom:.3e}")
    g = (vecs / shifted[None, :]) @ vecs.conj().T
    with np.errstate(divide="ignore"):
        log_excess = (np.log(np.abs(g))
                      + lam * np.log1p(dist) ** rho + np.log(denom))
    bad = log_excess > 1e-9
    return CombesThomasReport(s_lam, d_spec, float(denom),
                              float(np.max(log_excess)),
                              int(np.count_nonzero(bad)), int(bad.size))


# ---------------------------------------------------------------------------
# Neumann series


@dataclass(frozen=True)
class NeumannData:
    matrix: np.ndarray
    terms: int
    contraction: float
    remainder_bound: float
    residual: float


def neumann_inverse(diag, w: np.ndarray, eps: float, *,
                    max_terms: int = 64) -> NeumannData:
    """Invert ``diag + eps W`` by Neumann series around the diagonal.

    Requires ``||eps diag^{-1} W|| < 1``; the returned remainder bound is the
    geometric tail at truncation.  NonConvergence means the term budget ran
    out before the series settled, which for a genuine contraction only
    happens with an unreasonably small budget.
    """
    d = np.asarray(diag, dtype=complex).ravel()
    if float(np.min(np.abs(d))) == 0.0:
        raise Singular("diagonal part has a zero entry")
    k = (w / d[:, None]) * eps
    q = two_norm(k)
    if q >= 1.0:
        raise NotContractive(f"||eps D^-1 W|| = {q:.4f} is not below 1")
    n = d.size
    d_inv = np.diag(1.0 / d)
    term = d_inv.copy()
    total = d_inv.copy()
    terms = 1
    for _ in range(max_terms):
        term = -k @ term
        total += term
        terms += 1
        if float(np.max(np.abs(term))) <= NEUMANN_TOL * max(
                1.0, float(np.max(np.abs(total)))):
            break
    else:
        raise NonConvergence(
            f"Neumann series still moving after {max_terms} terms "
            f"(contraction {q:.4f})")
    remainder = float(np.max(np.abs(1.0 / d))) * q ** terms / (1.0 - q)
    t = np.diag(d) + eps * np.asarray(w)
    residual = float(np.linalg.norm(t @ total - np.eye(n)))
    return NeumannData(total, terms, q, remainder, residual)


# ---------------------------------------------------------------------------
# determinant evenness


@dataclass(frozen=True)
class EvennessReport:
    logabs_plus: float
    logabs_minus: float
    rel_defect: float
    passed: bool


def determinant_evenness_check(model, sites, z: complex,
                               energy=0.0) -> EvennessReport:
    """``det T(z)`` over an origin-symmetric site set is even in ``z``.

    The site set may live on the half-integer lattice (tracking frame).
    Evenness needs a symmetric hopping amplitude and an even potential; any
    Morse-certified potential is even, since the upper Morse bound collapses
    at the antipodal pair otherwise.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    s2 = np.rint(2.0 * sites).astype(np.int64)
    if np.max(np.abs(2.0 * sites - s2)) > 1e-9:
        raise ValueError("sites must lie on the half-integer lattice")
    plus = np.unique(s2, axis=0)
    minus = np.unique(-s2, axis=0)
    if plus.shape != minus.shape or np.any(plus != minus):
        raise AsymmetricBox("site set is not symmetric about the origin")
    det = {}
    for sgn in (1.0, -1.0):
        t = assemble_t_matrix(model, sites, sgn * complex(z), energy)
        sign, logabs = np.linalg.slogdet(t)
        det[sgn] = (complex(sign), float(logabs))
    (s_p, l_p), (s_m, l_m) = det[1.0], det[-1.0]
    rel = float(abs(s_p - s_m * np.exp(np.clip(l_m - l_p, -700.0, 700.0))))
    return EvennessReport(l_p, l_m, rel, rel <= EVENNESS_TOL)


# ---------------------------------------------------------------------------
# decay scans


@dataclass(frozen=True)
class DecayFit:
    alpha_target: float
    fitted_alpha: float
    threshold: float
    n_pairs: int
    violations: int
    worst_pair: tuple | None
    max_log_excess: float

    @property
    def holds(self) -> bool:
        return self.violations == 0


def decay_scan(g: np.ndarray, sites: np.ndarray, alpha: float, rho: float, *,
               threshold: float = 0.0) -> DecayFit:
    """Check ``|G(x,y)| <= exp(-alpha log^rho(1+dist))``.

    Pairs at distance <= ``threshold`` are exempt (the estimates only speak
    past a resonance-sized core).  The fitted rate is the least-squares slope
    of ``-log|G|`` against ``log^rho(1+dist)`` over the scanned pairs, a
    diagnostic rather than a gate.
    """
    g = np.asarray(g)
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    dist = pairwise_sup_dist(sites)
    sel = dist > threshold
    n_pairs = int(np.count_nonzero(sel))
    if n_pairs == 0:
        return DecayFit(alpha, float("nan"), threshold, 0, 0, None,
                        float("-inf"))
    with np.errstate(divide="ignore"):
        log_g = np.log(np.abs(g))
    excess = log_g - log_decay_envelope(alpha, rho, dist)
    excess = np.where(sel, excess, -np.inf)
    bad = excess > DECAY_LOG_TOL
    worst = None
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        worst = (tuple(sites[i].tolist()), tuple(sites[j].tolist()))
    live = sel & np.isfinite(log_g) & (log_g > -690.0)
    if np.count_nonzero(live) >= 2:
        x = np.log1p(dist[live]) ** rho
        y = -log_g[live]
        denom = float(np.sum(x * x))
        fitted = float(np.sum(x * y) / denom) if denom > 0 else float("nan")
    else:
        fitted = float("nan")
    return DecayFit(alpha, fitted, threshold, n_pairs,
                    int(np.count_nonzero(bad)), worst, float(np.max(excess)))
