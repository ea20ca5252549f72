"""Finite-volume Green's functions and the matrix estimates behind them.

The multi-scale induction consumes a small toolbox of exact linear-algebra
facts: Cramer/Hadamard bounds on adjugates, determinant perturbation, the
Schur complement determinant identity with its norm sandwich, and a
Combes-Thomas bound tailored to log-power (quasi-metric) decay.  Each fact
gets a checker that computes both sides numerically, so the test suite can
hammer them on random instances while the induction code calls the same
paths.  The matrix checks take one matrix or a stack ``(..., n, n)`` and
return one value per matrix, so a suite calls each check once per size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

from .errors import (
    ASingular,
    AsymmetricBox,
    DenominatorNonpositive,
    NotHermitian,
    Singular,
)
from .lattice import as_sites, pairwise_sup_dist, symmetric_about_origin
from .model import assemble_t_matrix, is_hermitian

LOG2 = float(np.log(2.0))
# fixed gates: the relative LU pivot and identity residual of green_solve,
# the relative gap of det T(z) to det T(-z) and the log excess at which a
# decay entry violates its envelope
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-8
EVENNESS_TOL = 1e-8
DECAY_LOG_TOL = 1e-9


def two_norm(a: np.ndarray) -> np.ndarray:
    """Spectral norm (largest singular value, by SVD) of each matrix in a
    stack; 0 for an empty matrix."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2])[()]
    return np.linalg.norm(a, 2, axis=(-2, -1))


@dataclass(frozen=True)
class GreenMatrix:
    """A computed inverse of ``T``; ``op_norm`` is a certified upper bound
    on ``||T^{-1}||_2``."""

    matrix: np.ndarray
    op_norm: float
    residual: float
    pivot_min: float


def green_solve(t: np.ndarray) -> GreenMatrix:
    """Invert a dense restriction and certify an upper bound on its norm.

    ``G`` is formed in place from one factorization: Bunch-Kaufman LDL^T
    (LAPACK ``sytrf``, ``sytri``, upper triangle mirrored, so ``G`` is
    exactly symmetric) when ``T`` is real and equals its transpose bit for
    bit, LU (``getri``) otherwise.  Raises Singular when a pivot (the
    smallest singular value of a block of D, or of ``|U_ii|``) falls below
    ``PIVOT_RTOL`` times the largest entry, when the identity residual of
    ``G`` exceeds the conditioning-aware gate, or when a residual bound
    ``Rbar_p`` below is not under 1/2.

    ``op_norm`` bounds ``||T^{-1}||_2`` from above for any approximate
    inverse ``G``.  With ``R = T G - I``, ``T^{-1} = G (I + R)^{-1}``, so
    ``||T^{-1}||_p <= ||G||_p / (1 - Rbar_p)`` for p = 1, inf, and
    ``||.||_2^2 <= ||.||_1 ||.||_inf``.
    ``Rbar_p = ||fl(R)||_p + gamma ||T||_p ||G||_p`` bounds ``||R||_p``:
    gamma bounds the rounding of the product relative to ``|T| |G|``,
    ``gamma_n = nu / (1 - nu)`` (``u = 2^-53``) in real and ``sqrt(2)
    gamma_2n`` in complex arithmetic (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sections 3.5-3.6).  Each norm sum is
    rounded up by ``1 + gamma``, which covers its own summation and the
    subtracted identity, and the bound by 16 ulps, which covers the few
    operations that combine the sums.  ``|R|``, ``|T|`` and ``|G|`` take
    turns in the buffer of ``R``, so the peak memory is that of ``t``,
    ``G`` and ``R``.
    """
    t = np.asarray(t)
    n = t.shape[0]
    if n == 0:
        raise Singular("cannot invert an empty restriction")
    scale = float(np.max(np.abs(t)))
    if not np.isfinite(scale) or scale == 0.0:
        raise Singular("matrix entries are zero or non-finite")
    symmetric = np.isrealobj(t) and np.array_equal(t, t.T)
    if symmetric:
        sytrf, sytri, sytrf_lwork = get_lapack_funcs(
            ("sytrf", "sytri", "sytrf_lwork"), (t,))
        f, piv, _ = sytrf(t, lwork=int(sytrf_lwork(n)[0]))
        # ipiv < 0 marks a 2 x 2 block of D twice; being symmetric, its
        # singular values are its eigenvalues' moduli, |det| over the larger
        d = f.diagonal()
        j = np.flatnonzero(piv < 0)[::2]
        a, b, c = d[j], f[j, j + 1], d[j + 1]
        two = np.abs(a * c - b * b) / (np.abs(a + c) / 2.0
                                       + np.hypot((a - c) / 2.0, b))
        pivot_min = float(np.concatenate([np.abs(d[piv > 0]), two]).min())
    else:
        f, piv = lu_factor(t, check_finite=False)
        pivot_min = float(np.min(np.abs(np.diag(f))))
    if not np.isfinite(pivot_min) or pivot_min < PIVOT_RTOL * scale:
        raise Singular(
            f"pivot {pivot_min:.3e} below threshold {PIVOT_RTOL * scale:.3e}")
    if symmetric:
        g, info = sytri(f, piv, overwrite_a=True)
        np.copyto(g, g.T, where=np.tri(n, k=-1, dtype=bool))
    else:
        getri, getri_lwork = get_lapack_funcs(("getri", "getri_lwork"), (f,))
        lwork, _ = getri_lwork(n)
        g, info = getri(f, piv, lwork=int(np.real(lwork)), overwrite_lu=True)
    if info != 0:
        raise Singular(f"inverse failed (info {info})")
    r = t @ g
    r[np.diag_indices(n)] -= 1.0
    residual = float(np.linalg.norm(r))
    gate = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(t))
                               * float(np.linalg.norm(g)))
    if residual > gate:
        raise Singular(
            f"identity residual {residual:.3e} exceeds gate {gate:.3e}")
    u = 2.0 ** -53
    k = n if np.isrealobj(r) else 2 * n
    gamma = k * u / (1.0 - k * u) * (1.0 if np.isrealobj(r) else 2.0 ** 0.5)
    sums = []  # (1-norm, inf-norm) of R, T and G
    for a in (r, t, g):
        np.abs(a, out=r)
        sums.append([float(r.sum(axis=ax).real.max()) * (1.0 + gamma)
                     for ax in (0, 1)])
    op_norm = 1.0 + 16.0 * u
    for r_p, t_p, g_p in zip(*sums):
        rbar = r_p + gamma * t_p * g_p
        if not rbar < 0.5:
            raise Singular(f"residual bound {rbar:.3e} is not below 1/2")
        op_norm *= math.sqrt(g_p / (1.0 - rbar))
    return GreenMatrix(g, op_norm, residual, pivot_min)


# ---------------------------------------------------------------------------
# Schur complement


@dataclass(frozen=True)
class SchurData:
    """``S = D - C A^{-1} B`` for ``A = M[inner, inner]``, ``B = M[inner,
    keep]``, ``C = M[keep, inner]``, ``D = M[keep, keep]``."""

    s_matrix: np.ndarray
    inner_idx: np.ndarray
    keep_idx: np.ndarray
    a_inverse: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    det_defect: np.ndarray


def schur_complement(m: np.ndarray, inner_idx) -> SchurData:
    """Eliminate the block indexed by ``inner_idx``; verify det M = det A det S.

    ``m`` is one matrix or a stack ``(..., n, n)`` sharing ``inner_idx``.
    Raises ASingular when any eliminated block has an LU pivot below
    ``1e-14`` times its largest entry.  The determinant identity is checked
    in log form (slogdet) wherever all three sides are finite; its relative
    defect, 0 elsewhere, is recorded on the result.
    """
    m = np.asarray(m)
    mask = np.zeros(m.shape[-1], dtype=bool)
    mask[np.asarray(inner_idx, dtype=np.int64).ravel()] = True
    inner, keep = np.flatnonzero(mask), np.flatnonzero(~mask)
    if inner.size == 0 or keep.size == 0:
        raise ValueError("both blocks of the partition must be non-empty")
    k = inner.size
    order = np.concatenate([inner, keep])
    p = m[..., order, :][..., order]
    a, b = p[..., :k, :k], p[..., :k, k:]
    c, d = p[..., k:, :k], p[..., k:, k:]
    getrf, = get_lapack_funcs(("getrf",), (a,))
    pivots = np.array([getrf(blk)[0].diagonal()
                       for blk in a.reshape(-1, k, k)])
    pivot_min = np.abs(pivots).min(axis=-1)
    scale = np.maximum(1e-300, np.abs(a).max(axis=(-2, -1))).ravel()
    if not np.all(np.isfinite(scale) & (pivot_min >= 1e-14 * scale)):
        raise ASingular(f"eliminated block pivot {np.min(pivot_min):.3e} "
                        "is effectively zero")
    a_inv = np.linalg.inv(a)
    s = d - c @ (a_inv @ b)
    sign_m, log_m = np.linalg.slogdet(m)
    sign_a, log_a = np.linalg.slogdet(a)
    sign_s, log_s = np.linalg.slogdet(s)
    with np.errstate(invalid="ignore"):
        gap = log_a + log_s - log_m
        defect = np.abs(sign_m - sign_a * sign_s
                        * np.exp(np.clip(gap, -700.0, 700.0)))
    return SchurData(s, inner, keep, a_inv, b, c,
                     np.where(np.isfinite(gap), defect, 0.0))


@dataclass(frozen=True)
class SandwichReport:
    s_inv_norm: np.ndarray
    m_inv_norm: np.ndarray
    a_inv_norm: np.ndarray
    b_norm: np.ndarray
    c_norm: np.ndarray
    upper_bound: np.ndarray
    upper_applicable: np.ndarray
    lower_holds: np.ndarray
    upper_holds: np.ndarray


def sandwich_check(m: np.ndarray, schur: SchurData) -> SandwichReport:
    """Check ``||S^{-1}|| <= ||M^{-1}|| < 4(1+||A^{-1}||)^2 (1+||S^{-1}||)``.

    ``schur`` is ``schur_complement(m, ...)``, whose blocks and ``A^{-1}``
    are reused.  The lower inequality is unconditional (S^{-1} is a
    sub-block of M^{-1}); the upper one requires the off-diagonal blocks to
    be contractions, which is reported rather than enforced.
    """
    s_inv = two_norm(np.linalg.inv(schur.s_matrix))
    m_inv = two_norm(np.linalg.inv(m))
    a_inv = two_norm(schur.a_inverse)
    b_n, c_n = two_norm(schur.b_block), two_norm(schur.c_block)
    upper = 4.0 * (1.0 + a_inv) ** 2 * (1.0 + s_inv)
    applicable = (b_n <= 1.0 + 1e-12) & (c_n <= 1.0 + 1e-12)
    tol = 1e-9 * np.maximum(1.0, m_inv)
    return SandwichReport(s_inv, m_inv, a_inv, b_n, c_n, upper, applicable,
                          s_inv <= m_inv + tol,
                          ~applicable | (m_inv < upper + tol))


# ---------------------------------------------------------------------------
# Hadamard adjugate and determinant perturbation


def adjugate(m: np.ndarray) -> np.ndarray:
    """Adjugate of each matrix in a stack, from one SVD.

    With ``M = U diag(s) V^H``, ``adj M = det U det V^H V diag(c) U^H`` where
    ``c_i`` is the product of the ``s_j`` with ``j != i`` (Stewart, *On the
    adjugate matrix*, Linear Algebra Appl. 283, 1998), formed from prefix
    and suffix products without division, so a singular M needs no care.
    """
    u, s, vh = np.linalg.svd(np.asarray(m))
    one = np.ones_like(s[..., :1])
    before = np.cumprod(np.concatenate([one, s[..., :-1]], -1), -1)
    after = np.cumprod(np.concatenate([one, s[..., :0:-1]], -1), -1)[..., ::-1]
    phase = np.linalg.det(u) * np.linalg.det(vh)
    v = vh.conj().swapaxes(-2, -1)
    return (phase[..., None, None] * v * (before * after)[..., None, :]
            ) @ u.conj().swapaxes(-2, -1)


@dataclass(frozen=True)
class HadamardReport:
    entry_bound: np.ndarray
    norm_bound: np.ndarray
    row_sum: np.ndarray
    exact_max: np.ndarray
    holds: np.ndarray


def hadamard_adjugate_check(m: np.ndarray) -> HadamardReport:
    """Adjugate entries are bounded by (max row l1 sum)^(n-1).

    The adjugate is computed for every size and compared (the inequality is
    a theorem, the check exists to catch implementation drift).
    """
    m = np.asarray(m)
    n = m.shape[-1]
    row = np.abs(m).sum(axis=-1).max(axis=-1)
    entry_bound = row ** (n - 1)
    exact = np.abs(adjugate(m)).max(axis=(-2, -1))
    return HadamardReport(entry_bound, n * entry_bound, row, exact,
                          exact <= entry_bound * (1.0 + 1e-9) + 1e-300)


@dataclass(frozen=True)
class DetPerturbReport:
    lhs: np.ndarray
    bound: np.ndarray
    m_row: np.ndarray
    eps_row: np.ndarray
    holds: np.ndarray


def det_perturbation_check(a: np.ndarray, b: np.ndarray) -> DetPerturbReport:
    """``|det(A+B) - det A| <= eps n^2 (M + eps)^(n-1)`` with row-sum M, eps."""
    a, b = np.asarray(a), np.asarray(b)
    n = a.shape[-1]
    m_row = np.abs(a).sum(axis=-1).max(axis=-1)
    eps_row = np.abs(b).sum(axis=-1).max(axis=-1)
    lhs = np.abs(np.linalg.det(a + b) - np.linalg.det(a))
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
    S_lam)``.  ``c_rho`` is the certified quasi-metric constant, and ``D =
    dist_to_spectrum`` a certified lower bound on ``dist(z, spec H) =
    1/||T^{-1}||_2``, ``T = H - z``, inverted by ``green_solve``: the larger
    of ``|Im z|`` and ``1/op_norm - 2^-52 max|T_ii|``, whose last term pays
    for rounding ``h_ii - z``.  A smaller ``D`` only raises the bound.
    """
    h = np.asarray(h)
    if not is_hermitian(h):
        raise NotHermitian("Combes-Thomas needs an exactly Hermitian H")
    log_weight = lam * np.log1p(pairwise_sup_dist(sites)) ** rho
    off = ~np.eye(h.shape[0], dtype=bool)
    s_lam = float(np.max(np.sum(np.abs(h) * np.exp(log_weight) * off,
                                axis=1)))
    t = h - complex(z) * np.eye(h.shape[0])
    g = green_solve(t)
    rounding = 2.0 ** -52 * float(np.max(np.abs(t.diagonal())))
    d_spec = max(abs(complex(z).imag), 1.0 / g.op_norm - rounding)
    denom = d_spec - 2.0 * np.exp(lam * c_rho * LOG2 ** rho) * s_lam
    if denom <= 0.0:
        raise DenominatorNonpositive(
            f"spectral gap {d_spec:.3e} does not dominate the weighted "
            f"row sum term {d_spec - denom:.3e}")
    with np.errstate(divide="ignore"):
        log_excess = np.log(np.abs(g.matrix)) + log_weight + np.log(denom)
    bad = log_excess > 1e-9
    return CombesThomasReport(s_lam, d_spec, float(denom),
                              float(np.max(log_excess)),
                              int(np.count_nonzero(bad)), int(bad.size))


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
    at the antipodal pair otherwise.  This is the symmetry that pairs the
    paper's characteristic roots as {theta, -theta}; criterion 1's evenness
    suite checks the same identity on random frames.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if not symmetric_about_origin(as_sites(2.0 * sites)):
        raise AsymmetricBox("site set is not symmetric about the origin")
    t = assemble_t_matrix(model, sites, np.array([1.0, -1.0]) * complex(z),
                          energy)
    (s_p, s_m), (l_p, l_m) = np.linalg.slogdet(t)
    rel = float(abs(s_p - s_m * np.exp(np.clip(l_m - l_p, -700.0, 700.0))))
    return EvennessReport(float(l_p), float(l_m), rel, rel <= EVENNESS_TOL)


# ---------------------------------------------------------------------------
# decay scans


@dataclass(frozen=True)
class DecayFit:
    """Per sup-distance class past ``threshold``: its distance, largest
    ``|G|`` entry, envelope bound and pass."""

    alpha_target: float
    threshold: float
    dists: tuple
    peaks: tuple
    bounds: tuple
    ok: tuple
    worst_dist: int | None
    max_log_excess: float

    @property
    def violations(self) -> int:
        return self.ok.count(False)

    @property
    def holds(self) -> bool:
        return self.violations == 0


def decay_scan(g: np.ndarray, classes: tuple, alpha: float, rho: float, *,
               threshold: float = 0.0) -> DecayFit:
    """Check ``|G(x,y)| <= exp(-alpha log^rho(1+dist))`` at the largest
    entry of each class of ``lattice.sup_distance_classes``.

    Classes at distance <= ``threshold`` are exempt (the estimates only
    speak past a resonance-sized core).  A class fails when its log excess
    passes ``DECAY_LOG_TOL``; ``worst_dist``, set when one fails, is the
    distance of the largest excess.
    """
    order, starts, radii = classes
    # the classes are symmetric sets of pairs, so G's memory order ("K")
    # reads the same maxima
    peak = np.asarray(g).ravel(order="K")[order]
    peak = np.maximum.reduceat(np.abs(peak, out=peak).real, starts)
    keep = radii > threshold
    dists, peaks = radii[keep].tolist(), peak[keep].tolist()
    bounds, excess = [], []
    for r, top in zip(dists, peaks):
        log_env = -alpha * math.log1p(r) ** rho
        bounds.append(math.exp(log_env))
        excess.append(math.log(top) - log_env if top > 0 else -math.inf)
    ok = tuple(x <= DECAY_LOG_TOL for x in excess)
    worst = max(excess, default=-math.inf)
    return DecayFit(alpha, threshold, tuple(dists), tuple(peaks),
                    tuple(bounds), ok,
                    None if all(ok) else dists[excess.index(worst)], worst)
