"""The operator family: potential, hopping kernel, frequency, assembly.

The Hamiltonian acts on ``l^2(Z^d)`` as ``H(theta) = eps * W + diag(v(theta +
n . omega))`` with a Toeplitz long-range part ``W(x, y) = phi(x - y)`` whose
amplitudes decay like ``exp(-alpha log^rho(1 + ||n||))``.  Everything here is
finite-volume: restrictions are dense matrices over explicit site sets, and
the shifted matrix ``T = H - E`` is what the Green's function machinery
inverts.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    BoxTooLarge,
    DecayViolation,
    DegenerateRatio,
    DiophantineViolation,
    NotHermitian,
    OutOfStrip,
)
from .lattice import LatticeBox, as_sites, box_around
from .torus import canonical_root, torus_norm, wrap_to_unit

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# potential


@dataclass(frozen=True)
class PotentialSpec:
    """Analytic 1-periodic potential with declared Morse constants.

    ``kappa1``/``kappa2`` bound the two-sided Morse ratio
    ``|v(z1)-v(z2)| / (||z1-z2||_T ||z1+z2||_T)``; ``a``/``b`` are the range
    endpoints of v on the real torus and ``beta`` the spectral margin.
    ``v_sup`` dominates ``|v|`` on the strip of half-width ``R``.
    """

    kind: str
    strip: float
    kappa1: float
    kappa2: float
    a: float
    b: float
    beta: float
    v_sup: float
    fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.strip <= 0:
            raise ValueError("strip half-width must be positive")
        if not (self.kappa1 > 0 and self.kappa2 >= self.kappa1):
            raise ValueError("need 0 < kappa1 <= kappa2")
        if self.beta <= 0:
            raise ValueError("spectral margin beta must be positive")
        if self.a > self.b:
            raise ValueError("range endpoints must satisfy a <= b")
        if self.kind == "user" and self.fn is None:
            raise ValueError("user potential requires an evaluator")

    @classmethod
    def cosine(cls, strip: float = 0.5, beta: float = 0.05) -> "PotentialSpec":
        """The built-in ``v(z) = cos(2 pi z)``.

        On the real torus the Morse ratio lives in [8, 2 pi^2] (the lower
        value is attained at the pair (0, 1/2)).  On a strip the upper
        constant inflates by cosh factors, so the declared kappa2 is the
        strip-safe value ``2 pi^2 cosh^2(2 pi R)``; certificates report the
        sharper empirical values for whatever grid they used.
        """
        k2 = 2.0 * math.pi ** 2 * math.cosh(TWO_PI * strip) ** 2
        return cls("cosine", strip, 8.0, k2, -1.0, 1.0, beta,
                   math.cosh(TWO_PI * strip))


def eval_potential(spec: PotentialSpec, z):
    """Evaluate v at real or complex ``z`` (scalar or array)."""
    z = np.asarray(z)
    im = np.abs(z.imag) if np.iscomplexobj(z) else 0.0
    if np.max(im) > spec.strip:
        raise OutOfStrip(
            f"|Im z| = {float(np.max(im)):.4g} exceeds strip {spec.strip}")
    if spec.kind == "cosine":
        out = np.cos(TWO_PI * z)
    else:
        out = np.asarray(spec.fn(z))
    if out.ndim == 0:
        return complex(out) if np.iscomplexobj(out) else float(out)
    return out


def eval_potential_derivative(spec: PotentialSpec, z):
    """v'(z): exact for the cosine, a central difference of v otherwise."""
    if spec.kind == "cosine":
        return -TWO_PI * np.sin(TWO_PI * np.asarray(z))
    h = 1e-7
    return (eval_potential(spec, z + h)
            - eval_potential(spec, z - h)) / (2 * h)


def solve_phase_for_energy(spec: PotentialSpec, energy) -> complex:
    """A root theta0 of ``v(theta0) = E``, canonicalized to Re in [0, 1/2].

    For the cosine this is ``arccos(E) / 2 pi`` (complex arccos covers
    energies outside the real range).  User potentials are solved by Newton
    from the best grid point.
    """
    if spec.kind == "cosine":
        theta = cmath.acos(complex(energy)) / TWO_PI
    else:
        grid = np.linspace(0.0, 1.0, 512, endpoint=False)
        vals = np.asarray(eval_potential(spec, grid), dtype=complex)
        theta = complex(grid[int(np.argmin(np.abs(vals - energy)))])
        for _ in range(60):
            f = eval_potential(spec, theta) - energy
            df = eval_potential_derivative(spec, theta)
            if abs(df) < 1e-14:
                break
            step = f / df
            theta -= step
            if abs(step) < 1e-14:
                break
    return canonical_root(complex(theta))


@dataclass(frozen=True)
class MorseCertificate:
    kappa1: float
    kappa2: float
    grid_density: int
    strip: float
    worst_low_pair: tuple
    worst_high_pair: tuple
    infinite_pairs: tuple


def certify_morse(spec: PotentialSpec, grid_density: int = 256,
                  strip: float = 0.0) -> MorseCertificate:
    """Empirical Morse constants from an exhaustive grid-pair scan.

    Scans all pairs of grid points (real torus, plus five imaginary levels
    when ``strip`` > 0) and returns the extreme ratios together with the
    attaining pairs.  A vanishing ratio at nonzero denominator means the
    potential is not cosine-type and raises DegenerateRatio.  It checks the
    paper's cosine-type hypothesis on v, the two-sided Morse bound that
    ``PotentialSpec`` declares.
    """
    if grid_density < 16:
        raise ValueError("grid density must be at least 16 per unit length")
    if strip < 0 or strip > spec.strip:
        raise ValueError("certification strip must satisfy 0 <= R' <= R")
    xs = np.arange(grid_density) / grid_density
    if strip > 0:
        levels = np.linspace(-strip, strip, 5)
        pts = (xs[:, None] + 1j * levels[None, :]).ravel()
    else:
        pts = xs.astype(complex)

    vals = np.asarray(eval_potential(spec, pts), dtype=complex)
    num = np.abs(vals[:, None] - vals[None, :])
    den = (torus_norm(pts[:, None] - pts[None, :])
           * torus_norm(pts[:, None] + pts[None, :]))
    iu = np.triu_indices(len(pts), k=1)
    num, den = num[iu], den[iu]

    den_floor = 1e-12
    live = den > den_floor
    inf_mask = (~live) & (num > 1e-9)
    inf_pairs = tuple(zip(iu[0][inf_mask][:8].tolist(),
                          iu[1][inf_mask][:8].tolist()))
    ratios = num[live] / den[live]
    if ratios.size == 0:
        raise DegenerateRatio("no admissible pairs on the grid")
    scale = float(np.max(num[live])) or 1.0
    if float(np.min(ratios)) < 1e-9 * scale:
        i = int(np.argmin(ratios))
        raise DegenerateRatio(
            f"difference ratio collapses at pair index {i}: potential is "
            "not cosine-type on this grid")

    lo_i = int(np.argmin(ratios))
    hi_i = int(np.argmax(ratios))
    live_idx = np.flatnonzero(live)

    def pair_at(j):
        p, q = iu[0][live_idx[j]], iu[1][live_idx[j]]
        return (complex(pts[p]), complex(pts[q]))

    return MorseCertificate(float(ratios[lo_i]), float(ratios[hi_i]),
                            int(grid_density), float(strip),
                            pair_at(lo_i), pair_at(hi_i), inf_pairs)


# ---------------------------------------------------------------------------
# frequency


@dataclass(frozen=True)
class FrequencyVector:
    """Rotation vector with its small-divisor class parameters."""

    omega: tuple
    tau: float
    gamma: float
    n_cert: int = 0

    def __post_init__(self):
        # a tuple even when given a list: msa keys tracked roots on the model
        object.__setattr__(self, "omega", tuple(self.omega))
        if any(not (0.0 <= w <= 1.0) for w in self.omega):
            raise ValueError("frequency components must lie in [0, 1]")
        if self.tau <= len(self.omega):
            raise ValueError("small-divisor exponent tau must exceed d")
        if self.gamma <= 0:
            raise ValueError("small-divisor constant gamma must be positive")

    @property
    def dim(self) -> int:
        return len(self.omega)

    @classmethod
    def golden(cls, tau: float = 2.0, gamma: float = 0.2) -> "FrequencyVector":
        return cls(((math.sqrt(5.0) - 1.0) / 2.0,), tau, gamma)

    def array(self) -> np.ndarray:
        return np.asarray(self.omega, dtype=float)


@dataclass(frozen=True)
class DiophantineCertificate:
    passed: bool
    n_max: int
    worst_site: tuple
    worst_margin: float
    violations: int


def certify_diophantine(freq: FrequencyVector, n_max: int, *,
                        raise_on_violation: bool = True,
                        site_cap: int = 20_000_000) -> DiophantineCertificate:
    """Exhaustively check ``||n . omega||_T >= gamma / ||n||^tau`` up to n_max.

    The margin reported is ``||n.omega||_T ||n||^tau / gamma``, so 1.0 is the
    failure threshold.  With ``raise_on_violation`` the first offender (by
    norm, then lexicographic order) raises DiophantineViolation.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    omega = freq.array()
    if freq.dim == 1:
        n = np.arange(1, n_max + 1, dtype=np.int64)
        sites = n[:, None]
        norms = n.astype(float)
    else:
        # ||n . omega||_T is even in n: scan the half box whose first
        # nonzero coordinate is positive, so each pair +-n counts once
        sites = box_around(np.zeros(freq.dim), n_max, site_cap=site_cap).sites
        lead = sites[np.arange(sites.shape[0]), np.argmax(sites != 0, axis=1)]
        sites = sites[lead > 0]
        norms = np.max(np.abs(sites), axis=1).astype(float)

    dots = sites @ omega
    margins = torus_norm(dots) * norms ** freq.tau / freq.gamma
    bad = margins < 1.0
    n_bad = int(np.count_nonzero(bad))
    worst = int(np.argmin(margins))
    cert = DiophantineCertificate(n_bad == 0, int(n_max),
                                  tuple(int(v) for v in sites[worst]),
                                  float(margins[worst]), n_bad)
    if n_bad and raise_on_violation:
        idx = np.flatnonzero(bad)
        order = sorted(idx, key=lambda i: (norms[i],
                                           tuple(sites[i].tolist())))
        first = order[0]
        raise DiophantineViolation(sites[first], margins[first])
    return cert


def certified(freq: FrequencyVector, n_max: int) -> FrequencyVector:
    """Return a copy of ``freq`` carrying a fresh exhaustive certificate."""
    certify_diophantine(freq, n_max)
    return replace(freq, n_cert=int(n_max))


# ---------------------------------------------------------------------------
# hopping kernel


@dataclass(frozen=True)
class HoppingKernel:
    """Toeplitz amplitudes ``phi`` under the log-power decay envelope.

    ``fn`` maps an (m, d) integer array of differences to an (m,) array of
    amplitudes.  Every evaluation path re-checks the envelope, so a kernel
    that drifts out of its declared decay class fails loudly at use time.
    """

    alpha: float
    rho: float
    kind: str
    fn: Callable = field(compare=False)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("decay rate alpha must be positive")
        if self.rho <= 1:
            raise ValueError("decay shape rho must exceed 1")

    @classmethod
    def saturating(cls, alpha: float, rho: float) -> "HoppingKernel":
        """Kernel sitting exactly on the decay envelope (worst admissible)."""

        def fn(diffs: np.ndarray) -> np.ndarray:
            dist = np.max(np.abs(diffs), axis=1).astype(float)
            out = np.exp(-alpha * np.log1p(dist) ** rho)
            out[dist == 0] = 0.0
            return out

        return cls(alpha, rho, "saturating", fn)

    @classmethod
    def from_callable(cls, alpha: float, rho: float,
                      fn: Callable) -> "HoppingKernel":
        return cls(alpha, rho, "user", fn)


def kernel_weights(kernel: HoppingKernel, diffs: np.ndarray) -> np.ndarray:
    """Evaluate ``phi`` on an (m, d) difference array, enforcing the envelope."""
    diffs = np.atleast_2d(np.asarray(diffs, dtype=np.int64))
    vals = np.asarray(kernel.fn(diffs), dtype=complex).reshape(diffs.shape[0])
    dist = np.max(np.abs(diffs), axis=1).astype(float)
    zero = dist == 0
    if np.any(np.abs(vals[zero]) > 1e-15):
        raise DecayViolation("hopping amplitude must vanish at the origin")
    bound = np.exp(-kernel.alpha * np.log1p(dist) ** kernel.rho)
    excess = np.abs(vals) - bound
    if np.any(excess > 1e-12):
        i = int(np.argmax(excess))
        raise DecayViolation(
            f"|phi({tuple(diffs[i])})| = {abs(vals[i]):.6e} exceeds envelope "
            f"{bound[i]:.6e}")
    return vals


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ModelSpec:
    potential: PotentialSpec
    hopping: HoppingKernel
    frequency: FrequencyVector
    eps: float
    eps0: float = 1e-2
    rho_prime: float = 1.5

    def __post_init__(self):
        rho = self.hopping.rho
        if not (1.0 < self.rho_prime < rho < self.rho_prime + 1.0):
            raise ValueError(
                f"need 1 < rho' < rho < rho'+1, got rho'={self.rho_prime}, "
                f"rho={rho}")
        if abs(self.eps) > self.eps0:
            warnings.warn(
                f"|eps| = {abs(self.eps)} exceeds the declared smallness "
                f"threshold eps0 = {self.eps0}; the regime is outside the "
                "theory's guarantee", stacklevel=2)

    @property
    def dim(self) -> int:
        return self.frequency.dim


# ---------------------------------------------------------------------------
# assembly


def toeplitz_block(kernel: HoppingKernel, sites: np.ndarray,
                   dtype=None) -> np.ndarray:
    """Dense (n, n) matrix phi(x - y) using a difference-table lookup;
    float64 when the table has no imaginary part, else complex128.  The
    table is promoted to ``dtype`` before the lookup, so a matrix that is
    to end up complex is gathered once, in complex128."""
    n, d = sites.shape
    lo = sites.min(axis=0)
    ext = (sites.max(axis=0) - lo).astype(np.int64)
    q = as_sites(sites - lo)
    shape = tuple(int(2 * e + 1) for e in ext)
    axes = [np.arange(-e, e + 1, dtype=np.int64) for e in ext]
    mesh = np.meshgrid(*axes, indexing="ij")
    table = kernel_weights(
        kernel, np.stack([m.ravel() for m in mesh], axis=1)).reshape(shape)
    if not table.imag.any():
        table = table.real
    if dtype is not None:
        table = table.astype(np.result_type(table, dtype))
    strides = np.ones(d, dtype=np.int64)
    for a in range(d - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    flat_q = q @ strides
    offset = int((ext @ strides))
    idx = flat_q[:, None] - flat_q[None, :] + offset
    return table.reshape(-1)[idx]


# largest site count that any dense matrix is assembled for
DENSE_CAP = 4096


def assemble_t_matrix(model: ModelSpec, sites, z, energy=0.0) -> np.ndarray:
    """Dense ``T = diag(v(z + n.omega) - E) + eps W`` over arbitrary sites.

    Sites may live on a translated half-lattice (the multi-scale tracking
    frame); only their pairwise differences must be integers.  More than
    ``DENSE_CAP`` sites raise ``BoxTooLarge`` before anything is allocated.
    An array of phases gives a stack on one hopping table, each matrix bit
    for bit that of its phase alone.  The result is float64 when its
    imaginary part is exactly zero (real phases, energy and kernel), so that
    real input is assembled and factored in real arithmetic, bit for bit
    the real part of the complex construction; otherwise it is complex128.
    """
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    n = sites.shape[0]
    if n > DENSE_CAP:
        raise BoxTooLarge(f"{n} sites exceed the dense cap of {DENSE_CAP}")
    phases = np.expand_dims(z, -1) + sites @ model.frequency.array()
    diag = np.asarray(eval_potential(model.potential, phases), dtype=complex)
    energy = complex(energy)
    if not (energy.imag or diag.imag.any()):
        diag, energy = diag.real, energy.real
    mat = model.eps * toeplitz_block(model.hopping, sites, diag.dtype)
    if np.ndim(z):
        mat = np.broadcast_to(mat, np.shape(z) + mat.shape).copy()
    on = np.arange(n)
    mat[..., on, on] = mat[..., on, on] + diag - energy
    return mat if np.isrealobj(mat) or mat.imag.any() else mat.real.copy()


def is_hermitian(h: np.ndarray) -> bool:
    """Whether ``h`` equals its conjugate transpose bit for bit.

    The one Hermitian test of the package: LAPACK's Hermitian drivers
    (``eigh``, ``eigvalsh``) read one triangle only, so a matrix that
    passes is exactly the matrix they diagonalize.
    """
    h = np.asarray(h)
    return np.array_equal(h, h.T if np.isrealobj(h) else h.conj().T)


@dataclass(frozen=True)
class OperatorRestriction:
    """Dense finite-volume matrix of ``T = H(theta) - E`` over a box."""

    box: LatticeBox
    matrix: np.ndarray
    theta: complex
    energy: complex
    model: ModelSpec

    @property
    def sites(self) -> np.ndarray:
        return self.box.sites

    @property
    def n_sites(self) -> int:
        return self.box.n_sites

    @property
    def hermitian(self) -> bool:
        return is_hermitian(self.matrix)


def assemble_restriction(model: ModelSpec, box: LatticeBox, theta,
                         energy=0.0) -> OperatorRestriction:
    """Assemble the dense restriction of ``H(theta) - E`` to a box.

    The real part of ``theta`` is reduced into [0, 1); ``|Im theta|`` above
    half the potential's strip raises ``OutOfStrip``.
    """
    theta_c = complex(wrap_to_unit(theta))
    if abs(theta_c.imag) > model.potential.strip / 2.0:
        raise OutOfStrip(f"|Im theta| = {abs(theta_c.imag):.4g} exceeds "
                         f"half-strip {model.potential.strip / 2.0}")
    e_c = complex(energy)
    mat = assemble_t_matrix(model, box.sites, theta_c, e_c)
    return OperatorRestriction(box, mat, theta_c, e_c, model)


@dataclass(frozen=True)
class SpectrumReport:
    lo: float
    hi: float
    window: tuple
    contained: bool
    margin: float


def spectrum_bounds(restriction: OperatorRestriction,
                    window: tuple | None = None) -> SpectrumReport:
    """Extreme eigenvalues of the underlying Hamiltonian restriction.

    The assembled matrix is ``H - E``; eigenvalues are shifted back by the
    (real) energy so the report speaks about ``H`` itself, compared against
    the window ``[a - beta, b + beta]`` unless another window is supplied.
    It checks the spectral margin the paper's energy range assumes: for
    small ``eps`` the spectrum lies within ``beta`` of the range of v.
    """
    if not restriction.hermitian:
        raise NotHermitian("spectrum bounds need a Hermitian restriction")
    vals = np.linalg.eigvalsh(restriction.matrix) + restriction.energy.real
    pot = restriction.model.potential
    if window is None:
        window = (pot.a - pot.beta, pot.b + pot.beta)
    lo, hi = float(vals[0]), float(vals[-1])
    margin = min(lo - window[0], window[1] - hi)
    return SpectrumReport(lo, hi, (float(window[0]), float(window[1])),
                          margin >= 0.0, float(margin))
