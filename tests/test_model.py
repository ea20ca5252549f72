"""Potential, frequency, hopping kernel, and dense assembly."""

import dataclasses
import math

import numpy as np
import pytest

from qplab import (
    FrequencyVector,
    HoppingKernel,
    ModelSpec,
    PotentialSpec,
    assemble_restriction,
    assemble_t_matrix,
    box_around,
    certified,
    certify_diophantine,
    certify_morse,
    eval_potential,
    is_hermitian,
    kernel_weights,
    solve_phase_for_energy,
    spectrum_bounds,
    toeplitz_block,
)
from qplab.errors import (
    BoxTooLarge,
    DecayViolation,
    DegenerateRatio,
    DiophantineViolation,
    NotHermitian,
    OutOfStrip,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# potential


def test_cosine_declared_constants():
    pot = PotentialSpec.cosine()
    assert pot.kappa1 == 8.0
    assert pot.kappa2 == pytest.approx(2 * math.pi ** 2
                                       * math.cosh(math.pi) ** 2)
    assert (pot.a, pot.b) == (-1.0, 1.0)
    assert pot.v_sup == pytest.approx(math.cosh(math.pi))


def test_eval_potential_values_and_strip():
    pot = PotentialSpec.cosine()
    assert eval_potential(pot, 0.0) == pytest.approx(1.0)
    assert eval_potential(pot, 0.25) == pytest.approx(0.0, abs=1e-15)
    z = 0.1 + 0.2j
    assert eval_potential(pot, z) == pytest.approx(np.cos(TWO_PI * z))
    with pytest.raises(OutOfStrip):
        eval_potential(pot, 0.1 + 0.6j)


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec("cosine", -1.0, 8.0, 20.0, -1.0, 1.0, 0.05, 1.0)
    with pytest.raises(ValueError):
        PotentialSpec("cosine", 0.5, 8.0, 2.0, -1.0, 1.0, 0.05, 1.0)
    with pytest.raises(ValueError):
        PotentialSpec("user", 0.5, 8.0, 20.0, -1.0, 1.0, 0.05, 1.0)


def test_solve_phase_canonical_branch():
    pot = PotentialSpec.cosine()
    th = solve_phase_for_energy(pot, 0.3)
    assert th == pytest.approx(math.acos(0.3) / TWO_PI)
    assert 0.0 <= th.real <= 0.5
    assert solve_phase_for_energy(pot, 1.0) == pytest.approx(0.0)
    assert solve_phase_for_energy(pot, -1.0) == pytest.approx(0.5)
    # energies outside [-1, 1] get an imaginary phase
    th2 = solve_phase_for_energy(pot, 2.0)
    assert th2.imag != 0.0
    assert eval_potential(pot, th2) == pytest.approx(2.0, abs=1e-9)


def test_certify_morse_real_torus():
    pot = PotentialSpec.cosine()
    cert = certify_morse(pot, grid_density=256)
    # infimum 8 is attained at the antipodal pair (0, 1/2)
    assert cert.kappa1 == pytest.approx(8.0, rel=1e-3)
    assert 19.0 <= cert.kappa2 <= 2 * math.pi ** 2 + 1e-6
    lo = sorted(z.real for z in cert.worst_low_pair)
    assert lo == pytest.approx([0.0, 0.5], abs=1e-2)
    assert cert.infinite_pairs == ()


def test_certify_morse_rejects_flat_potential():
    flat = PotentialSpec("user", 0.5, 1.0, 1.0, 0.0, 0.0, 0.05, 1.0,
                         fn=lambda z: np.zeros(np.shape(z)))
    with pytest.raises(DegenerateRatio):
        certify_morse(flat)


def test_phase_point_wraps_and_validates(weak_model, small_window):
    # assemble_restriction reduces the phase mod 1 and keeps it in the
    # half-strip |Im theta| <= R/2 = 0.25
    rest = assemble_restriction(weak_model, small_window, 1.7)
    assert rest.theta == pytest.approx(0.7)
    np.testing.assert_allclose(
        rest.matrix, assemble_t_matrix(weak_model, small_window.sites, 1.7),
        rtol=0, atol=1e-14)
    assert assemble_restriction(weak_model, small_window,
                                -1e-17).theta == 0.0
    assemble_restriction(weak_model, small_window, 0.1 + 0.2j)
    with pytest.raises(OutOfStrip):
        assemble_restriction(weak_model, small_window, 0.1 + 0.3j)


# ---------------------------------------------------------------------------
# frequency


def test_golden_diophantine_certificate():
    freq = FrequencyVector.golden()
    cert = certify_diophantine(freq, 233)
    assert cert.passed and cert.violations == 0
    # the global minimum of ||n omega|| n^tau / gamma sits at n = 1
    assert cert.worst_site == (1,)
    omega = freq.omega[0]
    assert cert.worst_margin == pytest.approx((1.0 - omega) / 0.2)


def test_rational_frequency_fails_at_denominator():
    freq = FrequencyVector((1.0 / 3.0,), 2.0, 0.2)
    with pytest.raises(DiophantineViolation):
        certify_diophantine(freq, 10)
    cert = certify_diophantine(freq, 10, raise_on_violation=False)
    assert not cert.passed
    assert cert.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_certified_stamps_the_range():
    freq = certified(FrequencyVector.golden(), 100)
    assert freq.n_cert == 100


def test_diophantine_2d_box_path():
    freq = FrequencyVector((0.618033988749895, 0.414213562373095), 3.0, 0.05)
    cert = certify_diophantine(freq, 8, raise_on_violation=False)
    assert cert.n_max == 8
    assert any(v != 0 for v in cert.worst_site)


def test_diophantine_counts_each_pm_pair_once():
    # n . omega is an integer for the 6 pairs +-n of the box with n1 + n2
    # even; the whole box counted 12
    freq = FrequencyVector((0.5, 0.5), 3.0, 0.2)
    cert = certify_diophantine(freq, 2, raise_on_violation=False)
    assert cert.violations == 6
    lead = next(v for v in cert.worst_site if v != 0)
    assert lead > 0


def test_frequency_validation():
    with pytest.raises(ValueError):
        FrequencyVector((1.5,), 2.0, 0.2)
    with pytest.raises(ValueError):
        FrequencyVector((0.5,), 0.5, 0.2)
    with pytest.raises(ValueError):
        FrequencyVector((0.5,), 2.0, 0.0)
    # a list is stored as a tuple, so the vector stays hashable
    listed = FrequencyVector([0.5], 2.0, 0.2)
    assert listed == FrequencyVector((0.5,), 2.0, 0.2)
    assert hash(listed) == hash(FrequencyVector((0.5,), 2.0, 0.2))


# ---------------------------------------------------------------------------
# hopping kernel


def test_saturating_kernel_values():
    kern = HoppingKernel.saturating(1.0, 2.0)
    w = kernel_weights(kern, np.array([[0], [1], [-1]]))
    assert w[0] == 0.0
    assert w[1] == pytest.approx(math.exp(-math.log(2.0) ** 2))
    assert w[2] == w[1]


def test_kernel_envelope_is_enforced():
    loud = HoppingKernel.from_callable(
        1.0, 2.0, lambda d: np.ones(d.shape[0]))
    with pytest.raises(DecayViolation):
        kernel_weights(loud, np.array([[0]]))
    with pytest.raises(DecayViolation):
        kernel_weights(loud, np.array([[1]]))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        HoppingKernel.saturating(0.0, 2.0)
    with pytest.raises(ValueError):
        HoppingKernel.saturating(1.0, 1.0)


def test_toeplitz_block_matches_double_loop():
    kern = HoppingKernel.saturating(1.0, 2.0)
    rng = np.random.default_rng(17)
    sites = np.unique(rng.integers(-6, 7, (9, 2)), axis=0)
    block = toeplitz_block(kern, sites.astype(float))
    for i, x in enumerate(sites):
        for j, y in enumerate(sites):
            assert block[i, j] == pytest.approx(
                kernel_weights(kern, x - y)[0])


def test_toeplitz_block_rejects_fractional_differences():
    kern = HoppingKernel.saturating(1.0, 2.0)
    with pytest.raises(ValueError):
        toeplitz_block(kern, np.array([[0.0], [0.3]]))


# ---------------------------------------------------------------------------
# model assembly


def test_model_spec_exponent_ordering():
    pot = PotentialSpec.cosine()
    kern = HoppingKernel.saturating(1.0, 2.0)
    freq = FrequencyVector.golden()
    with pytest.raises(ValueError):
        ModelSpec(pot, kern, freq, 1e-3, rho_prime=0.9)
    with pytest.raises(ValueError):
        ModelSpec(pot, kern, freq, 1e-3, rho_prime=2.5)
    with pytest.raises(ValueError):
        ModelSpec(pot, HoppingKernel.saturating(1.0, 3.0), freq, 1e-3,
                  rho_prime=1.5)


def test_model_spec_warns_outside_smallness():
    pot = PotentialSpec.cosine()
    kern = HoppingKernel.saturating(1.0, 2.0)
    freq = FrequencyVector.golden()
    with pytest.warns(UserWarning, match="outside the theory's guarantee"):
        ModelSpec(pot, kern, freq, 0.5)


def test_assemble_eps_zero_is_diagonal(weak_model, small_window):
    omega = weak_model.frequency.array()
    sites = small_window.sites.astype(float)
    t = assemble_t_matrix(dataclasses.replace(weak_model, eps=0.0), sites,
                          0.113, 0.3)
    off = t - np.diag(np.diag(t))
    assert np.max(np.abs(off)) == 0.0
    expected = np.cos(TWO_PI * (0.113 + sites.ravel() * omega[0])) - 0.3
    np.testing.assert_allclose(np.diag(t), expected, atol=1e-14)


def test_assemble_half_lattice_frame(weak_model):
    frame = np.arange(-3, 4)[:, None] + 0.5
    t = assemble_t_matrix(weak_model, frame, 0.2, 0.0)
    assert t.shape == (7, 7)
    assert np.allclose(t, t.conj().T, atol=1e-14)


@pytest.mark.parametrize("dim, radius", [(1, 16), (2, 3)])
@pytest.mark.parametrize("energy", [0.0, 0.41])
@pytest.mark.parametrize("imag", [0.0, 0.1], ids=["real", "complex"])
def test_assemble_phase_stack_matches_each_phase(dim, radius, energy, imag):
    omega = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)[:dim]
    model = ModelSpec(PotentialSpec.cosine(),
                      HoppingKernel.saturating(1.0, 2.0),
                      FrequencyVector(omega, 3.0, 0.1), 1e-3)
    sites = box_around(np.zeros(dim), radius).sites
    phases = np.array([0.113, 0.5, 0.97]) + 1j * imag
    stack = assemble_t_matrix(model, sites, phases, energy)
    n = sites.shape[0]
    assert stack.shape == (3, n, n)
    for z, t in zip(phases, stack):
        one = assemble_t_matrix(model, sites, complex(z), energy)
        assert one.dtype == t.dtype
        assert one.tobytes() == t.tobytes()
    # a single phase stays a single matrix
    assert assemble_t_matrix(model, sites, phases[0], energy).ndim == 2


def test_assemble_restriction_flags(weak_model, small_window):
    rest = assemble_restriction(weak_model, small_window, 0.113, 0.3)
    assert rest.hermitian
    assert rest.n_sites == 33
    complex_rest = assemble_restriction(weak_model, small_window,
                                        0.113 + 0.1j, 0.3)
    assert not complex_rest.hermitian


def _twisted(kernel):
    """``kernel`` times ``exp(i pi sign(n_0) / 3)``: complex and Hermitian."""
    def fn(diffs):
        return kernel.fn(diffs) * np.exp(
            1j * np.pi / 3.0 * np.sign(diffs[:, 0]))

    return HoppingKernel.from_callable(kernel.alpha, kernel.rho, fn)


@pytest.mark.parametrize("twisted", [False, True], ids=["real", "twisted"])
@pytest.mark.parametrize("dim, radius", [(1, 3), (1, 40), (1, 256), (2, 3),
                                         (2, 9)])
def test_real_phase_restrictions_are_exactly_hermitian(dim, radius, twisted):
    kernel = HoppingKernel.saturating(1.0, 2.0)
    omega = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)[:dim]
    model = ModelSpec(PotentialSpec.cosine(),
                      _twisted(kernel) if twisted else kernel,
                      FrequencyVector(omega, 3.0, 0.1), 1e-3)
    box = box_around(np.zeros(dim), radius)
    for theta, energy in ((0.113, 0.0), (0.3, 0.41), (0.77, -1.2)):
        rest = assemble_restriction(model, box, theta, energy)
        assert np.iscomplexobj(rest.matrix) == twisted
        assert is_hermitian(rest.matrix) and rest.hermitian


def test_assemble_restriction_dense_cap(weak_model):
    with pytest.raises(BoxTooLarge):
        assemble_restriction(weak_model, box_around(np.zeros(1), 3000),
                             0.113)


def test_spectrum_bounds_containment(weak_model, small_window):
    rest = assemble_restriction(weak_model, small_window, 0.113, 0.0)
    rep = spectrum_bounds(rest)
    assert rep.contained and rep.margin > 0.0
    assert rep.window == (-1.05, 1.05)
    assert -1.05 <= rep.lo <= rep.hi <= 1.05
    tight = spectrum_bounds(rest, window=(0.0, 1.0))
    assert not tight.contained


def test_spectrum_bounds_needs_hermitian(weak_model, small_window):
    rest = assemble_restriction(weak_model, small_window, 0.113 + 0.1j, 0.0)
    with pytest.raises(NotHermitian):
        spectrum_bounds(rest)
