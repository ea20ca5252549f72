"""Green's function machinery: inversion, Schur, bounds, decay scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qplab import (
    combes_thomas_check,
    decay_scan,
    det_perturbation_check,
    determinant_evenness_check,
    green_solve,
    hadamard_adjugate_check,
    neumann_inverse,
    sandwich_check,
    schur_complement,
)
from qplab.errors import (
    ASingular,
    AsymmetricBox,
    DenominatorNonpositive,
    NonConvergence,
    NotContractive,
    NotHermitian,
    Singular,
)
from qplab.greens import adjugate, two_norm
from qplab.model import assemble_restriction, box_around
from qplab.lattice import pairwise_sup_dist


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


# ---------------------------------------------------------------------------
# norms and inversion


def test_norms_match_numpy():
    rng = np.random.default_rng(0)
    a = _random_complex(rng, 12, 7)
    assert two_norm(a) == pytest.approx(np.linalg.norm(a, 2))
    assert two_norm(np.empty((0, 3))) == 0.0


def test_green_solve_norm_is_exact(weak_model):
    # a draw on which 50 power-iteration steps came out 0.51% below the
    # exact norm (39.7064 vs 39.9098)
    rest = assemble_restriction(weak_model, box_around(np.zeros(1), 64),
                                complex(0.9827639451941653),
                                -0.12829115252735046)
    g = green_solve(rest.matrix)
    exact = np.linalg.norm(np.linalg.inv(rest.matrix), 2)
    assert g.op_norm == pytest.approx(exact, rel=1e-10)
    assert exact == pytest.approx(39.9098, rel=1e-5)


def test_green_solve_inverts():
    rng = np.random.default_rng(1)
    t = _random_complex(rng, 8) + 6.0 * np.eye(8)
    g = green_solve(t)
    np.testing.assert_allclose(g.matrix, np.linalg.inv(t), atol=1e-12)
    assert g.residual < 1e-12
    assert g.pivot_min > 0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_green_solve_refuses_singular():
    with pytest.raises(Singular):
        green_solve(np.zeros((3, 3)))
    with pytest.raises(Singular):
        green_solve(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(Singular):
        green_solve(np.empty((0, 0)))


# ---------------------------------------------------------------------------
# Schur complement


def test_schur_complement_formula_and_det():
    rng = np.random.default_rng(2)
    m = _random_complex(rng, 7) + 5.0 * np.eye(7)
    inner = [1, 3, 4]
    data = schur_complement(m, inner)
    keep = data.keep_idx
    a = m[np.ix_(data.inner_idx, data.inner_idx)]
    b = m[np.ix_(data.inner_idx, keep)]
    c = m[np.ix_(keep, data.inner_idx)]
    d = m[np.ix_(keep, keep)]
    np.testing.assert_allclose(data.s_matrix,
                               d - c @ np.linalg.inv(a) @ b, atol=1e-12)
    assert data.det_defect < 1e-9


def test_schur_block_of_inverse():
    # (M^{-1})_{keep,keep} equals S^{-1}: the reason the sandwich holds
    rng = np.random.default_rng(3)
    m = _random_complex(rng, 6) + 4.0 * np.eye(6)
    data = schur_complement(m, [0, 2])
    m_inv = np.linalg.inv(m)
    np.testing.assert_allclose(
        m_inv[np.ix_(data.keep_idx, data.keep_idx)],
        np.linalg.inv(data.s_matrix), atol=1e-10)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_schur_rejects_singular_inner_block():
    m = np.eye(4)
    m[0, 0] = m[1, 1] = 0.0
    m[0, 1] = m[1, 0] = 0.0
    with pytest.raises(ASingular):
        schur_complement(m, [0, 1])
    with pytest.raises(ValueError):
        schur_complement(np.eye(3), [0, 1, 2])


def test_sandwich_check_random_family():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        m = _random_complex(rng, n)
        m = m / max(1.0, two_norm(m)) + 3.0 * np.eye(n)
        k = int(rng.integers(1, n))
        rep = sandwich_check(m, list(range(k)))
        assert rep.lower_holds and rep.upper_holds
        assert rep.s_inv_norm <= rep.m_inv_norm + 1e-6
        if rep.upper_applicable:
            assert rep.m_inv_norm < rep.upper_bound


def test_sandwich_upper_gated_on_contractions():
    m = np.array([[4.0, 3.5], [3.5, 4.0]])
    rep = sandwich_check(m, [0])
    assert not rep.upper_applicable
    assert rep.upper_holds  # vacuously
    assert rep.b_norm == pytest.approx(3.5)


# ---------------------------------------------------------------------------
# adjugate and determinant perturbation


def test_adjugate_2x2_closed_form():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(adjugate(m), [[4.0, -2.0], [-3.0, 1.0]])


@given(arrays(np.float64, (4, 4), elements=st.floats(-3, 3)))
@settings(max_examples=50, deadline=None)
def test_adjugate_identity(m):
    lhs = m @ adjugate(m)
    np.testing.assert_allclose(lhs, np.linalg.det(m) * np.eye(4),
                               atol=1e-8)


def test_hadamard_bound_modes():
    rng = np.random.default_rng(5)
    small = _random_complex(rng, 6)
    rep = hadamard_adjugate_check(small)
    assert rep.holds and rep.exact_max is not None
    assert rep.exact_max <= rep.entry_bound * (1 + 1e-9)
    assert rep.norm_bound == pytest.approx(6 * rep.entry_bound)
    big = _random_complex(rng, 10)
    rep_big = hadamard_adjugate_check(big)
    assert rep_big.exact_max is None and rep_big.holds


def test_det_perturbation_known_case():
    a = np.eye(2)
    b = np.array([[1e-3, 0.0], [0.0, 0.0]])
    rep = det_perturbation_check(a, b)
    assert rep.lhs == pytest.approx(1e-3)
    assert rep.eps_row == pytest.approx(1e-3)
    assert rep.holds


def test_det_perturbation_random():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        rep = det_perturbation_check(_random_complex(rng, n),
                                     1e-2 * _random_complex(rng, n))
        assert rep.holds


# ---------------------------------------------------------------------------
# Combes-Thomas


def test_combes_thomas_holds_off_spectrum(weak_model, small_window):
    rest = assemble_restriction(weak_model, small_window, 0.113, 0.0)
    rep = combes_thomas_check(rest.matrix, small_window.sites, 0.3 + 1.2j,
                              0.75, 2.0, 0.53)
    assert rep.dist_to_spectrum >= 1.2
    assert rep.denominator > 0
    assert rep.holds and rep.violations == 0


def test_combes_thomas_rejects_near_spectrum(weak_model, small_window):
    rest = assemble_restriction(weak_model, small_window, 0.113, 0.0)
    spec = np.linalg.eigvalsh(rest.matrix)
    z = complex(spec[3], 1e-6)
    with pytest.raises(DenominatorNonpositive):
        combes_thomas_check(rest.matrix, small_window.sites, z,
                            0.75, 2.0, 0.53)


def test_combes_thomas_needs_hermitian(small_window):
    n = small_window.n_sites
    with pytest.raises(NotHermitian):
        combes_thomas_check(np.triu(np.ones((n, n))), small_window.sites,
                            2.0j, 0.5, 2.0, 0.53)


# ---------------------------------------------------------------------------
# Neumann series


def test_neumann_matches_direct_inverse():
    rng = np.random.default_rng(7)
    diag = rng.uniform(1.0, 2.0, 9)
    w = _random_complex(rng, 9)
    np.fill_diagonal(w, 0.0)
    data = neumann_inverse(diag, w, 1e-2)
    direct = np.linalg.inv(np.diag(diag) + 1e-2 * w)
    err = float(np.max(np.abs(data.matrix - direct)))
    assert err <= max(data.remainder_bound, 1e-12)
    assert data.contraction < 1.0
    assert data.residual < 1e-10


def test_neumann_guards():
    rng = np.random.default_rng(8)
    w = _random_complex(rng, 5)
    with pytest.raises(NotContractive):
        neumann_inverse(np.full(5, 0.1), w, 1.0)
    with pytest.raises(Singular):
        neumann_inverse(np.array([1.0, 0.0, 1.0]), np.zeros((3, 3)), 0.1)
    with pytest.raises(NonConvergence):
        neumann_inverse(np.ones(5), w, 0.05, max_terms=1)


# ---------------------------------------------------------------------------
# evenness and decay


def test_determinant_evenness_integer_box(weak_model):
    sites = box_around(np.zeros(1), 5).sites
    rep = determinant_evenness_check(weak_model, sites, 0.37 - 0.11j, 0.3)
    assert rep.passed and rep.rel_defect <= 1e-8


def test_determinant_evenness_half_lattice_frame(weak_model):
    frame = (np.arange(-6, 6)[:, None] + 0.5).astype(float)
    rep = determinant_evenness_check(weak_model, frame, 0.21j)
    assert rep.passed


def test_determinant_evenness_rejects_asymmetry(weak_model):
    with pytest.raises(AsymmetricBox):
        determinant_evenness_check(weak_model, np.array([[0], [1]]), 0.2)


def test_decay_scan_envelope_recovery():
    sites = np.arange(-10, 11)[:, None].astype(float)
    d = pairwise_sup_dist(sites)
    g = np.exp(-0.8 * np.log1p(d) ** 2)
    loose = decay_scan(g, sites, 0.7, 2.0)
    assert loose.holds and loose.violations == 0
    assert loose.fitted_alpha == pytest.approx(0.8, rel=1e-6)
    tight = decay_scan(g, sites, 0.9, 2.0)
    assert not tight.holds
    assert tight.worst_pair is not None
    assert tight.max_log_excess > 0


def test_decay_scan_threshold_exempts_core():
    sites = np.arange(-4, 5)[:, None].astype(float)
    g = np.ones((9, 9))
    rep = decay_scan(g, sites, 1.0, 2.0, threshold=8.0)
    assert rep.n_pairs == 0 and rep.holds
