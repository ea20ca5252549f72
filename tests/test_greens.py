"""Green's function machinery: inversion, Schur, bounds, decay scans."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qplab import (
    combes_thomas_check,
    decay_scan,
    det_perturbation_check,
    determinant_evenness_check,
    green_solve,
    hadamard_adjugate_check,
    sandwich_check,
    schur_complement,
)
from qplab.errors import (
    ASingular,
    AsymmetricBox,
    DenominatorNonpositive,
    NotHermitian,
    Singular,
)
import qplab.greens
from qplab.greens import adjugate, two_norm
from qplab.model import (
    FrequencyVector,
    ModelSpec,
    assemble_restriction,
    box_around,
)
from qplab.lattice import pairwise_sup_dist, sup_distance_classes


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
    assert exact <= g.op_norm <= 1.01 * exact
    assert exact == pytest.approx(39.9098, rel=1e-5)


@given(st.sampled_from(["symmetric", "hermitian", "non-normal"]),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_green_solve_norm_is_certified(kind, n, seed, shift):
    """``op_norm`` bounds 1/sigma_min from above and, while the residual
    bound (about n u cond(T)) is small, lies within sqrt(n) of it."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n))
    if kind == "symmetric":
        t = t + t.T
    elif kind == "hermitian":
        t = t + 1j * rng.standard_normal((n, n))
        t = t + t.conj().T
    else:
        t = t + 3.0 * np.triu(rng.standard_normal((n, n)), 1)
    t = t + shift * np.eye(n)
    sigma = np.linalg.svd(t, compute_uv=False)
    exact, cond = 1.0 / sigma[-1], sigma[0] / sigma[-1]
    try:
        g = green_solve(t)
    except Singular:
        assert cond > 1e10
        return
    assert exact <= g.op_norm
    if cond < 1e8:
        assert g.op_norm <= math.sqrt(n) * exact * (1.0 + 1e-6)


def test_green_solve_refuses_large_residual_bound(monkeypatch):
    """An inverse off by 0.6 in one entry has a Frobenius residual below
    1e-8 ||T||_F ||G||_F for an ill-conditioned T, but its residual bound
    is not below 1/2: the LDL^T inverse (``sytri``) of a symmetric T and
    the LU inverse (``getri``) of a non-symmetric one."""
    real = qplab.greens.get_lapack_funcs
    for t, spoil in ((np.diag([1.0, 1e-10]), "sytri"),
                     (np.array([[1.0, 0.0], [1e-3, 1e-10]]), "getri")):
        def spoiled(names, arrays):
            funcs = list(real(names, arrays))
            inverse = funcs[names.index(spoil)]

            def inverse_off(*args, **kwargs):
                g, info = inverse(*args, **kwargs)
                g[0, 0] += 0.6
                return g, info
            funcs[names.index(spoil)] = inverse_off
            return funcs
        monkeypatch.setattr(qplab.greens, "get_lapack_funcs", spoiled)
        with pytest.raises(Singular, match="residual bound"):
            green_solve(t)
        g = np.linalg.inv(t)
        g[0, 0] += 0.6
        r = t @ g - np.eye(2)
        assert (np.linalg.norm(r)
                < 1e-8 * np.linalg.norm(t) * np.linalg.norm(g))
        assert np.linalg.norm(r, np.inf) >= 0.5


def test_green_solve_inverts():
    rng = np.random.default_rng(1)
    t = _random_complex(rng, 8) + 6.0 * np.eye(8)
    g = green_solve(t)
    np.testing.assert_allclose(g.matrix, np.linalg.inv(t), atol=1e-12)
    assert g.op_norm >= 1.0 / np.linalg.svd(t, compute_uv=False)[-1]


@pytest.mark.parametrize("t", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    # Bunch-Kaufman takes a 2 x 2 pivot at each zero diagonal entry
    np.array([[0.0, 2.0, 0.0, 1e-3], [2.0, 0.0, 1.0, 0.0],
              [0.0, 1.0, 0.0, 3.0], [1e-3, 0.0, 3.0, 0.0]]),
], ids=["swap", "indefinite"])
def test_green_solve_inverts_through_2x2_pivots(t):
    """A small diagonal entry is where Bunch-Kaufman chooses a 2 x 2 block
    of D; an orthogonal or well-conditioned indefinite T inverts, and its
    residual bound certifies the norm."""
    _, piv, _ = scipy.linalg.lapack.dsytrf(t)
    assert np.any(piv < 0)
    g = green_solve(t)
    np.testing.assert_allclose(g.matrix, np.linalg.inv(t), atol=1e-14)
    assert np.array_equal(g.matrix, g.matrix.T)
    assert g.op_norm >= 1.0 / np.linalg.svd(t, compute_uv=False)[-1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_green_solve_refuses_singular():
    """Besides bad input, only LAPACK's exact zero and the residual bound
    refuse a matrix, and no floating-point warning is raised on the way."""
    near_one = 1.0 - 2.0 ** -52
    for t, match in [
        (np.zeros((3, 3)), "zero or non-finite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "zero or non-finite"),
        (np.empty((0, 0)), "empty"),
        # an exact zero in D (LDL^T) and in U (LU), reported by LAPACK's info
        (np.array([[1.0, 1.0], [1.0, 1.0]]), "exactly zero"),
        (np.array([[1.0, 2.0], [1.0, 2.0]]), "exactly zero"),
        # 1/1e-320 overflows, so G holds an inf and the bound is NaN
        (np.diag([1.0, 1e-320]), "residual bound nan"),
        (np.diag([1.0, 1e-320]) + 0j, "residual bound nan"),
        # G is finite, but a column sum of |G| overflows
        (2.3e-293 * np.array([[1.0, near_one], [near_one, 1.0]]),
         "residual bound inf"),
    ]:
        with pytest.raises(Singular, match=match):
            green_solve(t)


def test_green_solve_has_no_pivot_gate():
    """A pivot 1e-15 times the largest entry does not refuse T: the
    residual bound, gamma ||T|| ||G|| = 0.22 here, is below 1/2, so
    ``op_norm`` certifies ``||T^{-1}||_2 = 1e15`` within a factor 2."""
    g = green_solve(np.diag([1.0, 1e-15]))
    assert 1e15 <= g.op_norm <= 2e15


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
        rep = sandwich_check(m, schur_complement(m, list(range(k))))
        assert rep.lower_holds and rep.upper_holds
        assert rep.s_inv_norm <= rep.m_inv_norm + 1e-6
        if rep.upper_applicable:
            assert rep.m_inv_norm < rep.upper_bound


def test_sandwich_upper_gated_on_contractions():
    m = np.array([[4.0, 3.5], [3.5, 4.0]])
    rep = sandwich_check(m, schur_complement(m, [0]))
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
    # det divides by zero inside LAPACK on a singular draw; 0 is right
    with np.errstate(divide="ignore"):
        det = np.linalg.det(m)
    np.testing.assert_allclose(lhs, det * np.eye(4), atol=1e-8)


def _cofactor_adjugate(m):
    """Adjugate by cofactor expansion, the textbook definition."""
    n = m.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=m.dtype)
    adj = np.empty_like(m)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            # det divides by zero inside LAPACK on a singular minor
            with np.errstate(divide="ignore", invalid="ignore"):
                adj[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _draw_stack(rng, batch, n, rank_deficient):
    """Complex matrices; the flagged ones have rank at most n - 1 or n - 2."""
    m = _random_complex(rng, int(np.prod(batch)) * n, n).reshape(
        batch + (n, n))
    flat = m.reshape(-1, n, n)
    for i in np.flatnonzero(rank_deficient.ravel()):
        r = max(0, n - 1 - i % 2)
        flat[i] = _random_complex(rng, n, r) @ _random_complex(rng, r, n)
    return m


def _assert_fields_match(stacked, single, index):
    for name in stacked.__dataclass_fields__:
        got, want = getattr(stacked, name), getattr(single, name)
        if name in ("inner_idx", "keep_idx"):
            np.testing.assert_array_equal(got, want)
            continue
        got = np.asarray(got)[index]
        if got.dtype == bool:
            assert got == want, name
        else:
            # the determinant defect is itself a rounding residual
            atol = 1e-14 if name == "det_defect" else 1e-300
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol,
                                       err_msg=name)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.sampled_from([(5,), (2, 3), (1,)]))
@settings(max_examples=40, deadline=None)
def test_stacked_checks_match_one_at_a_time(seed, n, batch):
    rng = np.random.default_rng(seed)
    deficient = rng.random(batch) < 0.4
    m = _draw_stack(rng, batch, n, deficient)
    scale = 10.0 ** rng.uniform(-2, 2, batch + (1, 1))
    m = m * scale
    adj = adjugate(m)
    hadamard = hadamard_adjugate_check(m)
    perturb = det_perturbation_check(m, 1e-3 * m[::-1])
    norms = two_norm(m)
    # a dominant diagonal keeps every eliminated block regular
    weight = np.abs(m).sum(axis=(-2, -1), keepdims=True) + 1e-300
    dominant = m / weight + 2.0 * np.eye(n)
    if n > 1:
        inner = rng.permutation(n)[:int(rng.integers(1, n))]
        schur = schur_complement(dominant, inner)
        sandwich = sandwich_check(dominant, schur)
    for index in np.ndindex(batch):
        one = m[index]
        scale_one = max(1.0, float(np.abs(one).max())) ** max(n - 1, 1)
        np.testing.assert_allclose(adj[index], _cofactor_adjugate(one),
                                   rtol=1e-9, atol=1e-11 * scale_one)
        np.testing.assert_allclose(adj[index], adjugate(one), rtol=1e-12,
                                   atol=1e-14 * scale_one)
        assert norms[index] == pytest.approx(two_norm(one), rel=1e-12)
        _assert_fields_match(hadamard, hadamard_adjugate_check(one), index)
        _assert_fields_match(perturb, det_perturbation_check(
            one, 1e-3 * m[::-1][index]), index)
        if n > 1:
            single = schur_complement(dominant[index], inner)
            _assert_fields_match(schur, single, index)
            _assert_fields_match(sandwich, sandwich_check(dominant[index],
                                                          single), index)


def test_hadamard_bound_modes():
    rng = np.random.default_rng(5)
    small = _random_complex(rng, 6)
    rep = hadamard_adjugate_check(small)
    assert rep.holds
    assert rep.exact_max <= rep.entry_bound * (1 + 1e-9)
    assert rep.norm_bound == pytest.approx(6 * rep.entry_bound)
    # every size is checked, n = 10 included
    big = _random_complex(rng, 10)
    rep_big = hadamard_adjugate_check(big)
    assert rep_big.holds
    assert rep_big.exact_max == pytest.approx(
        np.abs(_cofactor_adjugate(big)).max(), rel=1e-12)


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


@given(st.sampled_from(["symmetric", "hermitian"]), st.integers(1, 12),
       st.integers(0, 2 ** 32 - 1), st.floats(-3.5, 3.5),
       st.floats(-1.0, 1.0), st.integers(4, 12))
@settings(max_examples=150, deadline=None)
def test_combes_thomas_distance_is_certified(kind, n, seed, re_z, im_z,
                                             digits):
    """``dist_to_spectrum`` is at least ``|Im z|`` and at most the
    distance to the ``eigvalsh`` spectrum, up to that oracle's own
    backward error."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal((n, n))
    if kind == "hermitian":
        off = off + 1j * rng.standard_normal((n, n))
    off = off + off.conj().T
    off /= max(1.0, float(np.max(np.abs(off))))
    # a weak coupling keeps the weighted row sum term below 0.01
    h = np.diag(rng.uniform(-3.0, 3.0, n)) + 10.0 ** -digits * off
    z = complex(re_z, im_z)
    exact = float(np.min(np.abs(np.linalg.eigvalsh(h) - z)))
    assume(exact > 0.05)
    rep = combes_thomas_check(h, np.arange(n)[:, None], z, 0.1, 2.0, 0.5)
    assert abs(im_z) <= rep.dist_to_spectrum
    oracle_error = 4.0 * n * 2.0 ** -53 * float(np.max(np.abs(h).sum(axis=1)))
    assert rep.dist_to_spectrum <= exact + oracle_error
    assert rep.holds


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
    model2 = ModelSpec(weak_model.potential, weak_model.hopping,
                       FrequencyVector((0.618033988749895, 0.414213562373095),
                                       3.0, 0.05), weak_model.eps)
    frame = np.array([[-0.5, -0.5], [0.5, 0.5], [0.5, -0.5]])
    with pytest.raises(AsymmetricBox):
        determinant_evenness_check(model2, frame, 0.2)


def test_decay_scan_envelope_recovery():
    sites = np.arange(-10, 11)[:, None].astype(float)
    d = pairwise_sup_dist(sites)
    g = np.exp(-0.8 * np.log1p(d) ** 2)
    classes = sup_distance_classes(sites)
    loose = decay_scan(g, classes, 0.7, 2.0)
    assert loose.holds and loose.violations == 0
    # one row per distance past 0, at its largest entry
    assert loose.dists == tuple(range(1, 21))
    assert loose.peaks == pytest.approx(
        [math.exp(-0.8 * math.log1p(r) ** 2) for r in range(1, 21)],
        rel=1e-14)
    assert loose.bounds == tuple(math.exp(-0.7 * math.log1p(r) ** 2)
                                 for r in range(1, 21))
    tight = decay_scan(g, classes, 0.9, 2.0)
    assert not tight.holds and tight.violations == 20
    assert tight.worst_dist == 20
    assert tight.max_log_excess > 0


def test_decay_scan_threshold_exempts_core():
    sites = np.arange(-4, 5)[:, None].astype(float)
    g = np.ones((9, 9))
    rep = decay_scan(g, sup_distance_classes(sites), 1.0, 2.0, threshold=8.0)
    assert rep.dists == () and rep.holds
