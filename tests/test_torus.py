"""Torus distance helpers: wrapping, norms, and their edge cases."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplab.model import PotentialSpec, solve_phase_for_energy
from qplab.torus import (
    canonical_root,
    frac_dist,
    log_torus_norm,
    torus_norm,
    wrap_to_symmetric,
    wrap_to_unit,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def test_frac_dist_known_values():
    assert frac_dist(0.0) == 0.0
    assert frac_dist(0.5) == 0.5
    assert frac_dist(2.25) == 0.25
    assert frac_dist(-2.25) == 0.25
    assert frac_dist(7.0) == 0.0


def test_frac_dist_array_shape():
    x = np.array([[0.1, 0.9], [1.5, -0.4]])
    out = frac_dist(x)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out, [[0.1, 0.1], [0.5, 0.4]], atol=1e-15)


@given(finite)
def test_frac_dist_integer_shift_invariance(x):
    assert frac_dist(x + 3.0) == pytest.approx(frac_dist(x), abs=1e-9)


@given(finite)
def test_frac_dist_bounded_by_half(x):
    assert 0.0 <= frac_dist(x) <= 0.5


def test_torus_norm_real_matches_frac_dist():
    xs = np.linspace(-3, 3, 101)
    np.testing.assert_array_equal(torus_norm(xs), frac_dist(xs))


def test_torus_norm_complex_quadrature():
    z = 0.3 + 0.4j
    assert torus_norm(z) == pytest.approx(0.5, abs=1e-15)
    # real part wraps before entering the quadrature
    assert torus_norm(5.3 + 0.4j) == pytest.approx(0.5, abs=1e-12)


@given(finite, st.floats(min_value=-100, max_value=100,
                         allow_nan=False, allow_infinity=False))
def test_torus_norm_complex_dominates_parts(re, im):
    n = torus_norm(re + 1j * im)
    assert n >= abs(im) - 1e-12
    assert n >= frac_dist(re) - 1e-12


def test_log_torus_norm_zero_is_quietly_minus_inf():
    with np.errstate(divide="raise"):
        assert log_torus_norm(0.0) == -math.inf
        assert log_torus_norm(4.0) == -math.inf


def test_log_torus_norm_matches_log():
    assert log_torus_norm(0.25) == pytest.approx(math.log(0.25))
    out = log_torus_norm(np.array([0.5, 0.1]))
    np.testing.assert_allclose(out, np.log([0.5, 0.1]))


@given(finite)
def test_wrap_to_unit_range(x):
    # np.mod may return the right endpoint for tiny negative inputs
    w = wrap_to_unit(x)
    assert 0.0 <= w <= 1.0
    assert frac_dist(w - x) < 1e-6


@given(finite)
def test_wrap_to_symmetric_range(x):
    w = wrap_to_symmetric(x)
    assert -0.5 <= w <= 0.5
    assert frac_dist(w - x) < 1e-6


def test_wrapping_preserves_imaginary_part():
    z = 1.7 - 0.3j
    assert wrap_to_unit(z) == pytest.approx(0.7 - 0.3j)
    assert wrap_to_symmetric(z) == pytest.approx(-0.3 - 0.3j)


@given(finite, finite)
def test_torus_norm_triangle_inequality(x, y):
    assert torus_norm(x + y) <= torus_norm(x) + torus_norm(y) + 1e-9


def _same_root_pair(w, v) -> bool:
    """Whether ``w`` and ``v`` name the same root pair {z, -z} mod 1."""
    def red(u):
        return complex(u.real - math.floor(u.real + 0.5), u.imag)
    return min(abs(red(v - w)), abs(red(v + w))) <= 1e-11


@given(st.floats(-3, 3, allow_nan=False), st.floats(-1, 1, allow_nan=False))
@example(re=1e-12, im=-1.0)
@example(re=9.094946017729283e-13, im=-1.0)
@example(re=1.0, im=0.0)
@example(re=-1.0, im=0.0)
@example(re=0.3, im=0.0)
@example(re=0.3, im=-0.0)
@example(re=2.0, im=0.0)
@example(re=-2.0, im=0.0)
@example(re=0.0, im=1.0)
@example(re=0.0, im=-1.0)
@example(re=0.0, im=0.0)
@settings(max_examples=200, deadline=None)
def test_canonical_root_properties(re, im):
    # inputs at a snap seam may land on either representative of their
    # pair, so the symmetries are checked on pair classes, not raw values
    z = complex(re, im)
    w = canonical_root(z)
    assert 0.0 <= w.real <= 0.5
    assert _same_root_pair(w, z)
    assert _same_root_pair(canonical_root(-z), w)
    assert _same_root_pair(canonical_root(z + 1.0), w)
    assert canonical_root(w) == w
    assert math.copysign(1.0, w.imag) > 0.0 or w.imag != 0.0
    # read as an energy of the cosine, z has its phase root in the same
    # canonical form, a fixed point of the one representative map
    theta0 = solve_phase_for_energy(PotentialSpec.cosine(), z)
    assert repr(canonical_root(theta0)) == repr(theta0)
    resid = abs(cmath.cos(2.0 * math.pi * theta0) - z)
    assert resid <= 1e-9 * max(1.0, abs(z))
