"""Distances on the torus R/Z and its complex thickening.

The lattice models here sample a 1-periodic analytic function along an
irrational rotation, so every smallness test is a distance to the nearest
integer.  For complex arguments the imaginary part enters in quadrature:

    ||z||_T = sqrt(||Re z||_T^2 + (Im z)^2)

All helpers accept scalars or arrays and preserve the input's shape.
"""

from __future__ import annotations

import numpy as np


def frac_dist(x):
    """Distance from each entry of ``x`` to the nearest integer."""
    x = np.asarray(x, dtype=float)
    out = np.abs(x - np.rint(x))
    return float(out) if out.ndim == 0 else out


def torus_norm(z):
    """The torus norm ``||z||_T`` for real or complex ``z``."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        out = np.hypot(np.abs(z.real - np.rint(z.real)), z.imag)
    else:
        zf = z.astype(float, copy=False)
        out = np.abs(zf - np.rint(zf))
    return float(out) if out.ndim == 0 else out


def log_torus_norm(z):
    """Natural log of the torus norm, with ``log 0 = -inf`` kept quiet.

    Resonance thresholds live in log-domain (delta_s underflows in paper
    mode), so comparisons are done as ``log||.||_T < log delta``.
    """
    with np.errstate(divide="ignore"):
        out = np.log(torus_norm(z))
    return float(out) if np.ndim(out) == 0 else out


def wrap_to_unit(x):
    """Reduce the real part of ``x`` into [0, 1)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        out = np.mod(x.real, 1.0) + 1j * x.imag
    else:
        out = np.mod(x.astype(float, copy=False), 1.0)
    return complex(out) if out.ndim == 0 and np.iscomplexobj(x) else (
        float(out) if out.ndim == 0 else out)


def wrap_to_symmetric(x):
    """Reduce the real part of ``x`` into [-1/2, 1/2)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        re = np.mod(x.real + 0.5, 1.0) - 0.5
        out = re + 1j * x.imag
        return complex(out) if out.ndim == 0 else out
    out = np.mod(x.astype(float, copy=False) + 0.5, 1.0) - 0.5
    return float(out) if out.ndim == 0 else out


def canonical_root(z: complex) -> complex:
    """Representative of the root pair {z, -z} mod 1: Re in [0, 1/2].

    The real part is reduced exactly and snapped to 0 or 1/2 within
    ``2**-40`` (about 9.1e-13) before the sign of Im is fixed on those
    seams.  Rounding ``z + 1`` still moves Re by up to ~4e-16, so inputs
    that close to the snap edge can land on opposite sides; a power of two
    keeps decimal inputs such as 1e-12 or 0.5 - 1e-12 off that edge.  Zero
    parts are unsigned, so one root never prints as both 0.0 and -0.0.
    """
    re = z.real - round(z.real)
    if abs(re) < 2.0 ** -40:
        re = 0.0
    elif abs(abs(re) - 0.5) < 2.0 ** -40:
        re = 0.5
    z = complex(re, z.imag) if re >= 0.0 else complex(-re, -z.imag)
    if z.real in (0.0, 0.5) and z.imag < 0.0:
        z = z.conjugate()
    return z + 0.0
