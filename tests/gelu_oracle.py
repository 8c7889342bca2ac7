"""Float32 GELU oracles: Phi from the rational erf and GELU's VJP, each one
full-size step at a time, and the edge values that test their NaN, sign,
zero and clamp handling."""
import numpy as np

from odsr.engine import ops


def rational_phi(x):
    """Phi of float32 ``x`` as the forward's rational erf computes it, one
    full-size step at a time: t = clip(x/√2, ±4), Phi = t·P(t²)/Q(t²) + ½."""
    t = np.clip(x * np.float32(ops._INV_SQRT2), -4.0, 4.0)
    t2 = t * t
    p, q = np.empty_like(t), np.empty_like(t)
    ops._horner(t2, ops._ERF_HALF_P, p)
    p *= t
    ops._horner(t2, ops._ERF_Q, q)
    phi = p / q
    phi += 0.5
    return phi


def gelu_vjp_oracle(x, phi, g):
    """float32 GELU VJP g * (phi + x * exp(-0.5 * x * x) * c), one
    full-size step at a time, as numpy evaluates that one expression on
    arrays past its temporary-elision size: each temporary is reused in
    place, so ``phi + t`` and ``g * t`` run as ``t += phi`` and ``t *= g``.
    Which of two NaNs a loop returns depends on that operand order."""
    t = -0.5 * x
    t *= x
    dens = np.exp(t)
    dens *= np.float32(1.0 / np.sqrt(2.0 * np.pi))
    s = x * dens
    s += phi
    s *= g
    return s


GELU_EDGES = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-40, -1e-45,
              6.0, -6.0, 1e4, -1e4]  # past 4√2 the rational erf is clamped
