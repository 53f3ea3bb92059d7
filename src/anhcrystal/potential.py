"""The nonpolynomial one-site potential and its derivative machinery.

The anharmonic part is V(q) = b exp(-delta q^2 / 2); after the light-mass
rescaling it reads b_m exp(-delta_m x^2 / 2).  The scalar prototype
X(x) = -b_m exp(-delta_m x^2 / 2) drives the derivative bounds used by the
expansion estimates: with I_n = exp(delta_m x^2 / 4) X^(n),

    I_n = -delta_m x I_{n-1} - (n - 1) delta_m I_{n-2},

and |X^(n)| <= b_m 2^n delta_m^(n/2) sqrt(n!) e^{-delta_m x^2/4}, while for
n >= 1 the full Gibbs factor obeys
|d^n/dx^n e^X| <= 2^n b_m delta_m^(n/2) n! e^{-delta_m x^2/4} once b_m < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e
from scipy.special import roots_hermite

MAX_DERIVATIVE_ORDER = 30


def potential(q, b: float, delta: float) -> float:
    """Unrescaled anharmonic one-site potential b exp(-delta |q|^2 / 2)."""
    q = np.asarray(q, dtype=float)
    return float(b * math.exp(-0.5 * delta * float(np.dot(q.ravel(), q.ravel()))))


def gaussian_representation_check(q, b: float, delta: float):
    """Evaluate the Gaussian-integral form of the potential by quadrature.

    The identity b * E_alpha[ exp(i sqrt(delta) alpha . q) ] with alpha a
    standard Gaussian on R^d factorizes over components, so each axis is a
    one-dimensional 64-node Gauss-Hermite quadrature.  Returns (lhs, rhs,
    |lhs-rhs|).
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    nodes, weights = roots_hermite(64)
    lhs = b
    for q_mu in q:
        # alpha = sqrt(2) t maps the e^{-t^2} weight onto the standard Gaussian
        vals = np.cos(math.sqrt(delta) * math.sqrt(2.0) * nodes * q_mu)
        lhs *= float(np.sum(weights * vals) / math.sqrt(math.pi))
    rhs = potential(q, b, delta)
    return lhs, rhs, abs(lhs - rhs)


def nth_derivative(x, n: int, b_m: float, delta_m: float):
    """n-th derivative of the scalar prototype X(x) = -b_m e^{-delta_m x^2/2}.

    Uses the two-term recursion for I_n = e^{delta_m x^2/4} X^(n); factorial
    growth caps the order at 30.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order capped at {MAX_DERIVATIVE_ORDER}")
    x = np.asarray(x, dtype=float)
    i_prev = -b_m * np.exp(-0.25 * delta_m * x ** 2)
    if n == 0:
        return i_prev * np.exp(-0.25 * delta_m * x ** 2)
    i_curr = -delta_m * x * i_prev
    for order in range(2, n + 1):
        i_next = -delta_m * x * i_curr - (order - 1) * delta_m * i_prev
        i_prev, i_curr = i_curr, i_next
    return i_curr * np.exp(-0.25 * delta_m * x ** 2)


def nth_derivative_hermite(x, n: int, b_m: float, delta_m: float):
    """Same derivative through the probabilists' Hermite polynomials.

    X^(n)(x) = -b_m (-sqrt(delta_m))^n He_n(sqrt(delta_m) x) e^{-delta_m x^2/2};
    an independent closed form used to cross-check the recursion.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    he = hermite_e.hermeval(math.sqrt(delta_m) * x, coeffs)
    return -b_m * (-math.sqrt(delta_m)) ** n * he * np.exp(-0.5 * delta_m * x ** 2)


def gibbs_factor_derivatives(x, n: int, b_m: float, delta_m: float):
    """Derivatives d^r/dx^r e^{X(x)} for r = 0..n by Leibniz accumulation.

    E_r = sum_k C(r-1, k) X^(r-k) E_k, the product rule applied to
    (e^X)' = X' e^X; returns an array of shape (n+1, *x.shape).
    """
    x = np.asarray(x, dtype=float)
    xder = [nth_derivative(x, r, b_m, delta_m) for r in range(1, n + 1)]
    out = np.empty((n + 1,) + x.shape)
    out[0] = np.exp(-b_m * np.exp(-0.5 * delta_m * x ** 2))
    for r in range(1, n + 1):
        acc = np.zeros_like(x)
        for k in range(r):
            acc += math.comb(r - 1, k) * xder[r - 1 - k] * out[k]
        out[r] = acc
    return out


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    first_violation: tuple | None  # (which bound, order n, x, lhs, rhs)
    max_ratio: float


def derivative_bound_check(n_max: int, grid, b_m: float, delta_m: float) -> BoundReport:
    """Check the prototype and Gibbs-factor derivative bounds on a grid.

    The prototype bound is checked for n = 0..n_max, the Gibbs-factor bound
    for n = 1..n_max (at n = 0 it would read e^X <= b_m e^{-...}, which fails
    for b_m < 1; the bound is stated for genuine derivatives).  The latter
    assumes b_m < 1.
    """
    x = np.asarray(grid, dtype=float)
    envelope = np.exp(-0.25 * delta_m * x ** 2)
    eder = gibbs_factor_derivatives(x, n_max, b_m, delta_m)
    # (bound, n, derivative, its bound over the envelope)
    bounds = [("prototype", n, nth_derivative(x, n, b_m, delta_m),
               b_m * 2.0 ** n * delta_m ** (n / 2.0) * math.sqrt(math.factorial(n)))
              for n in range(n_max + 1)]
    bounds += [("gibbs-factor", n, eder[n],
                2.0 ** n * b_m * delta_m ** (n / 2.0) * math.factorial(n))
               for n in range(1, n_max + 1)]
    max_ratio = 0.0
    for name, n, derivative, factor in bounds:
        lhs = np.abs(derivative)
        rhs = factor * envelope
        ratio = lhs / np.where(rhs > 0, rhs, np.inf)
        max_ratio = max(max_ratio, float(ratio.max(initial=0.0)))
        bad = np.where(lhs > rhs * (1.0 + 1e-12))[0]
        if bad.size:
            i = int(bad[0])
            return BoundReport(False, (name, n, float(x[i]), float(lhs[i]), float(rhs[i])),
                               max_ratio)
    return BoundReport(True, None, max_ratio)


def auxiliary_potential(x, y, b_m: float, delta_m: float) -> float:
    """Doubled one-site potential b_m [e^{-d(x+y)^2/4} + e^{-d(x-y)^2/4}].

    Symmetric under y -> -y; reduces to 2 b_m e^{-delta_m x^2/4} at y = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sq_plus = float(np.dot(x + y, x + y))
    sq_minus = float(np.dot(x - y, x - y))
    return float(b_m * (math.exp(-0.25 * delta_m * sq_plus) +
                        math.exp(-0.25 * delta_m * sq_minus)))


def finite_difference_derivative(f, x, n: int, h: float):
    """High-order central finite-difference n-th derivative of a callable.

    The stencil has 2 ((n + 7) // 2) + 1 points, n + 7 or n + 8; solves the
    small Vandermonde system for its weights.  Used as the independent oracle
    against the analytic recursion.
    """
    half = (n + 7) // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    v = np.vander(offsets, len(offsets), increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[n] = math.factorial(n)
    w = np.linalg.solve(v, rhs)
    x = np.asarray(x, dtype=float)
    vals = np.stack([f(x + o * h) for o in offsets])
    return np.tensordot(w, vals, axes=1) / h ** n
