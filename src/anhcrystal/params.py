"""Physical parameters, the light-mass rescaling, and closed-form thresholds.

The crystal Hamiltonian is fixed by (m, a, b, delta, J, beta, h) together with
the box geometry.  Substituting q = m^(-1/4) x removes the mass from the
kinetic and harmonic terms and pushes it into the anharmonic amplitude
b_m = b sqrt(m), the anharmonic width delta_m = delta / sqrt(m), the inverse
temperature beta_hat = beta / sqrt(m), and the field h_hat = m^(-1/4) h.
All convergence thresholds below are elementary functions of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, dispersion_grid


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the crystal (hbar = k_B = 1).

    ``beta = math.inf`` marks the ground state (T = 0).
    """

    m: float
    a: float
    b: float
    delta: float
    J: float
    beta: float
    h: tuple[float, ...] = (0.0,)
    d: int = 1
    nu: int = 1
    dims: tuple[int, ...] = (2,)

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(float(x) for x in self.h))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.a <= 0:
            raise ValueError("harmonic constant a must be positive")
        if self.J <= 0:
            raise ValueError("coupling J must be positive")
        if self.b < 0 or self.delta < 0:
            raise ValueError("anharmonic amplitude b and width delta must be >= 0")
        if not (self.beta > 0):
            raise ValueError("inverse temperature beta must be positive (inf allowed)")
        if self.d < 1 or self.nu < 1:
            raise ValueError("dimensions d and nu must be >= 1")
        if len(self.h) != self.d:
            raise ValueError("external field h must have d components")
        if len(self.dims) != self.nu:
            raise ValueError("dims must list one side length per direction")
        if any(n < 2 or n % 2 != 0 for n in self.dims):
            raise ValueError("box side lengths N_mu must be even positive integers "
                             "(N_mu / 2 a positive integer)")


@dataclass(frozen=True)
class RescaledParams:
    """Parameters after the light-mass substitution q = alpha x, alpha = m^(-1/4)."""

    alpha: float
    b_m: float
    delta_m: float
    beta_hat: float
    h_hat: tuple[float, ...]
    C_m: float

    @property
    def mass(self) -> float:
        return self.alpha ** -4


def rescale(p: ModelParams) -> RescaledParams:
    """Apply the light-mass rescaling to a parameter set.

    The rescaled additive constant C_m equals (d/2) Tr B for the harmonic
    lattice operator B = sqrt(a - J Lap) on the periodic box; with that choice
    the rescaled ground-state energy is zero.
    """
    if p.m <= 0:
        raise ValueError("mass m must be positive")
    root_m = math.sqrt(p.m)
    alpha = p.m ** -0.25
    eps = dispersion_grid(Lattice(nu=p.nu, dims=p.dims), p.a, p.J)
    trace_b = float(np.sum(np.sqrt(eps)))
    return RescaledParams(
        alpha=alpha,
        b_m=p.b * root_m,
        delta_m=p.delta / root_m,
        beta_hat=p.beta / root_m,
        h_hat=tuple(alpha * x for x in p.h),
        C_m=0.5 * p.d * trace_b,
    )


def unrescale(r: RescaledParams) -> dict:
    """Invert the light-mass substitution; returns the mass-dependent fields."""
    m = r.mass
    root_m = math.sqrt(m)
    return {
        "m": m,
        "b": r.b_m / root_m,
        "delta": r.delta_m * root_m,
        "beta": r.beta_hat * root_m,
        "h": tuple(x / r.alpha for x in r.h_hat),
    }


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not (value > 0):
            raise ValueError(f"{name} must be positive, got {value!r}")


def mass_threshold(b: float, a: float, C_G: float, c: float, d: int) -> float:
    """Light-mass threshold m* = (64 b sqrt(a) C_G e^c)^(-8/d).

    Below m* the cluster expansion's small parameter epsilon(m) e^c drops
    under 1.  The constant c bounds the partition-function ratio factors and
    is supplied by the caller.
    """
    _require_positive(b=b, a=a, C_G=C_G, d=d)
    base = 64.0 * b * math.sqrt(a) * C_G * math.exp(c)
    return base ** (-8.0 / d)


def epsilon_of_m(b: float, a: float, C_G: float, m: float, d: int) -> float:
    """Small parameter of the expansion, epsilon(m) = 64 b sqrt(a) C_G m^(d/8)."""
    _require_positive(b=b, a=a, C_G=C_G, d=d)
    if m < 0:
        raise ValueError("mass m must be nonnegative")
    return 64.0 * b * math.sqrt(a) * C_G * m ** (d / 8.0)


def field_threshold(m_star: float, h_norm: float, C_G: float, c: float) -> float:
    """Threshold with external field: min(m*, m* (|h| C_G e^(c+1))^(-4)).

    Equals m* whenever |h| C_G e^(c+1) <= 1; in particular at h = 0.
    """
    _require_positive(m_star=m_star, C_G=C_G)
    if h_norm < 0:
        raise ValueError("field magnitude must be nonnegative")
    scale = h_norm * C_G * math.exp(c + 1.0)
    if scale <= 1.0:
        return m_star
    return m_star * scale ** -4.0


def beta_threshold(b: float, a: float, C_G: float, c: float, d: int) -> float:
    """High-temperature threshold beta* = (64 b sqrt(a) C_G e^c)^(-2/d) = m*^(1/4)."""
    _require_positive(b=b, a=a, C_G=C_G, d=d)
    base = 64.0 * b * math.sqrt(a) * C_G * math.exp(c)
    return base ** (-2.0 / d)
