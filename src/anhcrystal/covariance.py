"""Finite-volume harmonic covariance in Matsubara-series and closed forms.

The reference Gaussian process on site j, imaginary time tau has covariance

    G(j, k; tau) = sum_modes  W(mode; j, k)  T(eps(mode), tau),

one sum over the box's spatial modes of a spatial weight times the periodic
temporal factor

    T(eps, tau) = [e^{-|tau| sqrt(eps)} + e^{-(beta_hat - |tau|) sqrt(eps)}]
                  / (2 sqrt(eps) (1 - e^{-beta_hat sqrt(eps)})),

equivalently the Matsubara sum (1/beta_hat) sum_n cos(2 pi n tau / beta_hat) /
((2 pi n / beta_hat)^2 + eps).  beta_hat = inf uses the limit
e^{-|tau| sqrt(eps)} / (2 sqrt(eps)).  The spatial weight is a product over
axes of one table W_mu[p, j, k] (``CovarianceKernel.mode_weights``): plane
waves on periodic axes, the orthonormal sine modes of the clamped discrete
Laplacian on Dirichlet axes.  The closed form, the Matsubara sum and the dense
grid matrices all read that table.

Interpolated covariances weaken the coupling between rod blocks with
parameters s in [0, 1]: points in blocks l < m are multiplied by
s_l s_{l+1} ... s_{m-1}, so the interpolated kernel is
``base * p_matrix(labels, s)``.  Such a kernel is a convex combination of
block-diagonal restrictions of the original kernel
(``convex_decomposition``) and therefore positive semidefinite for free.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .lattice import Boundary, Lattice, dispersion_grid

SPECTRUM_TOLERANCE = 1e-10
MAX_DECOMPOSITION_BLOCKS = 12  # convex_decomposition enumerates 2^n terms


def temporal_factor(eps, tau, beta_hat):
    """Periodic-in-time covariance factor for mode energy eps; overflow safe."""
    eps = np.asarray(eps, dtype=float)
    lam = np.sqrt(eps)
    if math.isinf(beta_hat):
        return np.exp(-abs(tau) * lam) / (2.0 * lam)
    t = abs(tau) % beta_hat
    num = np.exp(-t * lam) + np.exp(-(beta_hat - t) * lam)
    den = 2.0 * lam * -np.expm1(-beta_hat * lam)
    return num / den


def temporal_factor_matsubara(eps, tau, beta_hat, n_max: int):
    """Partial Matsubara sum over frequencies |n| <= n_max."""
    if math.isinf(beta_hat):
        raise ValueError("Matsubara sums need finite beta_hat; use the closed form")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    eps = np.asarray(eps, dtype=float)
    n = np.arange(1, n_max + 1)
    omega_sq = (2.0 * math.pi * n / beta_hat) ** 2
    terms = np.cos(2.0 * math.pi * tau * n / beta_hat) / np.add.outer(eps, omega_sq)
    return (1.0 / beta_hat) * (1.0 / eps + 2.0 * terms.sum(axis=-1))


class CovarianceKernel:
    """Covariance of the reference Gaussian trajectory field on a finite box.

    Immutable after construction; evaluation is lazy from the spatial
    spectrum.  The kernel depends on the anharmonicity only through beta_hat.
    """

    def __init__(self, lattice: Lattice, a: float, J: float, beta_hat: float):
        if a <= 0:
            raise ValueError("harmonic constant a must be positive")
        if J < 0:
            raise ValueError("coupling J must be nonnegative")
        if not (beta_hat > 0):
            raise ValueError("beta_hat must be positive (inf allowed)")
        self.lattice = lattice
        self.a = float(a)
        self.J = float(J)
        self.beta_hat = float(beta_hat)

    @property
    def boundary(self) -> Boundary:
        return self.lattice.boundary

    @cached_property
    def eps_grid(self) -> np.ndarray:
        """Mode energies, shape ``dims`` (FFT order periodic, sine order Dirichlet)."""
        return dispersion_grid(self.lattice, self.a, self.J)

    def mode_weights(self, mu: int, j, k) -> np.ndarray:
        """The spatial mode table of axis mu, W_mu[p, j, k], modes first.

        Modes are ordered as ``eps_grid``; j and k broadcast.  Periodic axes
        hold cos(2 pi p (j - k) / n) / n: the sine parts of the plane waves
        cancel in every mode sum because eps is even in each k_mu.  Dirichlet
        axes hold v[p, j] v[p, k] with v the orthonormal sine modes of the
        clamped Laplacian.  Entries are computed on demand, so ``closed`` costs
        O(n) per axis and only ``grid_matrix`` holds a whole n^3 table.
        """
        n = self.lattice.dims[mu]
        j, k = np.asarray(j), np.asarray(k)
        p = np.arange(n).reshape((n,) + (1,) * max(j.ndim, k.ndim))
        if self.boundary is Boundary.PERIODIC:
            return np.cos(2.0 * math.pi * p / n * (j - k)) / n

        def v(x):  # sine mode p at coordinate x
            return math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (p + 1) * (x + 1) / (n + 1))

        return v(j) * v(k)

    def _site_weights(self, j, k) -> np.ndarray:
        """Weight of each spatial mode for the pair of sites (j, k), shape ``dims``."""
        w = np.ones(())
        for mu, (j_mu, k_mu) in enumerate(zip(np.atleast_1d(j), np.atleast_1d(k))):
            w = np.multiply.outer(w, self.mode_weights(mu, j_mu, k_mu))
        return w

    def closed(self, j, k, tau) -> float:
        """Closed-form covariance between (site j, time 0) and (site k, time tau)."""
        w = self._site_weights(j, k)
        return float(np.sum(w * temporal_factor(self.eps_grid, tau, self.beta_hat)))

    def matsubara(self, j, k, tau, n_max: int) -> float:
        """Partial Matsubara-sum covariance; truncation error is O(1/n_max)."""
        if self.boundary is not Boundary.PERIODIC:
            raise ValueError("Matsubara evaluation is defined for periodic boxes")
        if abs(tau) > self.beta_hat:
            raise ValueError("|tau| must not exceed beta_hat")
        w = self._site_weights(j, k)
        return float(np.sum(w * temporal_factor_matsubara(
            self.eps_grid, tau, self.beta_hat, n_max)))

    def time_integral_profile(self) -> np.ndarray:
        """I(j) = integral over one time period of G(0, j; tau), all j.

        Uses the exact per-mode integral 1/eps of the temporal factor.
        """
        if self.boundary is not Boundary.PERIODIC:
            raise ValueError("time-integral profiles need a periodic box")
        if math.isinf(self.beta_hat):
            return np.fft.ifftn(1.0 / (2.0 * self.eps_grid)).real
        return np.fft.ifftn(1.0 / self.eps_grid).real

    def integrated_covariance(self) -> float:
        """Sum over sites of the time-integrated covariance.

        Only the zero spatial mode and zero Matsubara frequency survive, so the
        value is 1/a for every finite beta_hat, box size, and J (and 1/(2a) at
        beta_hat = inf).
        """
        return float(self.time_integral_profile().sum())

    def log_partition(self, d: int) -> float:
        """log of the harmonic normalization, ground energy subtracted.

        Equals -d * sum_modes log(1 - e^{-beta_hat sqrt(eps)}); tends to 0 as
        beta_hat -> inf.
        """
        if math.isinf(self.beta_hat):
            return 0.0
        lam = np.sqrt(self.eps_grid)
        return float(-d * np.sum(np.log(-np.expm1(-self.beta_hat * lam))))

    # -- grid restrictions ---------------------------------------------------

    def temporal_table(self, n_slices: int) -> np.ndarray:
        """Temporal factor at grid lags, shape (*dims, n_slices)."""
        if math.isinf(self.beta_hat):
            raise ValueError("grid restrictions require finite beta_hat")
        dt = self.beta_hat / n_slices
        return temporal_factor(self.eps_grid[..., None], dt * np.arange(n_slices), self.beta_hat)

    def grid_eigenvalues(self, n_slices: int) -> np.ndarray:
        """Spectrum of the grid-restricted kernel under space x time Fourier modes.

        The restriction of the covariance to an equispaced time grid is
        circulant in time; its eigenvalues are the DFT of the temporal table
        and must be nonnegative.  A genuinely negative weight signals a kernel
        bug and raises.
        """
        lam = np.fft.fft(self.temporal_table(n_slices), axis=-1).real
        floor = -SPECTRUM_TOLERANCE * float(lam.max())
        if lam.min() < floor:
            raise ValueError(f"grid spectrum has negative weight {lam.min():.3e}")
        return np.clip(lam, 0.0, None)

    def grid_matrix(self, points, n_slices: int) -> np.ndarray:
        """Dense covariance among grid points given as (site_index, slice) pairs.

        The mode sum runs once per (lag, site, site) triple; each entry is then
        G[a, b] = table[(t_a - t_b) mod n_slices, s_a, s_b].
        """
        nu, n_sites = self.lattice.nu, self.lattice.n_sites
        # einsum axes: modes 0..nu-1, sites j nu..2nu-1, sites k 2nu..3nu-1, lag 3nu
        operands = [self.temporal_table(n_slices), [*range(nu), 3 * nu]]
        for mu, n in enumerate(self.lattice.dims):
            x = np.arange(n)
            operands += [self.mode_weights(mu, x[:, None], x), [mu, nu + mu, 2 * nu + mu]]
        table = np.einsum(*operands, [3 * nu, *range(nu, 3 * nu)], optimize=True)
        table = table.reshape(n_slices, n_sites, n_sites)
        sites, slices = np.asarray(list(points), dtype=int).T
        lag = slices[:, None] - slices[None, :]
        lag %= n_slices
        return table[lag, sites[:, None], sites[None, :]]


# -- interpolated kernels ----------------------------------------------------


def p_matrix(block_of: np.ndarray, s) -> np.ndarray:
    """Matrix of p-factors for points labelled by their block index (per row of a 2-d s)."""
    s = np.asarray(s, dtype=float)
    n_blocks = int(block_of.max()) + 1
    table = np.ones(s.shape[:-1] + (n_blocks, n_blocks))
    for l in range(n_blocks):
        for m in range(l + 1, n_blocks):
            table[..., l, m] = table[..., m, l] = np.prod(s[..., l:m], axis=-1)
    return table[..., block_of[:, None], block_of[None, :]]


def convex_decomposition(s):
    """Write the interpolated kernel as a convex mix of block-diagonal kernels.

    Every choice sigma in {0,1}^n of "keep" (weight s_k) or "cut" (weight
    1 - s_k) between consecutive blocks contributes one term whose kernel
    keeps only couplings inside the resulting runs of blocks.  Weights are
    the monomials prod s_k^(sigma_k) (1-s_k)^(1-sigma_k) and sum to one.

    Returns a list of (weight, partition) with partition a tuple of runs,
    each run a tuple of block labels (labels 0..n for the n+1 blocks).
    """
    n = len(s)
    if n > MAX_DECOMPOSITION_BLOCKS:
        raise ValueError(f"convex decomposition enumerates 2^n terms; n={n} too large")
    out = []
    s = np.asarray(s, dtype=float)
    for sigma in itertools.product((0, 1), repeat=n):
        weight = float(np.prod(np.where(np.asarray(sigma) == 1, s, 1.0 - s)))
        runs = []
        current = [0]
        for k in range(n):
            if sigma[k] == 1:
                current.append(k + 1)
            else:
                runs.append(tuple(current))
                current = [k + 1]
        runs.append(tuple(current))
        out.append((weight, tuple(runs)))
    return out


def decomposition_matrix(base: np.ndarray, labels: np.ndarray, decomposition) -> np.ndarray:
    """Reassemble sum_i lambda_i (block-diagonal restriction of base) for verification."""
    out = np.zeros_like(base)
    for weight, runs in decomposition:
        if weight == 0.0:
            continue
        for run in runs:
            idx = np.where(np.isin(labels, run))[0]
            out[np.ix_(idx, idx)] += weight * base[np.ix_(idx, idx)]
    return out
