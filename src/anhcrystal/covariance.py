"""Finite-volume harmonic covariance in Matsubara-series and closed forms.

The reference Gaussian process on site j, imaginary time tau has covariance

    G(j, k; tau) = (1/|L|) sum_modes  e^{i (j-k) . k_mode}  T(eps(k_mode), tau)

with the periodic temporal factor

    T(eps, tau) = [e^{-|tau| sqrt(eps)} + e^{-(beta_hat - |tau|) sqrt(eps)}]
                  / (2 sqrt(eps) (1 - e^{-beta_hat sqrt(eps)})),

equivalently the Matsubara sum (1/beta_hat) sum_n cos(2 pi n tau / beta_hat) /
((2 pi n / beta_hat)^2 + eps).  Dirichlet boxes replace the plane waves by the
orthonormal sine modes of the clamped discrete Laplacian, with the same
temporal factor.  beta_hat = inf uses the limit e^{-|tau| sqrt(eps)} /
(2 sqrt(eps)).

Interpolated covariances weaken the coupling between rod blocks with
parameters s in [0, 1]: points in blocks l < m are multiplied by
s_l s_{l+1} ... s_{m-1}.  Such a kernel is a convex combination of
block-diagonal restrictions of the original kernel and therefore positive
semidefinite for free.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Boundary, Lattice, dispersion_grid

SPECTRUM_TOLERANCE = 1e-10


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

    @cached_property
    def _sine_basis(self) -> list[np.ndarray]:
        """Per-axis orthonormal sine eigenvectors v[p, j] of the clamped Laplacian."""
        basis = []
        for n in self.lattice.dims:
            p = np.arange(1, n + 1)[:, None]
            j = np.arange(n)[None, :]
            basis.append(math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * p * (j + 1) / (n + 1)))
        return basis

    def _site_weights(self, j, k) -> np.ndarray:
        """Weight of each spatial mode for the pair of sites (j, k)."""
        j = tuple(np.atleast_1d(j))
        k = tuple(np.atleast_1d(k))
        if self.boundary is Boundary.PERIODIC:
            axes = []
            for mu, n in enumerate(self.lattice.dims):
                kvals = 2.0 * math.pi * np.arange(n) / n
                axes.append(np.cos(kvals * (j[mu] - k[mu])) +
                            1j * np.sin(kvals * (j[mu] - k[mu])))
            w = axes[0]
            for ax in axes[1:]:
                w = np.multiply.outer(w, ax)
            return w.real / self.lattice.n_sites
        w = np.ones(())
        for mu, v in enumerate(self._sine_basis):
            w = np.multiply.outer(w, v[:, j[mu]] * v[:, k[mu]])
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

    def log_partition(self, d: int = 1) -> float:
        """log of the harmonic normalization, ground energy subtracted.

        Equals -d * sum_modes log(1 - e^{-beta_hat sqrt(eps)}); tends to 0 as
        beta_hat -> inf.
        """
        if math.isinf(self.beta_hat):
            return 0.0
        lam = np.sqrt(self.eps_grid)
        return float(-d * np.sum(np.log(-np.expm1(-self.beta_hat * lam))))

    # -- grid restrictions ---------------------------------------------------

    def _check_finite_time(self):
        if math.isinf(self.beta_hat):
            raise ValueError("grid restrictions require finite beta_hat")

    def temporal_table(self, n_slices: int) -> np.ndarray:
        """Temporal factor at grid lags, shape (*dims, n_slices)."""
        self._check_finite_time()
        dt = self.beta_hat / n_slices
        taus = dt * np.arange(n_slices)
        lam = np.sqrt(self.eps_grid)[..., None]
        t = taus[(None,) * self.lattice.nu + (slice(None),)]
        num = np.exp(-t * lam) + np.exp(-(self.beta_hat - t) * lam)
        den = 2.0 * lam * -np.expm1(-self.beta_hat * lam)
        return num / den

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

    def displacement_table(self, n_slices: int) -> np.ndarray:
        """G at grid lags: entry [dj..., ds] is Cov(phi(0, 0), phi(dj, ds*dt))."""
        if self.boundary is not Boundary.PERIODIC:
            raise ValueError("displacement tables need a periodic box")
        table = self.temporal_table(n_slices)
        axes = tuple(range(self.lattice.nu))
        return np.fft.ifftn(table, axes=axes).real

    def grid_matrix(self, points, n_slices: int) -> np.ndarray:
        """Dense covariance among grid points given as (site_index, slice) pairs."""
        self._check_finite_time()
        pts = list(points)
        if self.boundary is Boundary.PERIODIC:
            table = self.displacement_table(n_slices)
            coords = np.array([self.lattice.site_coords(s) for s, _ in pts])
            slices = np.array([sl for _, sl in pts])
            dims = np.asarray(self.lattice.dims)
            dc = (coords[:, None, :] - coords[None, :, :]) % dims
            ds = (slices[:, None] - slices[None, :]) % n_slices
            idx = tuple(dc[..., mu] for mu in range(self.lattice.nu)) + (ds,)
            return table[idx]
        # Dirichlet: mode sum over sine modes, circulant in time.
        table = self.temporal_table(n_slices).reshape(self.lattice.n_sites, n_slices)
        vmat = np.ones((1, 1))
        for v in self._sine_basis:
            vmat = np.kron(vmat, v)  # modes x sites, row-major on both
        sites = np.array([s for s, _ in pts])
        slices = np.array([sl for _, sl in pts])
        ds = (slices[:, None] - slices[None, :]) % n_slices
        weights = vmat[:, sites]  # (modes, n_pts)
        out = np.einsum("mi,mj,mij->ij", weights, weights, table[:, ds])
        return out


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


@dataclass(frozen=True)
class InterpolatedCovariance:
    """Base kernel restricted to a grid with inter-block couplings weakened.

    ``blocks`` lists the point sets Y_1 .. Y_n; grid points in none of them
    form the complement block Y_{n+1}.  ``s`` holds the n interpolation
    parameters; s = (1, ..., 1) reproduces the base kernel.
    """

    kernel: CovarianceKernel
    n_slices: int
    points: tuple  # (site_index, slice) pairs, the evaluation grid
    blocks: tuple  # tuple of tuples of point positions (indices into points)
    s: tuple

    def __post_init__(self):
        if len(self.s) != len(self.blocks):
            raise ValueError("need one interpolation parameter per named block")
        if any(not (0.0 <= x <= 1.0) for x in self.s):
            raise ValueError("interpolation parameters must lie in [0, 1]")

    @cached_property
    def block_of(self) -> np.ndarray:
        lab = np.full(len(self.points), len(self.blocks), dtype=int)
        for b, members in enumerate(self.blocks):
            lab[list(members)] = b
        return lab

    @cached_property
    def base_matrix(self) -> np.ndarray:
        return self.kernel.grid_matrix(self.points, self.n_slices)

    def matrix(self) -> np.ndarray:
        return self.base_matrix * p_matrix(self.block_of, self.s)


def convex_decomposition(ic: InterpolatedCovariance, max_blocks: int = 12):
    """Write the interpolated kernel as a convex mix of block-diagonal kernels.

    Every choice sigma in {0,1}^n of "keep" (weight s_k) or "cut" (weight
    1 - s_k) between consecutive blocks contributes one term whose kernel
    keeps only couplings inside the resulting runs of blocks.  Weights are
    the monomials prod s_k^(sigma_k) (1-s_k)^(1-sigma_k) and sum to one.

    Returns a list of (weight, partition) with partition a tuple of runs,
    each run a tuple of block labels (labels 0..n for the n+1 blocks).
    """
    n = len(ic.s)
    if n > max_blocks:
        raise ValueError(f"convex decomposition enumerates 2^n terms; n={n} too large")
    out = []
    s = np.asarray(ic.s, dtype=float)
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


def decomposition_matrix(ic: InterpolatedCovariance, decomposition) -> np.ndarray:
    """Reassemble sum_i lambda_i (block-diagonal kernel) for verification."""
    base = ic.base_matrix
    labels = ic.block_of
    out = np.zeros_like(base)
    for weight, runs in decomposition:
        if weight == 0.0:
            continue
        for run in runs:
            mask = np.isin(labels, run)
            idx = np.where(mask)[0]
            out[np.ix_(idx, idx)] += weight * base[np.ix_(idx, idx)]
    return out
