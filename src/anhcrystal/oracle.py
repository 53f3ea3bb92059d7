"""Independent ground truth: dense diagonalization for one or two sites.

The rescaled one-site Hamiltonian (d = 1) is discretized on a real-space grid
with a fourth-order Laplacian stencil.  Two sites use the product basis of the
k lowest one-site states, with energies E and matrix elements X of x and X^2
of x^2: H = E(x)1 + 1(x)E + J (X^2(x)1 + 1(x)X^2 - 2 X(x)X).  Every solve is
dense and deterministic.  Operators diagonal on the grid (x, x^2) act by
scaling rows, and a one-site factor X(x)1 or 1(x)X on the kept two-site states
by contracting X with one product-basis index, so no dense diagonal or
Kronecker matrix multiplies a basis.  Thermal traces and imaginary-time
displacement correlations from the spectrum validate the covariance formulas
and the Monte Carlo sampler from a completely different direction.

The ground-energy convention subtracts (1/2) Tr B: one site subtracts
sqrt(a)/2, two sites subtract (sqrt(a) + sqrt(a + 4J))/2.  Two periodic sites
carry a doubled bond, so the pair term is J (x1 - x2)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# fourth-order central second derivative
_STENCIL = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])
_OFFSETS = (-2, -1, 0, 1, 2)


def _laplacian_1d(n: int, h: float) -> np.ndarray:
    lap = np.zeros((n, n))
    for o, c in zip(_OFFSETS, _STENCIL):
        np.fill_diagonal(lap[max(-o, 0):, max(o, 0):], c)
    return lap / h ** 2


def _lowest(ham: np.ndarray, diagonals, keep: int):
    """The ``keep`` lowest eigenvalues of a dense matrix, and in their basis
    each diagonal operator, given by its diagonal."""
    energies, vecs = np.linalg.eigh(ham)
    vecs = vecs[:, :keep]
    return energies[:keep], [vecs.T @ (diag[:, None] * vecs) for diag in diagonals]


@dataclass
class GridHamiltonian:
    """Rescaled Hamiltonian for 1 or 2 sites, scalar displacement."""

    n_sites: int
    a: float
    J: float
    b_m: float
    delta_m: float
    extent: float = 8.0
    n_grid: int = 512
    n_states: int = 150  # two-site states kept

    def __post_init__(self):
        if self.n_sites not in (1, 2):
            raise ValueError("grid diagonalization supports 1 or 2 sites")
        if self.extent <= 0 or self.n_grid < 16:
            raise ValueError("need positive extent and a reasonable grid")
        if self.n_sites == 2 and not 0 < self.n_states <= self.n_grid ** 2 // 4:
            raise ValueError("two sites need 0 < n_states <= n_grid^2 / 4")

    @property
    def energy_shift(self) -> float:
        if self.n_sites == 1:
            return 0.5 * math.sqrt(self.a)
        return 0.5 * (math.sqrt(self.a) + math.sqrt(self.a + 4.0 * self.J))

    def _onsite(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * self.a * x ** 2 + self.b_m * np.exp(-0.5 * self.delta_m * x ** 2)

    @cached_property
    def _solution(self):
        """(energies, displacement matrix per site) of the kept states."""
        x = np.linspace(-self.extent, self.extent, self.n_grid)
        ham = -0.5 * _laplacian_1d(self.n_grid, x[1] - x[0]) + np.diag(self._onsite(x))
        if self.n_sites == 1:
            ham -= self.energy_shift * np.eye(self.n_grid)
            return _lowest(ham, [x], self.n_grid)
        k = math.isqrt(4 * self.n_states - 1) + 1  # smallest k with k^2 >= 4 n_states
        e, (xk, xsq) = _lowest(ham, [x, x ** 2], k)
        one = np.eye(k)
        pair = (np.diag(np.add.outer(e, e).ravel() - self.energy_shift)
                + self.J * (np.kron(xsq, one) + np.kron(one, xsq) - 2.0 * np.kron(xk, xk)))
        energies, vecs = np.linalg.eigh(pair)
        vecs = vecs[:, :self.n_states]
        # x on site 0 is xk (x) 1 and on site 1 is 1 (x) xk: xk acts on the first
        # or the second product-basis index of the kept eigenvectors
        by_site = (xk @ vecs.reshape(k, -1), xk @ vecs.reshape(k, k, -1))
        return energies[:self.n_states], [vecs.T @ m.reshape(k * k, -1) for m in by_site]

    @property
    def energies(self) -> np.ndarray:
        return self._solution[0]

    def displacement_matrix(self, site: int) -> np.ndarray:
        return self._solution[1][site]


def thermal_trace(ham: GridHamiltonian, beta_hat: float) -> float:
    """log Tr e^{-beta_hat H} over the kept spectrum (ground energy subtracted).

    Terms below 1e-16 of the leading one are dropped; with the subtraction the
    harmonic one-site value is -log(1 - e^{-beta_hat sqrt(a)}).
    """
    if math.isinf(beta_hat):
        raise ValueError("thermal traces need finite beta_hat")
    e = ham.energies
    w = -beta_hat * (e - e.min())
    w = w[w > math.log(1e-16)]
    return float(-beta_hat * e.min() + math.log(np.sum(np.exp(w))))


def thermal_correlation(ham: GridHamiltonian, beta_hat: float, tau: float,
                        site_a: int = 0, site_b: int = 0) -> float:
    """Euclidean correlation Tr[x_a e^{-tau H} x_b e^{-(beta-tau) H}] / Tr e^{-beta H}.

    Symmetric about tau = beta_hat / 2 by cyclicity.  Two sites keep only
    ``n_states`` states, so there tau should stay a fraction of a unit away
    from 0 and beta_hat, where the missing high states are exponentially muted.
    """
    if not (0.0 <= tau <= beta_hat):
        raise ValueError("tau must lie in [0, beta_hat]")
    e = ham.energies - ham.energies.min()
    xa = ham.displacement_matrix(site_a)
    xb = ham.displacement_matrix(site_b)
    log_z = math.log(np.sum(np.exp(-beta_hat * e)))
    weights = np.exp(-(beta_hat - tau) * e[:, None] - tau * e[None, :] - log_z)
    return float(np.sum(weights * xa * xb.T))


def convergence_check(ham: GridHamiltonian, beta_hat: float, taus) -> dict:
    """Re-solve with (1.25 X, 2 G, 2 n_states) and report the largest shifts.

    Doubling the kept two-site states covers the basis cut as well as the
    grid.  Returns the drift of log Z and of each requested correlation;
    values above 1e-4 flag an unconverged solve.
    """
    finer = GridHamiltonian(
        n_sites=ham.n_sites, a=ham.a, J=ham.J, b_m=ham.b_m, delta_m=ham.delta_m,
        extent=ham.extent * 1.25, n_grid=ham.n_grid * 2, n_states=ham.n_states * 2,
    )
    drift_z = abs(thermal_trace(ham, beta_hat) - thermal_trace(finer, beta_hat))
    drift_c = max(
        abs(thermal_correlation(ham, beta_hat, t) - thermal_correlation(finer, beta_hat, t))
        for t in taus
    )
    return {"log_z_drift": drift_z, "correlation_drift": drift_c,
            "converged": bool(drift_z <= 1e-4 and drift_c <= 1e-4)}
