"""Independent ground truth: dense diagonalization for one or two sites.

The rescaled one-site Hamiltonian (d = 1) is discretized on a real-space grid
with a fourth-order Laplacian stencil.  Two sites use the product basis of the
k lowest one-site states, with energies E and matrix elements X of x and X^2
of x^2: H = E(x)1 + 1(x)E + J (X^2(x)1 + 1(x)X^2 - 2 X(x)X).  Every solve is
dense and deterministic, and runs in symmetry blocks.  The grid is mirror
symmetric and the on-site potential even, so the one-site matrix splits into
a reflection-even and a reflection-odd block (a matrix that is not its own
reflection is refused), and each kept state has the parity of its block.  X
flips parity and X^2 keeps it, so the total parity p_i p_j splits the product
basis, and inside each parity sector the site swap ij <-> ji splits symmetric
from antisymmetric states: four blocks of about k^2 / 4, each assembled from
index arrays without a Kronecker product.  Operators diagonal on the grid
(x, x^2) act by scaling rows; their one-site matrix elements are formed on
half the grid, and only between the parity blocks they couple.  A one-site
factor X(x)1 or 1(x)X acts on the kept two-site states by contracting X with
one product-basis index.  Thermal
traces and imaginary-time displacement correlations from the spectrum
validate the covariance formulas and the Monte Carlo sampler from a
completely different direction.

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


def _sector_lowest(entries, sectors, flip: np.ndarray, keep: int):
    """The ``keep`` lowest eigenpairs of a symmetric matrix, solved in blocks.

    ``entries(rows, cols)`` gives the matrix on two index arrays.  The matrix
    couples no two ``sectors`` (index arrays that split the basis), and it
    commutes with the index involution ``flip``, which maps each sector onto
    itself.  A sector's pairs (b, flip b) then span flip-even and flip-odd
    combinations (e_b +- e_flip b)/sqrt 2, fixed points joining the even block
    with a sqrt 2 coupling.  Returns the energies in ascending order (a stable
    sort over the blocks), the eigenvectors unfolded to the full basis, and
    each state's flip sign.
    """
    solved = []
    for index in sectors:
        pairs = index[index < flip[index]]
        fixed = index[index == flip[index]]
        direct, crossed = entries(pairs, pairs), entries(pairs, flip[pairs])
        mixed = math.sqrt(2.0) * entries(pairs, fixed)
        even = np.block([[direct + crossed, mixed], [mixed.T, entries(fixed, fixed)]])
        for sign, block, centre in ((1.0, even, fixed), (-1.0, direct - crossed, fixed[:0])):
            solved.append((sign, pairs, centre, *np.linalg.eigh(block)))
    energies = np.concatenate([e for *_, e, _ in solved])
    order = np.argsort(energies, kind="stable")[:keep]
    # unfold only the kept states, each into the columns where the sort put it
    vecs, signs = np.zeros((len(flip), keep)), np.empty(keep)
    start = 0
    for sign, pairs, centre, e, u in solved:
        kept = np.flatnonzero((order >= start) & (order < start + len(e)))
        u = u[:, order[kept] - start]
        half = u[:len(pairs)] / math.sqrt(2.0)
        vecs[np.ix_(pairs, kept)] = half
        vecs[np.ix_(flip[pairs], kept)] = sign * half
        vecs[np.ix_(centre, kept)] = u[len(pairs):]
        signs[kept] = sign
        start += len(e)
    return energies[order], vecs, signs


def _matrix_elements(vecs: np.ndarray, parity: np.ndarray, weight: np.ndarray,
                     odd: bool) -> np.ndarray:
    """vecs.T @ (weight * vecs), formed only on the blocks that can be nonzero.

    The states ``vecs`` have parities ``parity`` under the grid reflection
    b -> n - 1 - b.  A grid weight that is odd under it, like x, couples only
    states of opposite parity; an even one, like x^2, only states of equal
    parity.  Each such block's summand is even, so it is summed over the
    lower half of the grid and doubled, plus the centre point of an odd grid.
    """
    even, flipped = np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)
    half, centre = divmod(len(weight), 2)
    low = vecs[:half + centre]
    scaled = np.concatenate([2.0 * weight[:half], weight[half:half + centre]])
    out = np.zeros((len(parity),) * 2)
    for rows, cols in [(even, flipped)] if odd else [(even, even), (flipped, flipped)]:
        block = low[:, rows].T @ (scaled[:, None] * low[:, cols])
        out[np.ix_(rows, cols)] = block
        out[np.ix_(cols, rows)] = block.T
    return out


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
        n = self.n_grid
        x = self.extent * np.arange(1 - n, n, 2) / (n - 1)  # x[::-1] == -x exactly
        ham = -0.5 * _laplacian_1d(n, x[1] - x[0]) + np.diag(self._onsite(x))
        if not np.array_equal(ham, ham[::-1, ::-1]):
            raise ValueError("the one-site Hamiltonian is not even in x, so the grid "
                             "reflection does not split it")
        # two sites keep the smallest k with k^2 >= 4 n_states
        k = n if self.n_sites == 1 else math.isqrt(4 * self.n_states - 1) + 1
        e, vecs, parity = _sector_lowest(lambda r, c: ham[np.ix_(r, c)], [np.arange(n)],
                                         np.arange(n)[::-1], k)
        xk = _matrix_elements(vecs, parity, x, odd=True)
        if self.n_sites == 1:
            return e - self.energy_shift, [xk]
        xsq = _matrix_elements(vecs, parity, x ** 2, odd=False)
        # product state |ij> is index i k + j; x flips a state's parity and x^2
        # keeps it, so H keeps the total parity p_i p_j and commutes with ij <-> ji
        i, j = np.divmod(np.arange(k * k), k)
        diagonal = e[i] + e[j] - self.energy_shift

        def pair(r, c):
            (ri, rj), (ci, cj) = np.divmod(r, k), np.divmod(c, k)
            ii, jj = np.ix_(ri, ci), np.ix_(rj, cj)
            return ((r[:, None] == c) * diagonal[r][:, None]
                    + self.J * (xsq[ii] * (rj[:, None] == cj) + (ri[:, None] == ci) * xsq[jj]
                                - 2.0 * xk[ii] * xk[jj]))

        total = parity[i] * parity[j]
        energies, vecs, _ = _sector_lowest(pair, [np.flatnonzero(total > 0),
                                                  np.flatnonzero(total < 0)],
                                           j * k + i, self.n_states)
        # x on site 0 is xk (x) 1 and on site 1 is 1 (x) xk: xk acts on the first
        # or the second product-basis index of the kept eigenvectors
        by_site = (xk @ vecs.reshape(k, -1), xk @ vecs.reshape(k, k, -1))
        return energies, [vecs.T @ m.reshape(k * k, -1) for m in by_site]

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
