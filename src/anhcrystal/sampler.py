"""Exact sampling of the reference Gaussian field and Gibbsian estimators.

The grid restriction of the harmonic covariance is circulant over the space
torus and the time circle, so a Fourier filter applied to white noise draws
the reference field exactly (Dirichlet boxes filter sine modes in space).
The perturbed measure reweights by exp(-S) with

    S = dt * sum_slices [ sum_j V(phi_j) + sum_j h . phi_j ]
        - (J/2) * dt * sum_boundary pairs sum_slices phi_l . xi_l'
      = dt * sum V(phi) + l . phi,

estimated either by self-normalized importance sampling (primary) or by a
covariance-preserving autocorrelation MCMC with Metropolis correction
(fallback for strong anharmonicity).  The linear terms l . phi tilt the
reference Gaussian into the same Gaussian with mean m = -C l, so importance
sampling draws phi = psi + m and weights it by exp(-dt sum V(phi)) alone:
for every field and boundary the weight lies in (0, 1] and no log-weight can
overflow; the MCMC runs on the same shifted reference.  One core serves
every importance-sampling estimator: ``accumulate`` sums columns over chunked
draws in N_BATCHES batches, ``jackknife`` gives the delete-one-batch error of
any ratio of column sums, and the ESS is Kong's (sum w)^2 / sum w^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.fft

from .covariance import CovarianceKernel
from .grid import FieldGrid
from .lattice import Boundary, Lattice

N_BATCHES = 50
MAX_CHUNK = 16384
CHAIN_CHUNK_VALUES = 1 << 18  # field values in one chunk of pCN proposals (2 MB)
ESS_WARN_THRESHOLD = 100.0


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    ess: float

    def compatible(self, other: "EstimatorResult", n_sigma: float = 4.0) -> bool:
        gap = abs(self.mean - other.mean)
        return gap <= n_sigma * math.hypot(self.stderr, other.stderr)


# -- boundary conditions -------------------------------------------------------


class BoundaryKind(Enum):
    PERIODIC = "periodic"
    ZERO = "zero"
    TEMPERED = "tempered"


@dataclass(frozen=True)
class BoundaryCondition:
    """Periodic, zero, or tempered (fixed outside trajectories) boundary.

    For the tempered kind, ``xi`` maps outside-site coordinates to trajectory
    arrays of shape (n_slices, d).
    """

    kind: BoundaryKind
    xi: dict | None = None

    def lattice_boundary(self) -> Boundary:
        return Boundary.PERIODIC if self.kind is BoundaryKind.PERIODIC else Boundary.DIRICHLET


def periodic_bc() -> BoundaryCondition:
    return BoundaryCondition(kind=BoundaryKind.PERIODIC)


def zero_bc() -> BoundaryCondition:
    return BoundaryCondition(kind=BoundaryKind.ZERO)


def tempered_bc(xi: dict) -> BoundaryCondition:
    return BoundaryCondition(kind=BoundaryKind.TEMPERED, xi=dict(xi))


# -- exact Gaussian sampling ---------------------------------------------------


class GaussianFieldSampler:
    """Draws mean-zero fields whose covariance is the grid kernel, exactly.

    Periodic boxes: phi = F^-1( sqrt(lambda) F z ) with F the space-time FFT
    and lambda the (nonnegative) circulant spectrum.  The spectrum is real and
    even, so the filter maps real fields to real fields, and the real
    half-spectrum transforms (``rfftn`` / ``irfftn``, halved along time)
    compute it with about half the work of complex ones.  Dirichlet boxes use
    the orthonormal sine transform in space and the real FFT in time.
    Deterministic given the generator state; components are independent.
    """

    def __init__(self, kernel: CovarianceKernel, n_slices: int, d: int = 1):
        self.kernel = kernel
        self.n_slices = int(n_slices)
        self.d = int(d)
        if self.n_slices < 2:
            raise ValueError("need at least two time slices")
        self.lattice = kernel.lattice
        half = self.n_slices // 2 + 1  # the nonnegative time frequencies
        self._sqrt_eig = np.sqrt(kernel.grid_eigenvalues(self.n_slices))[..., :half, None]
        self._periodic = kernel.boundary is Boundary.PERIODIC

    @property
    def shape(self) -> tuple:
        return self.lattice.dims + (self.n_slices, self.d)

    def _filter(self, x: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """F^-1 (factor F x) over the Fourier axes of fields x (leading axes free).

        The Fourier axes are space and time in a periodic box and time alone
        in a Dirichlet box; ``factor`` lives on the half spectrum.
        """
        time_axis = x.ndim - 2
        first = time_axis - self.lattice.nu if self._periodic else time_axis
        axes = tuple(range(first, time_axis + 1))
        xh = scipy.fft.rfftn(x, axes=axes)
        xh *= factor
        return scipy.fft.irfftn(xh, s=[x.shape[a] for a in axes], axes=axes,
                                overwrite_x=True)

    def _sine(self, x: np.ndarray) -> np.ndarray:
        """The orthonormal sine transform over the space axes (its own inverse)."""
        time_axis = x.ndim - 2
        return scipy.fft.dstn(x, type=1, norm="ortho",
                              axes=tuple(range(time_axis - self.lattice.nu, time_axis)))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n independent fields, shape (n, *dims, n_slices, d)."""
        y = self._filter(rng.standard_normal((n,) + self.shape), self._sqrt_eig)
        return y if self._periodic else self._sine(y)

    def apply_covariance(self, c: np.ndarray) -> np.ndarray:
        """Apply the grid covariance operator to a field-shaped vector."""
        lam = self._sqrt_eig ** 2
        if self._periodic:
            return self._filter(c, lam)
        return self._sine(self._filter(self._sine(c), lam))


# -- the Gibbs ensemble --------------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """A finite-volume Gibbs ensemble at fixed grid resolution.

    Bundles the box, the reference kernel matching the boundary condition,
    the anharmonic amplitudes, the rescaled field, and the discretization.
    """

    lattice: Lattice
    a: float
    J: float
    beta_hat: float
    n_slices: int
    b_m: float
    delta_m: float
    d: int = 1
    h_hat: tuple = ()
    bc: BoundaryCondition = field(default_factory=periodic_bc)

    def __post_init__(self):
        if self.bc.lattice_boundary() is not self.lattice.boundary:
            raise ValueError("lattice boundary and boundary-condition kind disagree")
        if self.h_hat and len(self.h_hat) != self.d:
            raise ValueError("h_hat must have d components")

    @cached_property
    def kernel(self) -> CovarianceKernel:
        return CovarianceKernel(self.lattice, self.a, self.J, self.beta_hat)

    @cached_property
    def grid(self) -> FieldGrid:
        return FieldGrid(self.lattice, self.beta_hat, self.n_slices)

    @cached_property
    def sampler(self) -> GaussianFieldSampler:
        return GaussianFieldSampler(self.kernel, self.n_slices, self.d)

    @cached_property
    def linear_term(self) -> np.ndarray | None:
        """l = dt (h - c), the coefficient of phi in S; None when it vanishes.

        c is (J/2) times the outside trajectories adjacent to each inside
        site, for a tempered boundary.
        """
        tempered = self.bc.kind is BoundaryKind.TEMPERED
        field = bool(self.h_hat) and any(x != 0.0 for x in self.h_hat)
        if not (tempered or field):
            return None
        ell = np.zeros(self.sampler.shape)
        if field:
            ell += np.asarray(self.h_hat, dtype=float)
        if tempered:
            if not self.bc.xi:
                raise ValueError("tempered boundary condition needs xi trajectories")
            flat = ell.reshape(self.lattice.n_sites, self.n_slices, self.d)
            for inside, outside in self.lattice.boundary_pairs():
                traj = self.bc.xi.get(tuple(outside))
                if traj is not None:
                    flat[inside] -= 0.5 * self.J * np.asarray(traj, dtype=float)
        return ell * self.grid.delta_tau

    @cached_property
    def mean_shift(self) -> np.ndarray:
        """m = -C l: the mean of the reference Gaussian tilted by exp(-l . phi)."""
        if self.linear_term is None:
            return np.zeros(self.sampler.shape)
        return -self.sampler.apply_covariance(self.linear_term)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n reference fields carrying the mean shift of the linear terms."""
        psi = self.sampler.sample(rng, n)
        return psi if self.linear_term is None else psi + self.mean_shift

    def potential_density(self, phi: np.ndarray) -> np.ndarray:
        """V at each grid point: b_m exp(-delta_m |phi|^2 / 2), summed over nothing."""
        sq = np.sum(phi ** 2, axis=-1)
        return self.b_m * np.exp(-0.5 * self.delta_m * sq)

    def weight(self, phi: np.ndarray) -> np.ndarray:
        """exp(-dt sum V) per field: the part of exp(-S) left after the shift, in (0, 1]."""
        dens = self.potential_density(phi)
        return np.exp(-self.grid.delta_tau * dens.sum(axis=tuple(range(1, dens.ndim))))

    def action(self, phi: np.ndarray) -> np.ndarray:
        """Grid action S = dt sum V + l . phi for a batch of fields (leading batch axis)."""
        dens = self.potential_density(phi)
        s = self.grid.delta_tau * dens.sum(axis=tuple(range(1, dens.ndim)))
        if self.linear_term is not None:
            s = s + np.sum(phi * self.linear_term, axis=tuple(range(1, phi.ndim)))
        return s

    def phi_product(self, factors):
        """Observable: product of field values phi[site, tau, component].

        ``factors`` is an iterable of (site coords or index, tau, component).
        """
        idx = []
        for site, tau, comp in factors:
            si = site if np.isscalar(site) else self.lattice.site_index(site)
            idx.append((int(si), self.grid.slice_of(tau), int(comp)))

        def observable(phi: np.ndarray) -> np.ndarray:
            flat = phi.reshape(phi.shape[0], self.lattice.n_sites, self.n_slices, self.d)
            out = np.ones(phi.shape[0])
            for si, sl, comp in idx:
                out = out * flat[:, si, sl, comp]
            return out

        return observable

    def mean_displacement(self, direction=None):
        """Observable: box average of the field along a unit direction."""
        e = np.zeros(self.d)
        if direction is None:
            e[0] = 1.0
        else:
            e = np.asarray(direction, dtype=float)
            e = e / np.linalg.norm(e)

        def observable(phi: np.ndarray) -> np.ndarray:
            proj = np.tensordot(phi, e, axes=([-1], [0]))
            return proj.mean(axis=tuple(range(1, proj.ndim)))

        return observable


# -- the importance-sampling core ------------------------------------------------


def _warn_small_ess(ess: float):
    if ess < ESS_WARN_THRESHOLD:
        warnings.warn(f"effective sample size {ess:.1f} < {ESS_WARN_THRESHOLD:.0f}; "
                      "estimates unreliable", RuntimeWarning, stacklevel=3)


def accumulate(draw, columns, n_samples: int, seed: int) -> np.ndarray:
    """Per-batch column sums over ``n_samples`` draws in N_BATCHES batches.

    ``draw(rng, n)`` returns n draws from one generator seeded with ``seed``;
    ``columns(draws)`` returns the sum over those draws of each column (a
    sequence of scalars, or of arrays of one shape).  Batches are drawn in
    chunks of at most MAX_CHUNK, so memory stays bounded for any budget.
    Returns shape (N_BATCHES, n_columns, ...).
    """
    if n_samples % N_BATCHES != 0:
        raise ValueError(f"sample count must be a multiple of {N_BATCHES} batches")
    per = n_samples // N_BATCHES
    rng = np.random.default_rng(seed)
    sums = None
    for b in range(N_BATCHES):
        for start in range(0, per, MAX_CHUNK):
            chunk = np.asarray(columns(draw(rng, min(MAX_CHUNK, per - start))), dtype=float)
            if sums is None:
                sums = np.zeros((N_BATCHES,) + chunk.shape)
            sums[b] += chunk
    return sums


def jackknife_replicates(batch_sums: np.ndarray, statistic):
    """statistic(column totals) and its delete-one-batch replicates (batch axis first)."""
    total = batch_sums.sum(axis=0)
    return statistic(total), np.stack([statistic(total - s) for s in batch_sums])


def replicate_stderr(leave: np.ndarray):
    """Jackknife standard error from delete-one-batch replicates."""
    n = len(leave)
    return np.sqrt((n - 1) / n * np.sum((leave - leave.mean(axis=0)) ** 2, axis=0))


def jackknife(batch_sums: np.ndarray, statistic):
    """statistic(column totals) and its delete-one-batch standard error."""
    estimate, leave = jackknife_replicates(batch_sums, statistic)
    return estimate, replicate_stderr(leave)


def _weighted_result(sums: np.ndarray, statistic, n_samples: int,
                     seed: int) -> EstimatorResult:
    """Jackknife result from batch sums whose first column is w, last w^2.

    The ESS is Kong's (sum w)^2 / sum w^2.
    """
    mean, stderr = jackknife(sums, statistic)
    total = sums.sum(axis=0)
    ess = float(total[0] ** 2 / total[-1])
    _warn_small_ess(ess)
    return EstimatorResult(mean=float(mean), stderr=float(stderr), n_samples=n_samples,
                           seed=seed, ess=ess)


# -- estimators ----------------------------------------------------------------


def reweight_expectation(ensemble: Ensemble, observable, n_samples: int,
                         seed: int) -> EstimatorResult:
    """Self-normalized importance sampling from the shifted reference Gaussian.

    The estimate is E[A w] / E[w] over draws that carry the exact mean shift
    of the linear action terms, with w = exp(-dt sum V) in (0, 1]; the
    standard error is the jackknife over batches.
    """
    def columns(phi):
        w = ensemble.weight(phi)
        av = np.asarray(observable(phi), dtype=float)
        return w.sum(), (w * av).sum(), (w ** 2).sum()

    sums = accumulate(ensemble.draw, columns, n_samples, seed)
    return _weighted_result(sums, lambda c: c[1] / c[0], n_samples, seed)


def integrated_autocorrelation_time(trace: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the integrated autocorrelation."""
    x = np.asarray(trace, dtype=float)
    n = len(x)
    x = x - x.mean()
    nfft = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f))[:n].real / n
    if acov[0] <= 0:
        return 0.5
    rho = acov / acov[0]
    tau = 0.5
    for m in range(0, n // 2 - 1):
        pair = rho[2 * m + 1] + rho[2 * m + 2] if 2 * m + 2 < n else 0.0
        if pair <= 0.0:
            break
        tau += pair
    return tau


def pcn_expectation(ensemble: Ensemble, observable, n_samples: int, seed: int,
                    rho_prop: float = 0.9, burn_in: int | None = None) -> EstimatorResult:
    """Markov chain estimate with the covariance-preserving mixing proposal.

    Like importance sampling, the chain runs on the shifted reference N(m, C),
    with m = -C l the exact mean shift of the linear action terms.  The
    proposal phi' = m + rho (phi - m) + sqrt(1 - rho^2) xi, with xi a fresh
    reference draw, leaves N(m, C) invariant, and the Metropolis correction
    acts on dt sum V(phi) alone: the action less its linear term.  The
    proposal offsets and the Metropolis uniforms do not depend on the chain's
    state, so they are drawn in chunks of at most CHAIN_CHUNK_VALUES field
    values, whatever the chain's length; the step loop only mixes, evaluates
    the action and accepts, and the observable is evaluated once per chunk on
    the chain's fields.  Error bars use the integrated autocorrelation time.
    """
    if not (0.0 <= rho_prop < 1.0):
        raise ValueError("mixing parameter must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    if burn_in is None:
        burn_in = max(200, n_samples // 10)
    mix = math.sqrt(1.0 - rho_prop ** 2)
    ell = ensemble.linear_term
    centre = (1.0 - rho_prop) * ensemble.mean_shift

    def relative_action(phi):  # dt sum V(phi) = S(phi) - l . phi
        s = float(ensemble.action(phi)[0])
        return s if ell is None else s - float(np.vdot(ell, phi))

    phi = ensemble.draw(rng, 1)
    s = relative_action(phi)
    n_steps = burn_in + n_samples
    per_chunk = max(1, CHAIN_CHUNK_VALUES // math.prod(ensemble.sampler.shape))
    trace = np.empty(n_steps)
    for start in range(0, n_steps, per_chunk):
        k = min(per_chunk, n_steps - start)
        chain = ensemble.sampler.sample(rng, k)  # the offsets, overwritten by the states
        chain *= mix
        chain += centre
        log_u = np.log(rng.uniform(size=k))
        for i in range(k):
            prop = rho_prop * phi + chain[i]
            s_prop = relative_action(prop)
            if log_u[i] < s - s_prop:
                phi, s = prop, s_prop
            chain[i] = phi[0]
        trace[start:start + k] = observable(chain)
    trace = trace[burn_in:]
    tau = integrated_autocorrelation_time(trace)
    var = float(np.var(trace, ddof=1))
    ess = n_samples / (2.0 * tau)
    _warn_small_ess(ess)
    return EstimatorResult(mean=float(trace.mean()),
                           stderr=math.sqrt(var * 2.0 * tau / n_samples),
                           n_samples=n_samples, seed=seed, ess=ess)


def expectation(ensemble: Ensemble, observable, n_samples: int, seed: int,
                backend: str = "reweight", **kwargs) -> EstimatorResult:
    """Gibbs expectation of a bounded-evaluation observable."""
    if backend == "reweight":
        return reweight_expectation(ensemble, observable, n_samples, seed, **kwargs)
    if backend == "mcmc":
        return pcn_expectation(ensemble, observable, n_samples, seed, **kwargs)
    raise ValueError(f"unknown backend {backend!r}")


def truncated_two_point(ensemble: Ensemble, p1, p2, n_samples: int,
                        seed: int) -> EstimatorResult:
    """Connected two-point function with jackknife error over batches."""
    obs_a = ensemble.phi_product([p1])
    obs_b = ensemble.phi_product([p2])

    def columns(phi):
        w = ensemble.weight(phi)
        av, bv = obs_a(phi), obs_b(phi)
        return w.sum(), (w * av).sum(), (w * bv).sum(), (w * av * bv).sum(), (w ** 2).sum()

    def connected(c):
        return c[3] / c[0] - (c[1] / c[0]) * (c[2] / c[0])

    sums = accumulate(ensemble.draw, columns, n_samples, seed)
    return _weighted_result(sums, connected, n_samples, seed)


def two_point_table(ensemble: Ensemble, time_lag, n_samples: int, seed: int):
    """Translation-averaged connected correlations for all site displacements.

    Returns (K, K_err) arrays indexed by the displacement in FFT order; uses
    the space-time autocorrelation irfftn(|rfftn(phi)|^2) of each sample, so
    every site and time origin contributes.  ``time_lag`` is one lag in
    slices, or a sequence of lags: then K and K_err gain a trailing lag axis,
    and one set of draws serves every lag.  Periodic boxes only.
    """
    if ensemble.lattice.boundary is not Boundary.PERIODIC:
        raise ValueError("translation averaging needs a periodic box")
    if ensemble.d != 1:
        raise ValueError("translation-averaged tables are single-component")
    norm = ensemble.lattice.n_sites * ensemble.n_slices
    axes = tuple(range(1, ensemble.lattice.nu + 2))

    def columns(phi):  # w, w * R(dx), w * box mean, each broadcast to the table
        w = ensemble.weight(phi)
        phi = phi[..., 0]
        f = scipy.fft.rfftn(phi, axes=axes)
        f *= f.conj()
        corr = scipy.fft.irfftn(f, s=phi.shape[1:], axes=axes, overwrite_x=True) / norm
        return np.broadcast_arrays(w.sum(), np.tensordot(w, corr[..., time_lag], axes=(0, 0)),
                                   (w * phi.mean(axis=axes)).sum())

    sums = accumulate(ensemble.draw, columns, n_samples, seed)
    return jackknife(sums, lambda c: c[1] / c[0] - (c[2] / c[0]) ** 2)


@dataclass(frozen=True)
class ClusteringFit:
    rate: float
    intercept: float
    residuals: np.ndarray
    distances: np.ndarray
    values: np.ndarray
    errors: np.ndarray | None
    reference_rate: float


def fit_exponential_decay(distances, values, errors=None):
    """Weighted least-squares fit of log|K| = intercept - rate * distance."""
    d = np.asarray(distances, dtype=float)
    k = np.asarray(values, dtype=float)
    logs = np.log(np.abs(k))
    if errors is not None:
        sig = np.asarray(errors, dtype=float) / np.abs(k)
        wts = 1.0 / sig ** 2
    else:
        wts = np.ones_like(logs)
    a = np.vstack([np.ones_like(d), -d]).T
    w = np.sqrt(wts)
    coef, *_ = np.linalg.lstsq(a * w[:, None], logs * w, rcond=None)
    fit = a @ coef
    return float(coef[1]), float(coef[0]), logs - fit


def clustering_fit(ensemble: Ensemble, max_dist: int, n_samples: int, seed: int,
                   time_lag: int = 0) -> ClusteringFit:
    """Fit the spatial decay rate of the connected two-point function.

    Refuses to fit whenever any correlation estimate along the fit range is
    within two standard errors of zero.  The reference rate is the fit of the
    exact harmonic kernel over the same distances; sqrt(a) is the idealized
    decay constant quoted alongside it.
    """
    if min(ensemble.lattice.dims) < 4 * max_dist:
        raise ValueError("need box side >= 4 * max_dist for a clean fit window")
    k_grid, e_grid = two_point_table(ensemble, time_lag, n_samples, seed)
    dists = np.arange(1, max_dist + 1)
    k = np.array([k_grid[(d,) + (0,) * (ensemble.lattice.nu - 1)] for d in dists])
    e = np.array([e_grid[(d,) + (0,) * (ensemble.lattice.nu - 1)] for d in dists])
    if np.any(np.abs(k) <= 2.0 * e):
        raise RuntimeError("two-point estimates are consistent with zero; "
                           "cannot fit a decay rate")
    rate, intercept, residuals = fit_exponential_decay(dists, k, e)
    tau = time_lag * ensemble.grid.delta_tau
    g = np.array([ensemble.kernel.closed((d,) + (0,) * (ensemble.lattice.nu - 1),
                                         (0,) * ensemble.lattice.nu, tau)
                  for d in dists])
    ref_rate, _, _ = fit_exponential_decay(dists, g)
    return ClusteringFit(rate=rate, intercept=intercept, residuals=residuals,
                         distances=dists, values=k, errors=e,
                         reference_rate=ref_rate)


# -- order parameter -------------------------------------------------------------


def order_parameter(make_ensemble, alpha: float, h_values, lattice_sizes,
                    n_samples: int, seed: int):
    """Mean displacement per site (in unrescaled units) over an (h, N) scan.

    ``make_ensemble(n, h)`` builds the ensemble at box side n and bare field
    magnitude h.  Rows report sigma = alpha * <box mean of x . e> so the
    double-limit diagnostic (largest box, smallest field) is the last row of
    the returned list.
    """
    rows = []
    for i_n, n in enumerate(lattice_sizes):
        for i_h, h in enumerate(h_values):
            ens = make_ensemble(n, h)
            res = expectation(ens, ens.mean_displacement(), n_samples,
                              seed + 7919 * i_n + 101 * i_h)
            rows.append({
                "n": n, "h": h,
                "sigma": alpha * res.mean,
                "stderr": abs(alpha) * res.stderr,
                "ess": res.ess,
            })
    return rows


# -- uniqueness gap ---------------------------------------------------------------


def boundary_mean_shift(ensemble: Ensemble) -> np.ndarray:
    """Exact response -C l of the field mean to the linear terms of the action.

    For a tempered boundary with h = 0 this is the harmonic response C (c dt)
    to the outside trajectories; the anharmonic correction on top of it is
    estimated by Monte Carlo in ``uniqueness_gap``.
    """
    return ensemble.mean_shift


def gap_estimate(ens_xi: Ensemble, ens_eta: Ensemble, site, tau: float,
                 n_samples: int, seed: int, component: int = 0):
    """Difference of <phi_site(tau)> under two boundary conditions.

    Both expectations are computed on common reference draws after exactly
    absorbing the linear terms into a Gaussian mean shift, so the harmonic
    part of the gap carries no Monte Carlo noise at all.
    """
    si = ens_xi.lattice.site_index(site) if not np.isscalar(site) else int(site)
    sl = ens_xi.grid.slice_of(tau)
    shift_xi, shift_eta = ens_xi.mean_shift, ens_eta.mean_shift
    flat_xi = shift_xi.reshape(ens_xi.lattice.n_sites, ens_xi.n_slices, ens_xi.d)
    flat_eta = shift_eta.reshape(*flat_xi.shape)
    exact = float(flat_xi[si, sl, component] - flat_eta[si, sl, component])

    def columns(psi):
        w_xi = ens_xi.weight(psi + shift_xi)
        w_eta = ens_eta.weight(psi + shift_eta)
        phi0 = psi.reshape(len(psi), -1, ens_xi.n_slices, ens_xi.d)[:, si, sl, component]
        return w_xi.sum(), (w_xi * phi0).sum(), w_eta.sum(), (w_eta * phi0).sum()

    sums = accumulate(ens_xi.sampler.sample, columns, n_samples, seed)
    corr, stderr = jackknife(sums, lambda c: c[1] / c[0] - c[3] / c[2])
    return exact + corr, float(stderr), exact


def uniqueness_gap(make_ensemble_pair, site_of, tau: float, lattice_sizes,
                   n_samples: int, seed: int):
    """Scan the boundary-condition gap of <phi(site, tau)> over growing boxes.

    ``make_ensemble_pair(n)`` returns the two tempered ensembles; ``site_of(n)``
    picks the probe site.  Rows report the gap, its error, the exact harmonic
    part, and the probe's distance to the boundary.
    """
    rows = []
    for n in lattice_sizes:
        ens_xi, ens_eta = make_ensemble_pair(n)
        site = site_of(n)
        gap, err, harmonic = gap_estimate(ens_xi, ens_eta, site, tau,
                                          n_samples, seed + n)
        coords = site if not np.isscalar(site) else ens_xi.lattice.site_coords(site)
        dist = 1 + min(min(c, dim - 1 - c) for c, dim in zip(coords, ens_xi.lattice.dims))
        rows.append({"n": n, "gap": gap, "stderr": err,
                     "harmonic_part": harmonic, "dist_to_boundary": dist})
    return rows


# -- doubled measure --------------------------------------------------------------


def doubled_measure_correlation(ensemble: Ensemble, p1, p2, y_field: np.ndarray,
                                n_samples: int, seed: int) -> EstimatorResult:
    """<x(p1) x(p2)> under the doubled-potential auxiliary measure.

    The auxiliary weight replaces the one-site potential by
    b_m [e^{-d (x+y)^2/4} + e^{-d (x-y)^2/4}] at fixed trajectories y; the
    reference Gaussian keeps zero boundary values.  Estimates should not
    degrade as y grows.
    """
    if ensemble.bc.kind is BoundaryKind.PERIODIC:
        raise ValueError("the auxiliary measure is defined over zero boundary values")
    obs = ensemble.phi_product([p1, p2])
    dt = ensemble.grid.delta_tau
    y = np.asarray(y_field, dtype=float)

    def columns(x):
        sq_plus = np.sum((x + y) ** 2, axis=-1)
        sq_minus = np.sum((x - y) ** 2, axis=-1)
        v = ensemble.b_m * (np.exp(-0.25 * ensemble.delta_m * sq_plus) +
                            np.exp(-0.25 * ensemble.delta_m * sq_minus))
        w = np.exp(-dt * v.sum(axis=tuple(range(1, v.ndim))))
        return w.sum(), (w * obs(x)).sum(), (w ** 2).sum()

    sums = accumulate(ensemble.sampler.sample, columns, n_samples, seed)
    return _weighted_result(sums, lambda c: c[1] / c[0], n_samples, seed)
