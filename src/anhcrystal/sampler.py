"""Exact sampling of the reference Gaussian field and Gibbsian estimators.

The grid restriction of the harmonic covariance is circulant over the space
torus and the time circle, so a Fourier filter applied to white noise draws
the reference field exactly (Dirichlet boxes filter sine modes in space).
The white noise is placed straight on the real half-spectrum, in the law of
the transform of real white noise, so a draw costs one inverse transform;
its coordinates of largest eigenvalue come first.  The perturbed measure
reweights by exp(-S) with

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
every importance-sampling estimator and the cluster engine's Monte Carlo:
``accumulate`` sums columns over chunks of rows of a row source, scrambled
Sobol rows (``scrambled_normals``) one batch per scramble, or N_BATCHES of
plain draws (``plain_stream``: two-point tables, cluster F and Z); ``jackknife`` gives
the delete-one-batch error of any ratio of column sums, and the ESS is Kong's
(sum w)^2 / sum w^2.  The importance-sampling means of the Gibbs claims
(``reweight_expectation``, ``gap_estimate``, ``doubled_measure_correlation``)
are randomised quasi-Monte Carlo: each field's RQMC_MODES leading noise
coordinates are a scrambled Sobol row and the rest plain normals
(``sobol_led``).  Periodic draws can also come as their half-spectra
sqrt(lambda) zeta, which the filter computes anyway: translation-averaged
two-point tables sum w |phi_hat|^2 over the draws and need no forward
transform of their own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from types import SimpleNamespace

import numpy as np
import scipy.fft
from scipy.special import ndtri

from .covariance import CovarianceKernel
from .grid import FieldGrid
from .lattice import Boundary, Lattice

N_BATCHES = 50
RQMC_BATCHES = 20  # independent scrambles of a scrambled Sobol row source
RQMC_MODES = 16    # noise coordinates that Sobol-led estimators take from scrambled rows
SOBOL_BITS = 30    # qmc.Sobol's default resolution
CHUNK_VALUES = 1 << 18  # values in a chunk of rows or of pCN proposals (2 MB)
ESS_WARN_THRESHOLD = 100.0
PCN_RHO = 0.9  # pCN mixing parameter rho in [0, 1)


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    ess: float


# -- boundary conditions -------------------------------------------------------


@dataclass(frozen=True)
class BoundaryCondition:
    """The box boundary and, for a tempered boundary, the outside trajectories.

    ``xi`` maps outside-site coordinates to trajectory arrays of shape
    (n_slices, d); a boundary is tempered exactly when ``xi`` is given, and
    a tempered or zero boundary is a Dirichlet box.
    """

    boundary: Boundary
    xi: dict | None = None


def periodic_bc() -> BoundaryCondition:
    return BoundaryCondition(Boundary.PERIODIC)


def zero_bc() -> BoundaryCondition:
    return BoundaryCondition(Boundary.DIRICHLET)


def tempered_bc(xi: dict) -> BoundaryCondition:
    return BoundaryCondition(Boundary.DIRICHLET, dict(xi))


# -- exact Gaussian sampling ---------------------------------------------------


class GaussianFieldSampler:
    """Draws mean-zero fields whose covariance is the grid kernel, exactly.

    Periodic boxes: phi = F^-1( sqrt(lambda) zeta ), with F the space-time
    FFT, lambda the (nonnegative) circulant spectrum and zeta white noise
    placed straight on the real half-spectrum (``noise``): zeta has the law
    of rfftn(z) for real white noise z, so no forward transform is made.
    Dirichlet boxes do the same in the orthonormal sine modes of space times
    the real FFT half-spectrum of time.  ``sample`` can return the filtered
    half-spectrum itself, and ``field`` inverts it.  The first ``n_lead``
    real coordinates of the noise (at most RQMC_MODES), in decreasing order
    of their eigenvalues, can be given from outside, so that randomised
    quasi-Monte Carlo drives the modes that carry most of the variance.
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
        # the time planes 0 and M/2 are transforms of real planes over the
        # Fourier space axes, so Hermitian there (real on a Dirichlet box)
        self._edges = (0, half - 1) if self.n_slices % 2 == 0 else (0,)
        self._space = tuple(range(self.lattice.nu)) if self._periodic else ()
        n_fourier = self.n_slices * (self.lattice.n_sites if self._periodic else 1)
        self._scale = math.sqrt(n_fourier / 2.0)  # of each part of a complex entry
        self._lead = self._leading_coordinates()
        self.n_lead = len(self._lead[0])

    @property
    def shape(self) -> tuple:
        return self.lattice.dims + (self.n_slices, self.d)

    def _conjugate_partner(self, x: np.ndarray, first: int) -> np.ndarray:
        """x at the negated Fourier space frequencies, axes ``first``.. on."""
        for axis in self._space:
            x = np.roll(np.flip(x, first + axis), 1, first + axis)
        return x

    def _leading_coordinates(self) -> tuple:
        """Where the RQMC_MODES largest-eigenvalue real coordinates of the noise sit.

        Returns their positions in the float view of one field's noise, the
        factor each takes, and the partner positions that a Hermitian edge
        entry copies (imaginary parts negated).
        """
        lam = self._sqrt_eig[..., 0] ** 2
        entry = np.arange(lam.size).reshape(lam.shape)
        partner = self._conjugate_partner(entry, 0)
        edge = np.zeros(lam.shape, dtype=bool)
        edge[..., list(self._edges)] = True
        # real and imaginary parts of bulk entries, of the first of each
        # conjugate pair on an edge plane, and the real part of a self-conjugate one
        free = np.stack([~edge | (entry <= partner), ~edge | (entry < partner)], axis=-1)
        free = np.broadcast_to(free[..., None, :], lam.shape + (self.d, 2)).reshape(-1)
        order = np.argsort(-np.repeat(lam.reshape(-1), 2 * self.d), kind="stable")
        pos = order[free[order]][:RQMC_MODES]
        flat, part = np.divmod(pos, 2)
        e, c = np.divmod(flat, self.d)
        single = edge.reshape(-1)[e] & (partner.reshape(-1)[e] == e)
        paired = edge.reshape(-1)[e] & ~single
        twin = 2 * (partner.reshape(-1)[e] * self.d + c) + part
        return (pos, np.where(single, math.sqrt(2.0), 1.0) * self._scale,
                np.flatnonzero(paired), twin[paired], np.where(part[paired] == 1, -1.0, 1.0))

    def noise(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """White noise on the half-spectrum, shape (n, *dims, n_slices // 2 + 1, d).

        It has the law of the rfftn of real white fields over the Fourier
        axes (``rfftn(irfftn(noise))`` gives it back), drawn from ``rng`` as
        independent normal real coordinates.
        """
        shape = (n,) + self._sqrt_eig.shape[:-1] + (self.d, 2)
        zh = rng.standard_normal(shape).view(np.complex128)[..., 0]
        zh *= self._scale
        for t in self._edges:
            plane = zh[..., t, :]
            plane += np.conj(self._conjugate_partner(plane, 1))
            plane *= math.sqrt(0.5)
        return zh

    def _fourier_axes(self, ndim: int) -> tuple:
        """Space and time in a periodic box, time alone in a Dirichlet box."""
        time_axis = ndim - 2
        first = time_axis - self.lattice.nu if self._periodic else time_axis
        return tuple(range(first, time_axis + 1))

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """rfftn of fields x over the Fourier axes (leading axes free)."""
        return scipy.fft.rfftn(x, axes=self._fourier_axes(x.ndim))

    def field(self, xh: np.ndarray) -> np.ndarray:
        """The fields whose half-spectra over the Fourier axes are ``xh``; consumes ``xh``."""
        axes = self._fourier_axes(xh.ndim)
        return scipy.fft.irfftn(xh, s=self.shape[-1 - len(axes):-1], axes=axes,
                                overwrite_x=True)

    def _filter(self, x: np.ndarray, factor: np.ndarray) -> np.ndarray:
        """F^-1 (factor F x) over the Fourier axes; ``factor`` lives on the half spectrum."""
        xh = self.spectrum(x)
        xh *= factor
        return self.field(xh)

    def _sine(self, x: np.ndarray) -> np.ndarray:
        """The orthonormal sine transform over the space axes (its own inverse)."""
        time_axis = x.ndim - 2
        return scipy.fft.dstn(x, type=1, norm="ortho",
                              axes=tuple(range(time_axis - self.lattice.nu, time_axis)))

    def sample(self, rng: np.random.Generator, n: int, *, spectral: bool = False,
               lead=None) -> np.ndarray:
        """n independent fields, shape (n, *dims, n_slices, d).

        With ``spectral`` (periodic boxes only) the same fields come as their
        half-spectra sqrt(lambda) zeta over space and time, zeta the
        ``noise``, shape (n, *dims, n_slices // 2 + 1, d); ``field`` inverts
        them.  ``lead`` (n, n_lead), if given, replaces the noise coordinates
        of the n_lead largest eigenvalues, in decreasing order.
        """
        if spectral and not self._periodic:
            raise ValueError("spectral draws need a periodic box")
        zh = self.noise(rng, n)
        if lead is not None:
            pos, factor, paired, twin, sign = self._lead
            values = zh.reshape(n, -1).view(np.float64)
            coords = np.asarray(lead, dtype=float) * factor
            values[:, pos] = coords
            values[:, twin] = coords[:, paired] * sign
        zh *= self._sqrt_eig
        if spectral:
            return zh
        y = self.field(zh)
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
        if self.bc.boundary is not self.lattice.boundary:
            raise ValueError("lattice boundary and boundary condition disagree")
        if self.h_hat and len(self.h_hat) != self.d:
            raise ValueError("h_hat must have d components")
        if self.bc.xi:
            outside = {site for _, site in self.lattice.boundary_pairs()}
            stray = [site for site in self.bc.xi if site not in outside]
            if stray:
                raise ValueError(f"tempered trajectories at {stray}, off the box's outside layer")

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
        tempered = self.bc.xi is not None
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

    @cached_property
    def _mean_shift_spectrum(self) -> np.ndarray:
        return self.sampler.spectrum(self.mean_shift)

    def draw(self, rng: np.random.Generator, n: int, *, spectral: bool = False) -> np.ndarray:
        """n reference fields carrying the mean shift of the linear terms (as
        half-spectra with ``spectral``, as ``GaussianFieldSampler.sample``)."""
        psi = self.sampler.sample(rng, n, spectral=spectral)
        if self.linear_term is None:
            return psi
        return psi + (self._mean_shift_spectrum if spectral else self.mean_shift)

    def potential_density(self, phi: np.ndarray) -> np.ndarray:
        """V at each grid point: b_m exp(-delta_m |phi|^2 / 2), summed over nothing."""
        sq = np.square(phi[..., 0]) if self.d == 1 else np.sum(phi ** 2, axis=-1)
        sq *= -0.5 * self.delta_m
        np.exp(sq, out=sq)
        sq *= self.b_m
        return sq

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
            if not 0 <= comp < self.d:
                raise ValueError(f"component {comp} is not one of the field's {self.d}")
            idx.append((self.grid.point(int(si), self.grid.slice_of(tau)), int(comp)))

        def observable(phi: np.ndarray) -> np.ndarray:
            flat = phi.reshape(phi.shape[0], self.grid.n_points, self.d)
            out = np.ones(phi.shape[0])
            for pt, comp in idx:
                out = out * flat[:, pt, comp]
            return out

        return observable

    def mean_displacement(self):
        """Observable: box average of the field's first component."""
        e = np.zeros(self.d)
        e[0] = 1.0

        def observable(phi: np.ndarray) -> np.ndarray:
            proj = np.tensordot(phi, e, axes=([-1], [0]))
            return proj.mean(axis=tuple(range(1, proj.ndim)))

        return observable


# -- the importance-sampling core ------------------------------------------------


def _warn_small_ess(ess: float):
    if ess < ESS_WARN_THRESHOLD:
        warnings.warn(f"effective sample size {ess:.1f} < {ESS_WARN_THRESHOLD:.0f}; "
                      "estimates unreliable", RuntimeWarning, stacklevel=3)


_BIT = np.arange(SOBOL_BITS, dtype=np.uint32)


@lru_cache(maxsize=64)
def _sobol_directions(dim: int, m: int) -> np.ndarray:
    """Sobol direction numbers 0..m-1, (m, dim): unscrambled point 2^(j+1) - 1 is
    direction j, read by skipping from one to the next, never holding all 2^m points."""
    from scipy.stats import qmc  # its import costs most of a second, paid at first use

    sobol = qmc.Sobol(dim, scramble=False)
    points = [sobol.fast_forward((2 << j) - 1 - sobol.num_generated).random(1) for j in range(m)]
    return (np.reshape(points, (m, dim)) * 2 ** SOBOL_BITS).astype(np.uint32)


def scrambled_normals(n_samples: int, dim: int, seed: int) -> SimpleNamespace:
    """Standard normals from independently scrambled Sobol blocks (Owen 1997).

    Rows come in RQMC_BATCHES consecutive blocks of equal size, one
    scramble each, so the block means are independent unbiased estimates and
    their spread is an honest error bar.  The expansion integrands, and the
    Gibbs weights as functions of a field's leading modes, are smooth
    functions of a dozen or so normals, where this randomized quasi-Monte
    Carlo beats plain draws severalfold in variance.

    Block b equals the leading points of ``qmc.Sobol(dim, scramble=True,
    rng=default_rng(child_b))``, child_b the b-th spawn of SeedSequence(seed),
    bit for bit.  The engine's linear matrix scramble and digital shift
    (Matousek 1998), drawn as the engine draws them, are applied in numpy:
    a scramble is GF(2)-linear, so it maps the Sobol direction numbers once.
    Returns a row source of ``dim`` values a row: ``rows(start, stop)``
    makes rows start..stop-1, whole blocks or a piece of one, resuming the
    Gray-code XOR at any row, so no call holds all n_samples x dim normals.
    """
    per = n_samples // RQMC_BATCHES
    if per * RQMC_BATCHES != n_samples:
        raise ValueError(f"sample count must be a multiple of {RQMC_BATCHES}")
    m = math.ceil(math.log2(per))
    bits = (_sobol_directions(dim, m)[:, :, None] >> _BIT) & 1  # (m, dim, k)
    shift = np.empty((RQMC_BATCHES, dim), dtype=np.uint32)
    directions = np.empty((RQMC_BATCHES, m, dim), dtype=np.uint32)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(RQMC_BATCHES)):
        rng = np.random.default_rng(child.spawn(1)[0])
        shift_bits = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32)
        shift[b] = (shift_bits << _BIT).sum(axis=1, dtype=np.uint32)
        ltm = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        ltm[:, _BIT, _BIT] = 1
        # column k of the scramble matrix as an integer (scipy's bit order
        # reverses both axes of ltm), XORed over the bits of each direction
        cols = (ltm[:, ::-1, ::-1] << _BIT[:, None]).sum(axis=1, dtype=np.uint32)
        directions[b] = np.bitwise_xor.reduce(cols * bits, axis=-1)

    def rows(start: int, stop: int) -> np.ndarray:
        b, lo = divmod(start, per)
        n_blocks = max(1, (stop - start) // per)  # whole blocks, or a piece of block b
        hi = lo + (stop - start) // n_blocks
        first = (lo ^ lo >> 1) >> np.arange(m) & 1 == 1  # the directions row lo XORs
        i = np.arange(lo + 1, hi)  # each later row XORs direction trailing_zeros(i)
        table = np.empty((n_blocks, hi - lo, dim), dtype=np.uint32)
        table[:, 0] = np.bitwise_xor.reduce(directions[b:b + n_blocks, first], axis=1)
        table[:, 0] ^= shift[b:b + n_blocks]
        table[:, 1:] = directions[b:b + n_blocks, np.log2(i & -i).astype(np.intp)]
        np.bitwise_xor.accumulate(table, axis=1, out=table)
        u = table.reshape(-1, dim) * 2.0 ** -SOBOL_BITS
        # 0.5 + (1 - 1e-10) (u - 0.5), in place: the same bits, no full-size temporaries
        u -= 0.5
        u *= 1.0 - 1e-10
        u += 0.5
        return ndtri(u, out=u)

    return SimpleNamespace(batches=RQMC_BATCHES, size=dim, rows=rows)


def plain_stream(draw, size: int, seed: int) -> SimpleNamespace:
    """N_BATCHES batches of rows of ``size`` values, ``draw(rng, n)`` from one
    seeded generator in order: ``two_point_table``'s and the cluster F and Z draws."""
    rng = np.random.default_rng(seed)
    return SimpleNamespace(batches=N_BATCHES, size=size,
                           rows=lambda start, stop: draw(rng, stop - start))


def map_rows(source, work, size: int) -> SimpleNamespace:
    """``source`` with ``work(rows)``, an array with a leading row axis, made
    once per chunk; ``size`` counts a row's values in the work too."""
    return SimpleNamespace(batches=source.batches, size=size,
                           rows=lambda start, stop: work(source.rows(start, stop)))


def accumulate(source, columns, n_samples: int) -> np.ndarray:
    """Per-batch column sums over ``n_samples`` rows of a row source.

    ``source`` has ``batches``, ``size`` and ``rows(start, stop)``, which
    makes rows start..stop-1 (``plain_stream``, ``scrambled_normals``,
    ``map_rows``).  A chunk of rows holds at most CHUNK_VALUES // size rows
    (at least one): as many whole batches as fit, else a piece of one batch,
    so memory stays bounded for any budget.  ``columns`` gets each batch's
    slice of a chunk and returns the slice's sum of each column (scalars, or
    arrays of one shape).  Returns shape (batches, n_columns, ...).
    """
    if n_samples % source.batches != 0:
        raise ValueError(f"sample count must be a multiple of {source.batches} batches")
    per = n_samples // source.batches
    chunk = max(1, CHUNK_VALUES // source.size)
    group = max(1, chunk // per) * per  # the whole batches one chunk can hold
    starts = [lo for first in range(0, n_samples, group)
              for lo in range(first, min(first + group, n_samples), min(chunk, group))]
    sums = [0.0] * source.batches
    for lo, hi in zip(starts, starts[1:] + [n_samples]):
        values = source.rows(lo, hi)
        for b in range(lo // per, (hi - 1) // per + 1):
            part = values[max(lo, b * per) - lo:(b + 1) * per - lo]
            sums[b] = sums[b] + np.asarray(columns(part), dtype=float)
    return np.array(sums)


def jackknife(batch_sums: np.ndarray, statistic):
    """statistic(column totals) and its delete-one-batch standard error.

    Estimates on the same batches share their replicates, so a statistic that
    combines them (a weighted sum of ratios) carries their correlation.
    """
    total = batch_sums.sum(axis=0)
    leave = np.stack([statistic(total - s) for s in batch_sums])
    spread = np.sum((leave - leave.mean(axis=0)) ** 2, axis=0)
    return statistic(total), np.sqrt((len(leave) - 1) / len(leave) * spread)


def sobol_led(sampler: GaussianFieldSampler, n_samples: int, seed: int) -> SimpleNamespace:
    """The row source of mean-zero fields led by scrambled Sobol rows.

    Each field is ``sampler.sample(rng, n, lead=rows)``: its n_lead
    largest-eigenvalue noise coordinates come from ``scrambled_normals`` and
    the rest are padded with plain normals from one generator seeded with
    ``seed`` (Owen 1998), so the RQMC_BATCHES scrambles are independent
    batches and the jackknife runs over them.
    """
    rng = np.random.default_rng(seed)
    return map_rows(scrambled_normals(n_samples, sampler.n_lead, seed),
                    lambda lead: sampler.sample(rng, len(lead), lead=lead),
                    math.prod(sampler.shape))


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
    of the linear action terms, with w = exp(-dt sum V) in (0, 1]; the draws'
    leading modes are scrambled Sobol rows (``sobol_led``), and the standard
    error is the jackknife over the scrambles.
    """
    def columns(phi):
        if ensemble.linear_term is not None:
            phi += ensemble.mean_shift
        w = ensemble.weight(phi)
        av = np.asarray(observable(phi), dtype=float)
        return w.sum(), (w * av).sum(), (w ** 2).sum()

    sums = accumulate(sobol_led(ensemble.sampler, n_samples, seed), columns, n_samples)
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
                    burn_in: int | None = None) -> EstimatorResult:
    """Markov chain estimate with the covariance-preserving mixing proposal.

    Like importance sampling, the chain runs on the shifted reference N(m, C),
    with m = -C l the exact mean shift of the linear action terms.  The
    proposal phi' = m + rho (phi - m) + sqrt(1 - rho^2) xi, with rho = PCN_RHO
    and xi a fresh reference draw, leaves N(m, C) invariant, and the Metropolis correction
    acts on dt sum V(phi) alone: the action less its linear term.  The
    proposal offsets and the Metropolis uniforms do not depend on the chain's
    state, so they are drawn in chunks of at most CHUNK_VALUES field
    values, whatever the chain's length; the step loop only mixes, evaluates
    the action and accepts, and the observable is evaluated once per chunk on
    the chain's fields.  Error bars use the integrated autocorrelation time.
    """
    rng = np.random.default_rng(seed)
    if burn_in is None:
        burn_in = max(200, n_samples // 10)
    mix = math.sqrt(1.0 - PCN_RHO ** 2)
    ell = ensemble.linear_term
    centre = (1.0 - PCN_RHO) * ensemble.mean_shift

    def relative_action(phi):  # dt sum V(phi) = S(phi) - l . phi
        s = float(ensemble.action(phi)[0])
        return s if ell is None else s - float(np.vdot(ell, phi))

    phi = ensemble.draw(rng, 1)
    s = relative_action(phi)
    n_steps = burn_in + n_samples
    per_chunk = max(1, CHUNK_VALUES // math.prod(ensemble.sampler.shape))
    trace = np.empty(n_steps)
    for start in range(0, n_steps, per_chunk):
        k = min(per_chunk, n_steps - start)
        chain = ensemble.sampler.sample(rng, k)  # the offsets, overwritten by the states
        chain *= mix
        chain += centre
        log_u = np.log(rng.uniform(size=k))
        for i in range(k):
            prop = PCN_RHO * phi + chain[i]
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
                backend: str = "reweight") -> EstimatorResult:
    """Gibbs expectation of a bounded-evaluation observable."""
    if backend == "reweight":
        return reweight_expectation(ensemble, observable, n_samples, seed)
    if backend == "mcmc":
        return pcn_expectation(ensemble, observable, n_samples, seed)
    raise ValueError(f"unknown backend {backend!r}")


def two_point_table(ensemble: Ensemble, time_lag, n_samples: int, seed: int):
    """Translation-averaged connected correlations for all site displacements.

    Returns (K, K_err) arrays indexed by the displacement in FFT order; sums
    the space-time autocorrelation of each sample, so every site and time
    origin contributes, as irfftn(sum_n w_n |phi_hat_n|^2) once per chunk of
    half-spectrum draws phi_hat.  ``time_lag`` is one lag in slices, or a
    sequence of lags: then K and K_err gain a trailing lag axis, and one set
    of draws serves every lag.  Periodic boxes only.
    """
    if ensemble.lattice.boundary is not Boundary.PERIODIC:
        raise ValueError("translation averaging needs a periodic box")
    if ensemble.d != 1:
        raise ValueError("translation-averaged tables are single-component")
    sampler = ensemble.sampler
    norm = ensemble.lattice.n_sites * ensemble.n_slices
    zero = (slice(None),) + (0,) * (ensemble.lattice.nu + 2)

    def columns(phi_hat):  # w, w * R(dx), w * box mean, each broadcast to the table
        power = np.square(phi_hat.real) + np.square(phi_hat.imag)
        total = phi_hat[zero].real.copy()  # ``field`` consumes phi_hat
        w = ensemble.weight(sampler.field(phi_hat))
        corr = sampler.field(np.tensordot(w, power, axes=(0, 0)))[..., 0] / norm
        return np.broadcast_arrays(w.sum(), corr[..., time_lag], (w @ total) / norm)

    source = plain_stream(partial(ensemble.draw, spectral=True), math.prod(sampler.shape), seed)
    sums = accumulate(source, columns, n_samples)
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


def clustering_fit(ensemble: Ensemble, max_dist: int, n_samples: int,
                   seed: int) -> ClusteringFit:
    """Fit the spatial decay rate of the equal-time connected two-point function.

    Refuses to fit whenever any correlation estimate along the fit range is
    within two standard errors of zero.  The reference rate is the fit of the
    exact harmonic kernel over the same distances; sqrt(a) is the idealized
    decay constant quoted alongside it.
    """
    if min(ensemble.lattice.dims) < 4 * max_dist:
        raise ValueError("need box side >= 4 * max_dist for a clean fit window")
    k_grid, e_grid = two_point_table(ensemble, 0, n_samples, seed)
    dists = np.arange(1, max_dist + 1)
    k = np.array([k_grid[(d,) + (0,) * (ensemble.lattice.nu - 1)] for d in dists])
    e = np.array([e_grid[(d,) + (0,) * (ensemble.lattice.nu - 1)] for d in dists])
    if np.any(np.abs(k) <= 2.0 * e):
        raise RuntimeError("two-point estimates are consistent with zero; "
                           "cannot fit a decay rate")
    rate, intercept, residuals = fit_exponential_decay(dists, k, e)
    g = np.array([ensemble.kernel.closed((d,) + (0,) * (ensemble.lattice.nu - 1),
                                         (0,) * ensemble.lattice.nu, 0.0)
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
                 n_samples: int, seed: int):
    """Difference of <phi_site(tau)>'s first component under two boundary conditions.

    Both expectations are computed on common reference draws, Sobol-led as
    in ``sobol_led``, after exactly absorbing the linear terms into a
    Gaussian mean shift, so the harmonic part of the gap carries no Monte
    Carlo noise at all.
    """
    si = ens_xi.lattice.site_index(site) if not np.isscalar(site) else int(site)
    sl = ens_xi.grid.slice_of(tau)
    shift_xi, shift_eta = ens_xi.mean_shift, ens_eta.mean_shift
    flat_xi = shift_xi.reshape(ens_xi.lattice.n_sites, ens_xi.n_slices, ens_xi.d)
    flat_eta = shift_eta.reshape(*flat_xi.shape)
    exact = float(flat_xi[si, sl, 0] - flat_eta[si, sl, 0])

    def columns(psi):
        w_xi = ens_xi.weight(psi + shift_xi)
        w_eta = ens_eta.weight(psi + shift_eta)
        phi0 = psi.reshape(len(psi), -1, ens_xi.n_slices, ens_xi.d)[:, si, sl, 0]
        return w_xi.sum(), (w_xi * phi0).sum(), w_eta.sum(), (w_eta * phi0).sum()

    sums = accumulate(sobol_led(ens_xi.sampler, n_samples, seed), columns, n_samples)
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
    reference Gaussian keeps zero boundary values, and its draws are
    Sobol-led as in ``sobol_led``.  Estimates should not degrade as y grows.
    """
    if ensemble.bc.boundary is Boundary.PERIODIC:
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

    sums = accumulate(sobol_led(ensemble.sampler, n_samples, seed), columns, n_samples)
    return _weighted_result(sums, lambda c: c[1] / c[0], n_samples, seed)
