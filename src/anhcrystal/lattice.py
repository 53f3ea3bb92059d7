"""Periodic lattice boxes, the dual lattice, dispersion, and rod partitions.

Sites live on a nu-dimensional box with side lengths ``dims``; displacement
trajectories attach a periodic imaginary-time circle of circumference
``beta_hat`` to every site.  The space-time box is tiled by "rods": one site
together with one unit time interval (low-temperature mode) or one site with
the whole time circle (high-temperature mode).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Boundary(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


class RodMode(Enum):
    LOW_TEMPERATURE = "lowT"
    HIGH_TEMPERATURE = "highT"


def dispersion(k, a: float, J: float) -> float:
    """Harmonic mode energy a + 4 J sum_mu sin^2(k_mu / 2)."""
    if a <= 0:
        raise ValueError("one-site harmonic constant a must be positive")
    if J < 0:
        raise ValueError("coupling J must be nonnegative")
    k = np.atleast_1d(np.asarray(k, dtype=float))
    return float(a + 4.0 * J * np.sum(np.sin(k / 2.0) ** 2))


@dataclass(frozen=True)
class DualMode:
    """One plane-wave mode of the harmonic lattice operator."""

    n: tuple[int, ...]
    k: tuple[float, ...]
    eps: float

    @property
    def lam(self) -> float:
        return math.sqrt(self.eps)


@dataclass(frozen=True)
class Lattice:
    """A finite nu-dimensional box of sites.

    Periodic boxes identify site j with j + N_mu e_mu.  The canonical box has
    even side lengths (half-integer window symmetry); side length 1 degenerates
    a direction to a single uncoupled layer and odd sides are tolerated for
    desk-scale experiments, both with the same circulant mode structure.
    """

    nu: int
    dims: tuple[int, ...]
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("lattice dimension nu must be >= 1")
        if len(self.dims) != self.nu:
            raise ValueError("dims must list one side length per lattice direction")
        if any(n < 1 for n in self.dims):
            raise ValueError("side lengths must be positive")

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    def sites(self):
        """All site coordinate tuples, row-major order."""
        return itertools.product(*(range(n) for n in self.dims))

    def site_index(self, site) -> int:
        return int(np.ravel_multi_index(tuple(site), self.dims))

    def site_coords(self, index: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(index, self.dims))

    def boundary_pairs(self):
        """Pairs (inside site index, outside site coords) across the box edge.

        Only meaningful for Dirichlet boxes, where the outside layer carries
        the boundary condition.  Each ordered pair appears once.
        """
        pairs = []
        for site in self.sites():
            i = self.site_index(site)
            for mu in range(self.nu):
                for step in (-1, 1):
                    nb = list(site)
                    nb[mu] = site[mu] + step
                    if nb[mu] < 0 or nb[mu] >= self.dims[mu]:
                        pairs.append((i, tuple(nb)))
        return pairs


def dual_modes(lat: Lattice, a: float = 1.0, J: float = 0.0) -> list[DualMode]:
    """Enumerate the dual lattice of a periodic box with dispersion attached.

    The integer window is n_mu in {-N_mu/2 + 1, ..., N_mu/2}, which gives
    exactly N_mu modes per direction.
    """
    if lat.boundary is not Boundary.PERIODIC:
        raise ValueError("dual plane-wave modes exist only for periodic boxes; "
                         "Dirichlet boxes diagonalize in sine modes")
    windows = []
    for n_mu in lat.dims:
        lo = -(n_mu // 2) + 1 if n_mu % 2 == 0 else -(n_mu // 2)
        windows.append(range(lo, n_mu // 2 + 1))
    modes = []
    for n in itertools.product(*windows):
        k = tuple(2.0 * math.pi * n_mu / N for n_mu, N in zip(n, lat.dims))
        modes.append(DualMode(n=n, k=k, eps=dispersion(k, a, J)))
    return modes


def dispersion_grid(lat: Lattice, a: float, J: float) -> np.ndarray:
    """Dispersion on the dual lattice in FFT index order, shape ``dims``.

    Periodic: eps(n) = a + 4 J sum sin^2(pi n / N) over the FFT frequency grid.
    Dirichlet: sine-mode energies a + 4 J sum sin^2(pi p / (2(N+1))), p = 1..N,
    ordered to match an orthonormal type-I sine transform.
    """
    if lat.boundary is Boundary.PERIODIC:
        grids = np.meshgrid(
            *(np.sin(math.pi * np.arange(n) / n) ** 2 for n in lat.dims),
            indexing="ij",
        )
    else:
        grids = np.meshgrid(
            *(np.sin(math.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
              for n in lat.dims),
            indexing="ij",
        )
    return a + 4.0 * J * sum(grids)


@dataclass(frozen=True)
class Rod:
    """An elementary space-time cell: one site and one unit time interval."""

    site: int
    time_index: int


@dataclass(frozen=True)
class RodPartition:
    lattice: Lattice
    beta_hat: float
    mode: RodMode
    rods: tuple[Rod, ...] = field(repr=False)

    @property
    def rods_per_site(self) -> int:
        return len(self.rods) // self.lattice.n_sites


def rod_partition(lat: Lattice, beta_hat: float, mode: RodMode) -> RodPartition:
    """Tile the space-time box into rods.

    Low-temperature mode partitions the time circle into unit intervals and
    requires an integer beta_hat; high-temperature mode keeps the whole circle
    as a single interval per site and accepts any beta_hat > 0.
    """
    if not (beta_hat > 0) or math.isinf(beta_hat):
        raise ValueError("rod partition requires finite beta_hat > 0")
    if mode is RodMode.LOW_TEMPERATURE:
        r = round(beta_hat)
        if abs(beta_hat - r) > 1e-12 or r < 1:
            raise ValueError("low-temperature rods need integer beta_hat")
        per_site = r
    else:
        per_site = 1
    rods = tuple(
        Rod(site=s, time_index=t)
        for s in range(lat.n_sites)
        for t in range(per_site)
    )
    return RodPartition(lattice=lat, beta_hat=float(beta_hat), mode=mode, rods=rods)
