"""Lattice boxes, their harmonic mode energies, and rod modes.

Sites live on a nu-dimensional box with side lengths ``dims``; displacement
trajectories attach a periodic imaginary-time circle of circumference
``beta_hat`` to every site.  The space-time box is tiled by "rods": one site
together with one unit time interval (low-temperature mode) or one site with
the whole time circle (high-temperature mode); ``ClusterInstance.rod_points``
lays them out on the grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Boundary(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


class RodMode(Enum):
    LOW_TEMPERATURE = "lowT"
    HIGH_TEMPERATURE = "highT"


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


def dispersion_grid(lat: Lattice, a: float, J: float) -> np.ndarray:
    """Harmonic mode energies of the box in FFT index order, shape ``dims``.

    These are the eigenvalues of a - J * (discrete Laplacian).
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
