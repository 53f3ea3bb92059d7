"""Discretization of the space-time box into (site, time-slice) grid points."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .lattice import Lattice


@dataclass(frozen=True)
class FieldGrid:
    """Uniform grid over sites and one period of imaginary time.

    Slice s sits at time s * delta_tau with delta_tau = beta_hat / n_slices;
    the time index is cyclic.  Flat point ids are site_index * n_slices + s.
    """

    lattice: Lattice
    beta_hat: float
    n_slices: int

    def __post_init__(self):
        if math.isinf(self.beta_hat) or not (self.beta_hat > 0):
            raise ValueError("grids need finite beta_hat > 0")
        if self.n_slices < 2:
            raise ValueError("need at least two time slices")

    @property
    def delta_tau(self) -> float:
        return self.beta_hat / self.n_slices

    @property
    def n_points(self) -> int:
        return self.lattice.n_sites * self.n_slices

    def point(self, site_index: int, slice_index: int) -> int:
        """Flat id of a site of the box at a slice, which is taken cyclically."""
        if not 0 <= site_index < self.lattice.n_sites:
            raise ValueError(f"site {site_index} is outside the {self.lattice.n_sites}-site box")
        return site_index * self.n_slices + (slice_index % self.n_slices)

    def slice_of(self, tau: float) -> int:
        """Nearest grid slice to time tau (must sit on the grid to 1e-9)."""
        s = tau / self.delta_tau
        nearest = round(s)
        if abs(s - nearest) > 1e-9:
            raise ValueError(f"tau={tau} does not lie on the {self.n_slices}-slice grid")
        return int(nearest) % self.n_slices

    @cached_property
    def all_points(self) -> tuple:
        """(site_index, slice) for every grid point, ordered by flat id."""
        return tuple((s, t) for s in range(self.lattice.n_sites)
                     for t in range(self.n_slices))
