import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhcrystal.cluster import ClusterInstance
from anhcrystal.lattice import Boundary, Lattice, RodMode, dispersion_grid
from anhcrystal.sampler import Ensemble, periodic_bc


def dispersion(k, a: float, J: float) -> float:
    """Harmonic mode energy a + 4 J sum_mu sin^2(k_mu / 2)."""
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


def dual_modes(lat: Lattice, a: float = 1.0, J: float = 0.0) -> list[DualMode]:
    """Enumerate the dual lattice of a periodic box with dispersion attached.

    The integer window is n_mu in {-N_mu/2 + 1, ..., N_mu/2}, which gives
    exactly N_mu modes per direction.  This is the reference enumeration for
    ``dispersion_grid``.
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


def neighbor_pairs(lat: Lattice):
    """Unordered nearest-neighbour bonds inside the box, each once.

    Periodic boxes include wraparound bonds; a direction of length 2
    therefore carries a doubled bond and length 1 carries none.
    """
    pairs = []
    for site in lat.sites():
        i = lat.site_index(site)
        for mu in range(lat.nu):
            n_mu = lat.dims[mu]
            if n_mu == 1:
                continue
            nb = list(site)
            nb[mu] = site[mu] + 1
            if nb[mu] < n_mu:
                pairs.append(tuple(sorted((i, lat.site_index(nb)))))
            elif lat.boundary is Boundary.PERIODIC:
                nb[mu] = 0
                pairs.append(tuple(sorted((i, lat.site_index(nb)))))
    return pairs


def torus_distance(lat: Lattice, i, j) -> int:
    """Graph distance between two sites (wraparound on periodic boxes)."""
    ci = np.asarray(lat.site_coords(i) if np.isscalar(i) else i, dtype=int)
    cj = np.asarray(lat.site_coords(j) if np.isscalar(j) else j, dtype=int)
    delta = np.abs(ci - cj)
    if lat.boundary is Boundary.PERIODIC:
        wrapped = np.minimum(delta, np.asarray(lat.dims) - delta)
        return int(wrapped.sum())
    return int(delta.sum())


class TestDualModes:
    def test_two_point_torus(self):
        modes = dual_modes(Lattice(1, (2,)), a=1.0, J=0.25)
        ks = sorted(m.k[0] for m in modes)
        assert ks == pytest.approx([0.0, math.pi])

    def test_four_point_window(self):
        modes = dual_modes(Lattice(1, (4,)), a=1.0, J=0.25)
        ks = sorted(m.k[0] for m in modes)
        assert ks == pytest.approx([-math.pi / 2, 0.0, math.pi / 2, math.pi])

    @pytest.mark.parametrize("dims", [(2,), (4,), (2, 4), (4, 4, 2)])
    def test_mode_count_is_site_count(self, dims):
        lat = Lattice(len(dims), dims)
        assert len(dual_modes(lat)) == lat.n_sites

    def test_dirichlet_rejected(self):
        with pytest.raises(ValueError):
            dual_modes(Lattice(1, (4,), Boundary.DIRICHLET))

    def test_eps_bounds_and_extremes(self):
        a, J = 1.0, 0.25
        lat = Lattice(2, (4, 4))
        modes = dual_modes(lat, a, J)
        eps = [m.eps for m in modes]
        assert min(eps) == a  # at k = 0
        assert max(eps) == a + 4 * J * lat.nu  # at k = (pi, pi) for even sides
        for m in modes:
            assert a <= m.eps <= a + 4 * J * lat.nu
            assert m.lam == pytest.approx(math.sqrt(m.eps))

    def test_grid_matches_enumeration(self):
        lat = Lattice(2, (4, 2))
        grid = dispersion_grid(lat, a=1.0, J=0.3)
        listed = sorted(m.eps for m in dual_modes(lat, a=1.0, J=0.3))
        assert sorted(grid.ravel()) == pytest.approx(listed)


class TestDispersion:
    def test_zero_momentum(self):
        assert dispersion((0.0,), a=1.7, J=3.0) == 1.7

    def test_zone_edge(self):
        assert dispersion((math.pi,), a=1.0, J=0.25) == pytest.approx(2.0)

    @given(k=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_even_in_k(self, k):
        k = np.array(k)
        assert dispersion(k, 1.0, 0.5) == pytest.approx(dispersion(-k, 1.0, 0.5))


def bfs_distance(lat: Lattice, start: int, goal: int) -> int:
    """Brute-force graph distance oracle over the bond structure."""
    adj = {}
    for i, j in neighbor_pairs(lat):
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            return seen[node]
        for nb in adj.get(node, ()):
            if nb not in seen:
                seen[nb] = seen[node] + 1
                queue.append(nb)
    raise AssertionError("disconnected lattice")


class TestTorusDistance:
    def test_zero(self):
        lat = Lattice(1, (8,))
        assert torus_distance(lat, 0, 0) == 0

    def test_wraparound(self):
        lat = Lattice(1, (8,))
        assert torus_distance(lat, 0, 7) == 1

    def test_two_dimensional(self):
        lat = Lattice(2, (4, 4))
        i = lat.site_index((0, 0))
        j = lat.site_index((2, 2))
        assert torus_distance(lat, i, j) == 4
        assert torus_distance(lat, i, j) == bfs_distance(lat, i, j)

    @given(st.sampled_from([(4,), (6,), (4, 4), (2, 6)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs(self, dims, data):
        lat = Lattice(len(dims), dims)
        i = data.draw(st.integers(0, lat.n_sites - 1))
        j = data.draw(st.integers(0, lat.n_sites - 1))
        assert torus_distance(lat, i, j) == bfs_distance(lat, i, j)

    def test_dirichlet_is_plain_l1(self):
        lat = Lattice(1, (8,), Boundary.DIRICHLET)
        assert torus_distance(lat, 0, 7) == 7


class TestRodPartition:
    @staticmethod
    def rods(n_sites, beta_hat, mode, n_slices=6):
        """The rods of a cluster expansion on a periodic chain, one row of flat ids each."""
        ens = Ensemble(lattice=Lattice(1, (n_sites,)), a=1.0, J=0.25, beta_hat=beta_hat,
                       n_slices=n_slices, b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
        return ClusterInstance(ensemble=ens, mode=mode, monomials={0: 2}).rod_points

    def test_low_temperature_count(self):
        assert len(self.rods(2, 3.0, RodMode.LOW_TEMPERATURE)) == 6

    def test_high_temperature_one_per_site(self):
        rods = self.rods(4, 0.37, RodMode.HIGH_TEMPERATURE, n_slices=4)
        assert rods.shape == (4, 4)

    def test_rejects_fractional_beta(self):
        with pytest.raises(ValueError, match="integer beta_hat"):
            self.rods(2, 2.5, RodMode.LOW_TEMPERATURE)

    def test_partition_is_bijection(self):
        # rod r is site r // 3 over unit interval r % 3: site first, then time
        rods = self.rods(4, 3.0, RodMode.LOW_TEMPERATURE)
        cells = [(int(pts[0]) // 6, int(pts[0]) % 6 // 2) for pts in rods]
        assert cells == list(itertools.product(range(4), range(3)))
        assert all(pts.tolist() == list(range(pts[0], pts[0] + 2)) for pts in rods)


class TestBonds:
    def test_two_site_ring_has_doubled_bond(self):
        lat = Lattice(1, (2,))
        assert sorted(neighbor_pairs(lat)) == [(0, 1), (0, 1)]

    def test_periodic_bond_count(self):
        lat = Lattice(2, (4, 4))
        assert len(neighbor_pairs(lat)) == lat.nu * lat.n_sites

    def test_dirichlet_boundary_pairs(self):
        lat = Lattice(1, (4,), Boundary.DIRICHLET)
        pairs = lat.boundary_pairs()
        assert (0, (-1,)) in pairs
        assert (3, (4,)) in pairs
        assert len(pairs) == 2

    def test_degenerate_direction_has_no_bonds(self):
        lat = Lattice(1, (1,))
        assert neighbor_pairs(lat) == []
