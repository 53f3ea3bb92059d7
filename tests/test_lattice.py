import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhcrystal.lattice import (Boundary, Lattice, RodMode, dispersion,
                                dispersion_grid, dual_modes, rod_partition)


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
    def test_low_temperature_count(self):
        lat = Lattice(1, (2,))
        part = rod_partition(lat, 3.0, RodMode.LOW_TEMPERATURE)
        assert len(part.rods) == 6

    def test_high_temperature_one_per_site(self):
        lat = Lattice(1, (4,))
        part = rod_partition(lat, 0.37, RodMode.HIGH_TEMPERATURE)
        assert len(part.rods) == 4

    def test_rejects_fractional_beta(self):
        with pytest.raises(ValueError):
            rod_partition(Lattice(1, (2,)), 2.5, RodMode.LOW_TEMPERATURE)

    def test_partition_is_bijection(self):
        lat = Lattice(1, (4,))
        part = rod_partition(lat, 3.0, RodMode.LOW_TEMPERATURE)
        cells = {(rod.site, rod.time_index) for rod in part.rods}
        assert cells == set(itertools.product(range(4), range(3)))


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
