import pytest

from anhcrystal.grid import FieldGrid
from anhcrystal.lattice import Lattice, Rod, RodMode, rod_partition


@pytest.fixture
def grid():
    return FieldGrid(Lattice(1, (2,)), beta_hat=2.0, n_slices=8)


class TestFieldGrid:
    def test_point_roundtrip(self, grid):
        for site in range(2):
            for s in range(8):
                assert grid.point_pair(grid.point(site, s)) == (site, s)

    def test_cyclic_time_index(self, grid):
        assert grid.point(1, 9) == grid.point(1, 1)

    @pytest.mark.parametrize("site", [-1, 2])
    def test_site_off_the_box_rejected(self, grid, site):
        with pytest.raises(ValueError, match=f"site {site} is outside the 2-site box"):
            grid.point(site, 0)

    def test_slice_of_grid_times(self, grid):
        assert grid.slice_of(0.0) == 0
        assert grid.slice_of(0.5) == 2
        assert grid.slice_of(2.0) == 0  # wraps at the period
        with pytest.raises(ValueError):
            grid.slice_of(0.13)

    def test_rod_points_tile_the_grid(self, grid):
        part = rod_partition(grid.lattice, grid.beta_hat, RodMode.LOW_TEMPERATURE)
        seen = []
        for rod in part.rods:
            seen.extend(grid.rod_points(rod, part).tolist())
        assert sorted(seen) == list(range(grid.n_points))

    def test_high_temperature_rods_are_columns(self):
        grid = FieldGrid(Lattice(1, (3,)), beta_hat=0.4, n_slices=6)
        part = rod_partition(grid.lattice, grid.beta_hat, RodMode.HIGH_TEMPERATURE)
        pts = grid.rod_points(part.rods[1], part)
        assert pts.tolist() == [6, 7, 8, 9, 10, 11]

    def test_rod_of_point(self, grid):
        part = rod_partition(grid.lattice, grid.beta_hat, RodMode.LOW_TEMPERATURE)
        assert grid.rod_of_point(grid.point(1, 5), part) == Rod(site=1, time_index=1)

    def test_rejects_incommensurate_slices(self):
        grid = FieldGrid(Lattice(1, (2,)), beta_hat=3.0, n_slices=8)
        part = rod_partition(grid.lattice, 3.0, RodMode.LOW_TEMPERATURE)
        with pytest.raises(ValueError):
            grid.rod_points(part.rods[0], part)

    def test_requires_finite_beta(self):
        import math

        with pytest.raises(ValueError):
            FieldGrid(Lattice(1, (2,)), beta_hat=math.inf, n_slices=8)
