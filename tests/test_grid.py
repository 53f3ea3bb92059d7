import pytest

from anhcrystal.cluster import ClusterInstance
from anhcrystal.grid import FieldGrid
from anhcrystal.lattice import Lattice, RodMode
from anhcrystal.sampler import Ensemble, periodic_bc


@pytest.fixture
def grid():
    return FieldGrid(Lattice(1, (2,)), beta_hat=2.0, n_slices=8)


def expansion_on(grid, mode, point=0):
    """A cluster expansion on the grid's box, its observable at one flat point."""
    ens = Ensemble(lattice=grid.lattice, a=1.0, J=0.25, beta_hat=grid.beta_hat,
                   n_slices=grid.n_slices, b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
    return ClusterInstance(ensemble=ens, mode=mode, monomials={point: 2})


class TestFieldGrid:
    def test_point_roundtrip(self, grid):
        for site in range(2):
            for s in range(8):
                assert divmod(grid.point(site, s), grid.n_slices) == (site, s)

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
        rods = expansion_on(grid, RodMode.LOW_TEMPERATURE).rod_points
        assert rods.shape == (4, 4)
        assert sorted(rods.ravel().tolist()) == list(range(grid.n_points))

    def test_high_temperature_rods_are_columns(self):
        grid = FieldGrid(Lattice(1, (3,)), beta_hat=0.4, n_slices=6)
        rods = expansion_on(grid, RodMode.HIGH_TEMPERATURE).rod_points
        assert rods[1].tolist() == [6, 7, 8, 9, 10, 11]

    def test_rod_of_point(self, grid):
        # site 1, slice 5 lies in site 1's second unit interval: rod 2 * 1 + 1
        point = grid.point(1, 5)
        inst = expansion_on(grid, RodMode.LOW_TEMPERATURE, point)
        assert inst.x1_rod_ids == (3,)
        assert inst.x1_points.tolist() == [grid.point(1, s) for s in range(4, 8)]

    def test_rejects_incommensurate_slices(self):
        grid = FieldGrid(Lattice(1, (2,)), beta_hat=3.0, n_slices=8)
        with pytest.raises(ValueError, match="divisible"):
            expansion_on(grid, RodMode.LOW_TEMPERATURE).rod_points

    def test_requires_finite_beta(self):
        import math

        with pytest.raises(ValueError):
            FieldGrid(Lattice(1, (2,)), beta_hat=math.inf, n_slices=8)
