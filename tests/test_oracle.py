import math
from dataclasses import replace

import numpy as np
import pytest

from anhcrystal.covariance import CovarianceKernel
from anhcrystal.lattice import Lattice
from anhcrystal.oracle import (_OFFSETS, _STENCIL, GridHamiltonian, convergence_check,
                               thermal_correlation, thermal_trace)


def dense_solution(ham: GridHamiltonian):
    """The solve with dense diagonal matrices and Kronecker products throughout."""
    x = np.linspace(-ham.extent, ham.extent, ham.n_grid)
    lap = sum(np.diag(np.full(ham.n_grid - abs(o), c), o)
              for o, c in zip(_OFFSETS, _STENCIL)) / (x[1] - x[0]) ** 2
    one_site = -0.5 * lap + np.diag(ham._onsite(x))

    def lowest(h, operators, keep):
        energies, vecs = np.linalg.eigh(h)
        vecs = vecs[:, :keep]
        return energies[:keep], [vecs.T @ (op @ vecs) for op in operators]

    if ham.n_sites == 1:
        one_site -= ham.energy_shift * np.eye(ham.n_grid)
        return lowest(one_site, [np.diag(x)], ham.n_grid)
    k = math.isqrt(4 * ham.n_states - 1) + 1
    e, (xk, xsq) = lowest(one_site, [np.diag(x), np.diag(x ** 2)], k)
    one = np.eye(k)
    pair = (np.diag(np.add.outer(e, e).ravel() - ham.energy_shift)
            + ham.J * (np.kron(xsq, one) + np.kron(one, xsq) - 2.0 * np.kron(xk, xk)))
    return lowest(pair, [np.kron(xk, one), np.kron(one, xk)], ham.n_states)


@pytest.fixture(scope="module")
def harmonic_site():
    return GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=0.0, delta_m=1.0)


@pytest.fixture(scope="module")
def anharmonic_site():
    return GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=0.5, delta_m=1.0)


@pytest.fixture(scope="module")
def two_site():
    return GridHamiltonian(n_sites=2, a=1.0, J=0.25, b_m=0.0, delta_m=1.0,
                           extent=8.0, n_grid=96, n_states=150)


class TestThermalTrace:
    def test_harmonic_value(self, harmonic_site):
        for beta in (0.5, 1.0, 2.0):
            exact = -math.log(1.0 - math.exp(-beta))
            assert thermal_trace(harmonic_site, beta) == pytest.approx(exact,
                                                                       abs=1e-4)

    def test_constant_potential_limit(self):
        # delta -> 0 shifts every level by b_m, so log Z shifts by -beta b_m
        flat = GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=2.0, delta_m=1e-12)
        base = GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=0.0, delta_m=1.0)
        shift = thermal_trace(flat, 1.5) - thermal_trace(base, 1.5)
        assert shift == pytest.approx(-1.5 * 2.0, abs=1e-6)

    def test_anharmonicity_decreases_z(self, harmonic_site, anharmonic_site):
        assert thermal_trace(anharmonic_site, 2.0) < thermal_trace(harmonic_site, 2.0)

    def test_rejects_infinite_beta(self, harmonic_site):
        with pytest.raises(ValueError):
            thermal_trace(harmonic_site, math.inf)


class TestThermalCorrelation:
    def test_harmonic_matches_single_mode(self, harmonic_site):
        kern = CovarianceKernel(Lattice(1, (1,)), a=1.0, J=0.0, beta_hat=2.0)
        for tau in (0.0, 0.5, 1.0, 1.5):
            assert thermal_correlation(harmonic_site, 2.0, tau) == pytest.approx(
                kern.closed((0,), (0,), tau), abs=1e-4)

    def test_time_reflection_symmetry(self, anharmonic_site):
        for tau in (0.3, 0.7):
            left = thermal_correlation(anharmonic_site, 2.0, tau)
            right = thermal_correlation(anharmonic_site, 2.0, 2.0 - tau)
            assert left == pytest.approx(right, abs=1e-10)

    def test_two_site_matches_covariance(self, two_site):
        kern = CovarianceKernel(Lattice(1, (2,)), a=1.0, J=0.25, beta_hat=2.0)
        for tau in (0.25, 0.5, 1.0):
            same = thermal_correlation(two_site, 2.0, tau, 0, 0)
            cross = thermal_correlation(two_site, 2.0, tau, 0, 1)
            assert same == pytest.approx(kern.closed((0,), (0,), tau), abs=1e-4)
            assert cross == pytest.approx(kern.closed((0,), (1,), tau), abs=1e-4)

    def test_two_site_partition_function(self, two_site):
        kern = CovarianceKernel(Lattice(1, (2,)), a=1.0, J=0.25, beta_hat=2.0)
        assert thermal_trace(two_site, 2.0) == pytest.approx(kern.log_partition(1),
                                                             abs=2e-4)

    def test_rejects_tau_outside_period(self, harmonic_site):
        with pytest.raises(ValueError):
            thermal_correlation(harmonic_site, 1.0, 1.5)


class TestGridConvergence:
    def test_single_site_stable(self, anharmonic_site):
        report = convergence_check(anharmonic_site, 2.0, taus=(0.5, 1.0))
        assert report["converged"], report

    def test_two_site_stable(self):
        ham = GridHamiltonian(n_sites=2, a=1.0, J=0.25, b_m=0.5, delta_m=1.0,
                              extent=8.0, n_grid=96, n_states=150)
        report = convergence_check(ham, 2.0, taus=(0.5, 1.0))
        assert report["converged"], report


class TestAssembly:
    # the sector solve and the dense one are different LAPACK calls, so
    # eigenvector signs and their summation order differ: compare energies and
    # gauge-invariant quantities, within round-off of the grid matrix
    @pytest.mark.parametrize("n_sites, b_m, n_grid", [
        (1, 0.5, 96), (2, 0.0, 96), (2, 0.5, 96),
        (1, 0.5, 97), (2, 0.5, 97),    # odd grid: the centre point joins the even block
        (1, 6.0, 96), (2, 6.0, 96),    # deep double well, V''(0) = -5: tunnelling doublets
        (1, 0.5, 512),                 # the default one-site grid
    ], ids=["1-0.5", "2-0.0", "2-0.5", "1-0.5-grid97", "2-0.5-grid97", "1-6.0", "2-6.0",
            "1-0.5-grid512"])
    def test_solve_equals_the_dense_kronecker_solve(self, n_sites, b_m, n_grid):
        ham = GridHamiltonian(n_sites=n_sites, a=1.0, J=0.25 * (n_sites - 1), b_m=b_m,
                              delta_m=1.0, extent=8.0, n_grid=n_grid, n_states=150)
        dense = replace(ham)
        dense.__dict__["_solution"] = dense_solution(ham)
        want = dense.energies
        assert np.all(np.abs(ham.energies - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        low = slice(0, 50)
        for a in range(n_sites):
            for b in range(n_sites):
                got = ham.displacement_matrix(a) * ham.displacement_matrix(b).T
                ref = dense.displacement_matrix(a) * dense.displacement_matrix(b).T
                np.testing.assert_allclose(got[low, low], ref[low, low], rtol=1e-12, atol=1e-12)
        assert thermal_trace(ham, 2.0) == pytest.approx(thermal_trace(dense, 2.0), abs=1e-12)
        for tau in (0.0, 0.25, 0.5, 1.0):
            for site in range(n_sites):
                assert thermal_correlation(ham, 2.0, tau, 0, site) == pytest.approx(
                    thermal_correlation(dense, 2.0, tau, 0, site), abs=1e-12)


class TestValidation:
    def test_site_count(self):
        with pytest.raises(ValueError):
            GridHamiltonian(n_sites=3, a=1.0, J=0.1, b_m=0.0, delta_m=1.0)

    def test_grid_sanity(self):
        with pytest.raises(ValueError):
            GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=0.0, delta_m=1.0,
                            n_grid=4)
        with pytest.raises(ValueError):  # 150 states need 25 one-site states
            GridHamiltonian(n_sites=2, a=1.0, J=0.25, b_m=0.0, delta_m=1.0,
                            n_grid=16)

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_odd_onsite_term_refused(self, monkeypatch, n_sites):
        # a field h x breaks the grid reflection the blocks are built on
        even = GridHamiltonian._onsite
        monkeypatch.setattr(GridHamiltonian, "_onsite", lambda self, x: even(self, x) + 0.1 * x)
        ham = GridHamiltonian(n_sites=n_sites, a=1.0, J=0.25 * (n_sites - 1), b_m=0.5,
                              delta_m=1.0, n_grid=96)
        with pytest.raises(ValueError, match="not even"):
            ham.energies
