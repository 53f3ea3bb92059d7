import math
import tracemalloc

import numpy as np
import pytest

from anhcrystal.covariance import (MAX_DECOMPOSITION_BLOCKS, CovarianceKernel,
                                   convex_decomposition, decomposition_matrix,
                                   p_matrix, temporal_factor)
from anhcrystal.lattice import Boundary, Lattice


def p_factor(block_i: int, block_j: int, s) -> float:
    """Reference for ``p_matrix``: 1 inside a block, the product of s between blocks."""
    if block_i == block_j:
        return 1.0
    lo, hi = sorted((block_i, block_j))
    return float(np.prod(np.asarray(s, dtype=float)[lo:hi]))


def spatial_profile(kern: CovarianceKernel, tau) -> np.ndarray:
    """G(0, j; tau) for every site displacement j at once (periodic, via FFT)."""
    return np.fft.ifftn(temporal_factor(kern.eps_grid, tau, kern.beta_hat)).real


def chain_kernel(n=8, a=1.0, J=0.25, beta_hat=2.0, boundary=Boundary.PERIODIC):
    return CovarianceKernel(Lattice(1, (n,), boundary), a, J, beta_hat)


class TestClosedForm:
    def test_single_site_zero_temperature(self):
        kern = CovarianceKernel(Lattice(1, (1,)), a=1.0, J=0.0, beta_hat=math.inf)
        assert kern.closed((0,), (0,), 0.0) == pytest.approx(0.5)

    def test_periodicity_in_tau(self):
        kern = chain_kernel()
        for tau in (0.3, 0.9, 1.7):
            assert kern.closed((2,), (0,), tau) == pytest.approx(
                kern.closed((2,), (0,), kern.beta_hat - tau), rel=1e-12)

    def test_even_and_symmetric(self):
        kern = chain_kernel()
        assert kern.closed((3,), (1,), 0.7) == pytest.approx(
            kern.closed((1,), (3,), -0.7), rel=1e-12)
        assert kern.closed((0,), (0,), 0.4) == pytest.approx(
            kern.closed((0,), (0,), -0.4), rel=1e-12)

    def test_fft_profile_matches_direct_sum(self):
        kern = chain_kernel()
        profile = spatial_profile(kern, 0.35)
        for j in range(8):
            assert profile[j] == pytest.approx(kern.closed((j,), (0,), 0.35),
                                               abs=1e-12)

    def test_independent_of_anharmonicity(self):
        # the kernel never sees b, delta, or m except through beta_hat
        import inspect

        sig = inspect.signature(CovarianceKernel.__init__)
        assert set(sig.parameters) == {"self", "lattice", "a", "J", "beta_hat"}

    def test_large_beta_matches_limit(self):
        lat = Lattice(1, (2,))
        finite = CovarianceKernel(lat, 1.0, 0.25, 80.0)
        limit = CovarianceKernel(lat, 1.0, 0.25, math.inf)
        assert finite.closed((0,), (0,), 1.0) == pytest.approx(
            limit.closed((0,), (0,), 1.0), rel=1e-12)


class TestMatsubara:
    def test_agrees_with_closed_form(self):
        kern = chain_kernel(beta_hat=0.5)
        for j in (0, 1):
            for tau in np.linspace(0.05, 0.25, 5):
                closed = kern.closed((j,), (0,), tau)
                mats = kern.matsubara((j,), (0,), tau, 20_000)
                assert mats == pytest.approx(closed, rel=2e-6)

    def test_truncation_error_scales_inversely(self):
        # at tau = 0 every series term is positive: the tail is ~ c / n_max
        kern = chain_kernel(beta_hat=2.0)
        closed = kern.closed((0,), (0,), 0.0)
        errors = [abs(kern.matsubara((0,), (0,), 0.0, n) - closed)
                  for n in (100, 1000, 10_000)]
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)

    def test_rejects_infinite_beta(self):
        kern = CovarianceKernel(Lattice(1, (2,)), 1.0, 0.25, math.inf)
        with pytest.raises(ValueError):
            kern.matsubara((0,), (0,), 0.0, 100)

    def test_single_site_no_coupling(self):
        kern = CovarianceKernel(Lattice(1, (1,)), a=1.0, J=0.0, beta_hat=2.0)
        closed = kern.closed((0,), (0,), 0.0)
        assert kern.matsubara((0,), (0,), 0.0, 200_000) == pytest.approx(
            closed, abs=1e-6)


class TestSumRule:
    @pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("J", [0.0, 0.25, 1.0])
    def test_integrated_covariance_is_inverse_a(self, a, J):
        kern = chain_kernel(a=a, J=J)
        assert kern.integrated_covariance() == pytest.approx(1.0 / a, abs=1e-12)

    def test_infinite_beta_limit(self):
        kern = chain_kernel(a=2.0, beta_hat=math.inf)
        assert kern.integrated_covariance() == pytest.approx(0.25, abs=1e-12)

    def test_spatial_decay_rate_positive(self):
        # the log of the time-integrated kernel is affine in distance with a
        # negative slope on a long chain; sqrt(a) is the idealized reference
        kern = chain_kernel(n=64, a=1.0, J=0.25)
        profile = kern.time_integral_profile()
        dists = np.arange(1, 9)
        logs = np.log(np.abs(profile[dists]))
        slope = np.polyfit(dists, logs, 1)[0]
        residual = logs - np.polyval(np.polyfit(dists, logs, 1), dists)
        assert slope < 0
        assert float(np.max(np.abs(residual))) < 1e-2
        rate = -slope
        reference = math.sqrt(kern.a)
        assert rate > 0 and reference > 0  # both recorded; equality not asserted


class TestPartitionFunction:
    def test_zero_temperature_limit(self):
        kern = chain_kernel(beta_hat=math.inf)
        assert kern.log_partition(3) == 0.0

    def test_single_site_value(self):
        kern = CovarianceKernel(Lattice(1, (1,)), a=1.0, J=0.0, beta_hat=1.0)
        assert kern.log_partition(1) == pytest.approx(-math.log(1 - math.exp(-1)),
                                                      rel=1e-12)
        assert kern.log_partition(1) == pytest.approx(0.45867514538708, rel=1e-10)

    def test_components_factorize(self):
        kern = chain_kernel()
        assert kern.log_partition(2) == pytest.approx(2 * kern.log_partition(1),
                                                      rel=1e-14)


class TestGridMatrices:
    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
    def test_matches_closed_form(self, boundary):
        kern = chain_kernel(n=4, boundary=boundary)
        m = 8
        points = [(i, s) for i in range(4) for s in range(m)]
        mat = kern.grid_matrix(points, m)
        dt = kern.beta_hat / m
        for idx in (0, 5, 17, 30):
            i, si = points[idx]
            for jdx in (0, 9, 22):
                j, sj = points[jdx]
                assert mat[idx, jdx] == pytest.approx(
                    kern.closed((i,), (j,), (si - sj) * dt), rel=1e-10)

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
    def test_positive_semidefinite(self, boundary):
        kern = chain_kernel(n=4, boundary=boundary)
        points = [(i, s) for i in range(4) for s in range(8)]
        mat = kern.grid_matrix(points, 8)
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() >= -1e-10 * np.trace(mat)

    def test_grid_eigenvalues_nonnegative(self):
        kern = chain_kernel(n=4)
        lam = kern.grid_eigenvalues(16)
        assert lam.min() >= 0.0
        assert lam.shape == (4, 16)

    def test_dirichlet_matrix_memory_is_output_sized(self):
        # the 32-site Dirichlet chain x 16 slices of the benchmark's shift check
        kern = chain_kernel(n=32, J=0.5, boundary=Boundary.DIRICHLET)
        points = [(i, s) for i in range(32) for s in range(16)]
        tracemalloc.start()
        try:
            mat = kern.grid_matrix(points, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * mat.nbytes


def lattice_operator(lat: Lattice, a: float, J: float) -> np.ndarray:
    """a I - J Laplacian of the box as a dense matrix, bond by bond.

    Every site has one bond per direction and step.  On a periodic side of 2
    both land on the same neighbour (a doubled bond); on a side of 1 they land
    on the site itself and cancel.  A clamped (Dirichlet) bond to the outside
    layer adds to the diagonal only.
    """
    op = a * np.eye(lat.n_sites)
    for site in lat.sites():
        i = lat.site_index(site)
        for mu in range(lat.nu):
            for step in (-1, 1):
                nb = list(site)
                nb[mu] += step
                op[i, i] += J
                if lat.boundary is Boundary.PERIODIC:
                    nb[mu] %= lat.dims[mu]
                elif not 0 <= nb[mu] < lat.dims[mu]:
                    continue
                op[i, lat.site_index(nb)] -= J
    return op


class TestLatticeOperatorReference:
    """G(tau) = V T(Lambda, tau) V^T from a dense eigendecomposition of the
    lattice operator, independent of the kernel's own mode tables."""

    DIMS = [(1,), (2,), (3,), (4,), (4, 2), (3, 2)]

    @staticmethod
    def reference(kern: CovarianceKernel, tau) -> np.ndarray:
        lam, vec = np.linalg.eigh(lattice_operator(kern.lattice, kern.a, kern.J))
        return (vec * temporal_factor(lam, tau, kern.beta_hat)) @ vec.T

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
    @pytest.mark.parametrize("dims", DIMS)
    def test_closed(self, dims, boundary):
        lat = Lattice(len(dims), dims, boundary)
        kern = CovarianceKernel(lat, a=0.7, J=0.3, beta_hat=2.0)
        for tau in (0.0, 0.4, 1.3):
            want = self.reference(kern, tau)
            got = np.array([[kern.closed(lat.site_coords(j), lat.site_coords(k), tau)
                             for k in range(lat.n_sites)] for j in range(lat.n_sites)])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
    @pytest.mark.parametrize("dims", DIMS)
    def test_grid_matrix(self, dims, boundary):
        lat = Lattice(len(dims), dims, boundary)
        kern = CovarianceKernel(lat, a=0.7, J=0.3, beta_hat=2.0)
        m = 5
        tables = [self.reference(kern, lag * kern.beta_hat / m) for lag in range(m)]
        points = [(i, s) for i in range(lat.n_sites) for s in (0, 1, 3, 4)]
        want = np.array([[tables[(si - sj) % m][i, j] for j, sj in points] for i, si in points])
        got = kern.grid_matrix(points, m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestPFunction:
    def test_same_block_is_one(self):
        assert p_factor(2, 2, (0.3, 0.7)) == 1.0

    def test_spanning_product(self):
        # blocks 1 and 3 (labels 0 and 2) bridge both parameters
        assert p_factor(0, 2, (0.3, 0.7)) == pytest.approx(0.21)
        assert p_factor(2, 0, (0.3, 0.7)) == pytest.approx(0.21)

    def test_all_ones(self):
        s = (1.0, 1.0, 1.0)
        for i in range(4):
            for j in range(4):
                assert p_factor(i, j, s) == 1.0

    def test_matrix_agrees_with_factor(self):
        labels = np.array([0, 0, 1, 2, 2, 3])
        s = (0.2, 0.5, 0.9)
        mat = p_matrix(labels, s)
        for i, bi in enumerate(labels):
            for j, bj in enumerate(labels):
                assert mat[i, j] == pytest.approx(p_factor(bi, bj, s))


def interpolated(s):
    """(base, labels, base * p_matrix(labels, s)) on a 2-site, 8-slice grid.

    Three blocks of four points each, then the complement block of the rest.
    """
    base = chain_kernel(n=2).grid_matrix([(i, sl) for i in range(2) for sl in range(8)], 8)
    labels = np.repeat(np.arange(4), 4)
    return base, labels, base * p_matrix(labels, s)


class TestInterpolatedCovariance:
    def test_all_ones_reproduces_base(self):
        base, _, mat = interpolated((1.0, 1.0, 1.0))
        assert np.allclose(mat, base)

    def test_zero_cut_decouples_complement(self):
        _, labels, mat = interpolated((0.7, 0.4, 0.0))
        inside = np.flatnonzero(labels <= 2)
        outside = np.flatnonzero(labels == 3)
        assert np.allclose(mat[np.ix_(inside, outside)], 0.0)

    def test_positive_semidefinite_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            _, _, mat = interpolated(rng.uniform(0, 1, size=3))
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() >= -1e-10 * np.trace(mat)


class TestConvexDecomposition:
    def test_single_parameter_split(self):
        terms = dict((runs, w) for w, runs in convex_decomposition((0.3,)))
        assert len(terms) == 2
        # s-branch keeps one run, (1-s)-branch cuts the two blocks apart
        assert terms[((0, 1),)] == pytest.approx(0.3)
        assert terms[((0,), (1,))] == pytest.approx(0.7)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            total = sum(w for w, _ in convex_decomposition(rng.uniform(0, 1, size=3)))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_is_fully_cut(self):
        terms = [(w, runs) for w, runs in convex_decomposition((0.0, 0.0, 0.0)) if w > 0]
        assert len(terms) == 1
        weight, runs = terms[0]
        assert weight == 1.0
        assert runs == ((0,), (1,), (2,), (3,))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = rng.uniform(0, 1, size=3)
            base, labels, mat = interpolated(s)
            rec = decomposition_matrix(base, labels, convex_decomposition(s))
            assert np.max(np.abs(rec - mat)) < 1e-12

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            convex_decomposition((0.5,) * (MAX_DECOMPOSITION_BLOCKS + 1))


class TestTemporalFactor:
    def test_overflow_safe(self):
        val = temporal_factor(4.0, 1.0, 5000.0)
        assert np.isfinite(val) and val > 0

    def test_infinite_beta(self):
        assert temporal_factor(4.0, 1.0, math.inf) == pytest.approx(
            math.exp(-2.0) / 4.0)
