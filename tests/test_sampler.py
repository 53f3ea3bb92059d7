import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.fft

from anhcrystal import sampler as sampler_module
from anhcrystal.covariance import CovarianceKernel
from anhcrystal.lattice import Boundary, Lattice
from anhcrystal.params import ModelParams, rescale
from anhcrystal.sampler import (N_BATCHES, Ensemble, EstimatorResult,
                                GaussianFieldSampler, accumulate, boundary_mean_shift,
                                doubled_measure_correlation, expectation, gap_estimate,
                                jackknife, map_rows, pcn_expectation, periodic_bc,
                                plain_stream, reweight_expectation, scrambled_normals,
                                sobol_led, tempered_bc, two_point_table, zero_bc)


def compatible(a: EstimatorResult, b: EstimatorResult, n_sigma: float) -> bool:
    """Whether two estimates lie within n_sigma combined standard errors."""
    return abs(a.mean - b.mean) <= n_sigma * math.hypot(a.stderr, b.stderr)


def truncated_two_point(ensemble: Ensemble, p1, p2, n_samples: int,
                        seed: int) -> EstimatorResult:
    """Connected two-point function on reweight_expectation's draws, with
    jackknife error over the scrambles, and Kong's ESS."""
    obs_a = ensemble.phi_product([p1])
    obs_b = ensemble.phi_product([p2])

    def columns(psi):
        phi = psi + ensemble.mean_shift
        w = ensemble.weight(phi)
        av, bv = obs_a(phi), obs_b(phi)
        return w.sum(), (w * av).sum(), (w * bv).sum(), (w * av * bv).sum(), (w ** 2).sum()

    sums = accumulate(sobol_led(ensemble.sampler, n_samples, seed), columns, n_samples)
    mean, stderr = jackknife(sums, lambda c: c[3] / c[0] - (c[1] / c[0]) * (c[2] / c[0]))
    total = sums.sum(axis=0)
    return EstimatorResult(mean=float(mean), stderr=float(stderr), n_samples=n_samples,
                           seed=seed, ess=float(total[0] ** 2 / total[-1]))


# -- single-draw helpers, used only by these tests ------------------------------


@dataclass(frozen=True)
class FieldConfiguration:
    """One trajectory field: values[site..., slice, component]."""

    values: np.ndarray
    beta_hat: float


def sample_gaussian_field(kernel: CovarianceKernel, n_slices: int, seed: int,
                          d: int = 1) -> FieldConfiguration:
    """One exact draw from the reference Gaussian on the grid."""
    sampler = GaussianFieldSampler(kernel, n_slices, d)
    rng = np.random.default_rng(seed)
    return FieldConfiguration(values=sampler.sample(rng, 1)[0], beta_hat=kernel.beta_hat)


def action_integral(phi: FieldConfiguration, ensemble: Ensemble) -> float:
    """Grid action of a single field configuration under the ensemble."""
    return float(ensemble.action(phi.values[None, ...])[0])


def merge_results(results) -> EstimatorResult:
    """Merge independently seeded streams by sample-count weighting.

    Associative and order independent: the merged mean and variance depend
    only on the multiset of inputs.
    """
    results = sorted(results, key=lambda r: (r.seed, r.n_samples))
    n = sum(r.n_samples for r in results)
    mean = sum(r.n_samples * r.mean for r in results) / n
    var = sum((r.n_samples * r.stderr) ** 2 for r in results) / n ** 2
    ess = sum(r.ess for r in results)
    return EstimatorResult(mean=mean, stderr=math.sqrt(var), n_samples=n,
                           seed=results[0].seed, ess=ess)


def tempered_weighted_sum(xi: dict, rho: float, beta_hat: float) -> float:
    """Finite check of the tempered-configuration norm sum_l e^{-rho|l|} ||xi_l||.

    The trajectory norm is the L2 norm over one time period.
    """
    if rho <= 0:
        raise ValueError("temperedness weight rho must be positive")
    total = 0.0
    for coords, traj in xi.items():
        traj = np.asarray(traj, dtype=float)
        norm = math.sqrt(beta_hat / traj.shape[0] * float(np.sum(traj ** 2)))
        total += math.exp(-rho * float(np.sum(np.abs(coords)))) * norm
    if not math.isfinite(total):
        raise ValueError("tempered norm sum is not finite")
    return total


def single_site_ensemble(b_m=0.5, delta_m=1.0, beta_hat=2.0, n_slices=32, **kw):
    lat = Lattice(1, (1,))
    return Ensemble(lattice=lat, a=1.0, J=0.0, beta_hat=beta_hat,
                    n_slices=n_slices, b_m=b_m, delta_m=delta_m, d=1,
                    bc=periodic_bc(), **kw)


def chain_ensemble(n=4, b_m=0.0, beta_hat=2.0, n_slices=16, a=1.0, J=0.25, **kw):
    lat = Lattice(1, (n,))
    return Ensemble(lattice=lat, a=a, J=J, beta_hat=beta_hat, n_slices=n_slices,
                    b_m=b_m, delta_m=1.0, d=1, bc=periodic_bc(), **kw)


class TestGaussianSampler:
    def test_deterministic_given_seed(self):
        kern = CovarianceKernel(Lattice(1, (4,)), 1.0, 0.25, 2.0)
        one = sample_gaussian_field(kern, 16, seed=7)
        two = sample_gaussian_field(kern, 16, seed=7)
        assert np.array_equal(one.values, two.values)

    def test_mean_zero_and_variance(self):
        ens = chain_ensemble()
        rng = np.random.default_rng(1)
        phi = ens.sampler.sample(rng, 60_000)
        flat = phi.reshape(60_000, -1)
        g0 = ens.kernel.closed((0,), (0,), 0.0)
        mean_err = np.abs(flat.mean(axis=0)).max()
        assert mean_err < 4.0 * math.sqrt(g0 / 60_000)
        var = flat.var(axis=0)
        assert np.abs(var - g0).max() < 5.0 * g0 * math.sqrt(2.0 / 60_000)

    @pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.DIRICHLET])
    def test_exactness_small_box(self, boundary):
        lat = Lattice(1, (2,), boundary)
        kern = CovarianceKernel(lat, 1.0, 0.25, 1.0)
        sampler = GaussianFieldSampler(kern, 8, d=1)
        rng = np.random.default_rng(3)
        n = 30_000
        flat = sampler.sample(rng, n).reshape(n, -1)
        emp = flat.T @ flat / n
        theo = kern.grid_matrix([(i, s) for i in range(2) for s in range(8)], 8)
        se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / n)
        assert float((np.abs(emp - theo) / se).max()) < 5.0

    def test_components_independent(self):
        kern = CovarianceKernel(Lattice(1, (2,)), 1.0, 0.25, 1.0)
        sampler = GaussianFieldSampler(kern, 8, d=2)
        rng = np.random.default_rng(5)
        phi = sampler.sample(rng, 40_000)
        cross = np.mean(phi[..., 0] * phi[..., 1])
        assert abs(cross) < 4.0 * 0.5 / math.sqrt(40_000)


NOISE_BOXES = pytest.mark.parametrize("nu, dims, boundary, n_slices, d", [
    (1, (4,), Boundary.PERIODIC, 8, 1),
    (1, (5,), Boundary.PERIODIC, 9, 1),
    (2, (3, 4), Boundary.PERIODIC, 6, 1),
    (1, (3,), Boundary.PERIODIC, 4, 2),
    (1, (4,), Boundary.DIRICHLET, 7, 1),
    (1, (5,), Boundary.DIRICHLET, 8, 2),
], ids=["even", "odd", "plane", "two-component", "dirichlet", "dirichlet-two-component"])


class ZeroNormals:
    """A generator stand-in whose normals are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestFourierNoise:
    # criterion 3's exactness check, for plain and Sobol-led draws of the
    # half-spectrum noise, on boxes with every kind of edge plane
    @staticmethod
    def make(nu, dims, boundary, n_slices, d):
        kern = CovarianceKernel(Lattice(nu, dims, boundary), 1.0, 0.25, 2.0)
        sampler = GaussianFieldSampler(kern, n_slices, d)
        points = [(i, t) for i in range(kern.lattice.n_sites) for t in range(n_slices)]
        return sampler, kern.grid_matrix(points, n_slices)

    @NOISE_BOXES
    @pytest.mark.parametrize("led", [False, True], ids=["plain", "sobol-led"])
    def test_covariance_equals_grid_matrix(self, nu, dims, boundary, n_slices, d, led):
        sampler, theo = self.make(nu, dims, boundary, n_slices, d)
        n = 20_000
        lead = scrambled_normals(n, sampler.n_lead, seed=4).rows(0, n) if led else None
        phi = sampler.sample(np.random.default_rng(3), n, lead=lead).reshape(n, -1, d)
        se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / n)
        for c in range(d):
            emp = phi[..., c].T @ phi[..., c] / n
            assert float((np.abs(emp - theo) / se).max()) < 5.0, c
        if d == 2:
            cross = phi[..., 0].T @ phi[..., 1] / n
            se_cross = np.sqrt(np.outer(np.diag(theo), np.diag(theo)) / n)
            assert float((np.abs(cross) / se_cross).max()) < 5.0

    @NOISE_BOXES
    def test_noise_is_a_half_spectrum(self, nu, dims, boundary, n_slices, d):
        # the edge planes are filled Hermitian, so the noise is the half
        # spectrum of its own inverse transform
        sampler, _ = self.make(nu, dims, boundary, n_slices, d)
        zh = sampler.noise(np.random.default_rng(8), 5)
        axes = tuple(range(1, zh.ndim - 1)) if boundary is Boundary.PERIODIC else (zh.ndim - 2,)
        back = scipy.fft.rfftn(sampler.field(zh.copy()), axes=axes)
        np.testing.assert_allclose(back, zh, rtol=0, atol=1e-12 * np.abs(zh).max())

    @NOISE_BOXES
    def test_leading_coordinates_are_the_largest_modes(self, nu, dims, boundary, n_slices, d):
        # a unit leading coordinate, and zero elsewhere, draws the field
        # sqrt(lambda_j) e_j: orthogonal fields whose squared norms are the
        # largest eigenvalues of the grid matrix, in decreasing order
        sampler, theo = self.make(nu, dims, boundary, n_slices, d)
        assert sampler.n_lead == sampler_module.RQMC_MODES
        phi = sampler.sample(ZeroNormals(), sampler.n_lead, lead=np.eye(sampler.n_lead))
        flat = phi.reshape(sampler.n_lead, -1)
        gram = flat @ flat.T
        largest = np.repeat(np.linalg.eigvalsh(theo)[::-1], d)[:sampler.n_lead]
        np.testing.assert_allclose(np.diag(gram), largest, rtol=1e-12)
        np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-12 * largest[0])


class TestRealTransforms:
    # the half-spectrum filters against the complex transforms they replace
    @pytest.mark.parametrize("nu, dims, boundary, n_slices, d", [
        (1, (6,), Boundary.PERIODIC, 8, 1),
        (2, (4, 6), Boundary.PERIODIC, 8, 1),
        (1, (5,), Boundary.PERIODIC, 8, 2),
        (1, (4,), Boundary.PERIODIC, 9, 1),
        (1, (5,), Boundary.DIRICHLET, 7, 1),
    ])
    def test_sample_and_covariance_equal_complex_filter(self, nu, dims, boundary,
                                                         n_slices, d):
        kern = CovarianceKernel(Lattice(nu, dims, boundary), 1.0, 0.25, 2.0)
        sampler = GaussianFieldSampler(kern, n_slices, d)
        phi = sampler.sample(np.random.default_rng(11), 7)
        # the real white fields whose half-spectra the draws filter
        z = sampler.field(sampler.noise(np.random.default_rng(11), 7))
        lam = kern.grid_eigenvalues(n_slices)[..., None]
        space = tuple(range(1, nu + 1))

        def complex_filter(x, factor):
            if boundary is Boundary.PERIODIC:
                axes = space + (nu + 1,)
                return np.fft.ifftn(factor * np.fft.fftn(x, axes=axes), axes=axes).real
            return np.fft.ifft(factor * np.fft.fft(x, axis=nu + 1), axis=nu + 1).real

        def sine(x):
            return scipy.fft.dstn(x, type=1, norm="ortho", axes=space)

        ref = complex_filter(z, np.sqrt(lam))
        cov = complex_filter(z[:1], lam)
        if boundary is not Boundary.PERIODIC:
            ref, cov = sine(ref), sine(complex_filter(sine(z[:1]), lam))
        np.testing.assert_allclose(phi, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(sampler.apply_covariance(z[0]), cov[0], rtol=0,
                                   atol=1e-12 * np.abs(cov).max())


    @pytest.mark.parametrize("nu, dims, n_slices, h_hat", [
        (1, (5,), 9, ()),
        (2, (4, 6), 8, (0.2,)),
    ])
    def test_spectral_draws_are_the_half_spectra_of_the_draws(self, nu, dims, n_slices,
                                                              h_hat):
        ens = Ensemble(lattice=Lattice(nu, dims), a=1.0, J=0.25, beta_hat=2.0,
                       n_slices=n_slices, b_m=0.4, delta_m=1.0, d=1, h_hat=h_hat)
        phi = ens.draw(np.random.default_rng(6), 5)
        phi_hat = ens.draw(np.random.default_rng(6), 5, spectral=True)
        assert phi_hat.shape == (5,) + dims + (n_slices // 2 + 1, 1)
        back = ens.sampler.field(phi_hat)
        if h_hat:  # the mean shift is added before, not after, the inverse transform
            np.testing.assert_allclose(back, phi, rtol=0, atol=1e-12 * np.abs(phi).max())
        else:
            assert np.array_equal(back, phi)

    def test_spectral_draws_need_a_periodic_box(self):
        kern = CovarianceKernel(Lattice(1, (5,), Boundary.DIRICHLET), 1.0, 0.25, 2.0)
        with pytest.raises(ValueError):
            GaussianFieldSampler(kern, 8).sample(np.random.default_rng(0), 2, spectral=True)


class TestAction:
    @pytest.mark.parametrize("d", [1, 3])
    def test_density_weight_and_action_equal_the_plain_expressions(self, d):
        ens = Ensemble(lattice=Lattice(1, (4,)), a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.4, delta_m=1.3, d=d, h_hat=(0.1,) * d)
        phi = np.random.default_rng(3).standard_normal((20,) + ens.sampler.shape)
        before = phi.copy()
        dens = ens.b_m * np.exp(-0.5 * ens.delta_m * np.sum(phi ** 2, axis=-1))
        total = dens.sum(axis=tuple(range(1, dens.ndim)))
        linear = np.sum(phi * ens.linear_term, axis=tuple(range(1, phi.ndim)))
        assert np.array_equal(ens.potential_density(phi), dens)
        assert np.array_equal(ens.weight(phi), np.exp(-ens.grid.delta_tau * total))
        assert np.array_equal(ens.action(phi), ens.grid.delta_tau * total + linear)
        assert np.array_equal(phi, before)

    def test_free_field_zero(self):
        ens = chain_ensemble(b_m=0.0)
        rng = np.random.default_rng(0)
        phi = ens.sampler.sample(rng, 10)
        assert np.allclose(ens.action(phi), 0.0)

    def test_constant_single_site(self):
        # constant trajectory x0: action = beta_hat * b_m * exp(-d x0^2 / 2)
        ens = single_site_ensemble(b_m=1.0, delta_m=1.0, beta_hat=2.0)
        for x0 in (0.0, 0.7, -1.2):
            phi = np.full((1,) + ens.sampler.shape, x0)
            expected = 2.0 * math.exp(-0.5 * x0 ** 2)
            assert ens.action(phi)[0] == pytest.approx(expected, rel=1e-12)

    def test_action_scales_with_beta(self):
        base = single_site_ensemble(b_m=1.0, beta_hat=2.0, n_slices=16)
        double = single_site_ensemble(b_m=1.0, beta_hat=4.0, n_slices=32)
        x0 = 0.9
        phi_b = np.full((1,) + base.sampler.shape, x0)
        phi_d = np.full((1,) + double.sampler.shape, x0)
        assert double.action(phi_d)[0] == pytest.approx(2 * base.action(phi_b)[0],
                                                        rel=1e-12)

    def test_field_term_sign(self):
        ens = single_site_ensemble(b_m=0.0, h_hat=(0.3,))
        phi = np.ones((1,) + ens.sampler.shape)
        # weight e^-S must shrink for positive fields under positive h
        assert ens.action(phi)[0] == pytest.approx(0.3 * 2.0, rel=1e-12)

    def test_boundary_term_sign(self):
        lat = Lattice(1, (2,), Boundary.DIRICHLET)
        n_slices = 8
        xi = {(-1,): np.ones((n_slices, 1)), (2,): np.ones((n_slices, 1))}
        ens = Ensemble(lattice=lat, a=1.0, J=0.5, beta_hat=1.0, n_slices=n_slices,
                       b_m=0.0, delta_m=1.0, d=1, bc=tempered_bc(xi))
        phi = np.ones((1,) + ens.sampler.shape)
        # S = -(J/2) dt sum over the two boundary pairs of phi * xi = -J/2 * 2
        assert ens.action(phi)[0] == pytest.approx(-0.5 * 0.5 * 1.0 * 2, rel=1e-12)

    def test_action_integral_wrapper(self):
        ens = single_site_ensemble(b_m=1.0)
        cfg = sample_gaussian_field(ens.kernel, ens.n_slices, seed=2)
        assert action_integral(cfg, ens) == pytest.approx(
            float(ens.action(cfg.values[None])[0]))


class TestExpectation:
    def test_free_two_point_matches_kernel(self):
        ens = chain_ensemble(b_m=0.0)
        obs = ens.phi_product([((0,), 0.0, 0), ((1,), 0.5, 0)])
        res = reweight_expectation(ens, obs, 100_000, seed=21)
        exact = ens.kernel.closed((0,), (1,), 0.5)
        assert abs(res.mean - exact) < 4.0 * res.stderr

    def test_phi_product_reads_its_sites_and_slices(self):
        ens = Ensemble(lattice=Lattice(1, (4,)), a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.0, delta_m=1.0, d=2)
        phi = np.random.default_rng(1).standard_normal((3,) + ens.sampler.shape)
        obs = ens.phi_product([(1, 0.5, 1), ((3,), 1.75, 0)])
        assert np.array_equal(obs(phi), phi[:, 1, 2, 1] * phi[:, 3, 7, 0])

    @pytest.mark.parametrize("factor, message", [
        ((4, 0.0, 0), "site 4 is outside the 4-site box"),
        ((-1, 0.0, 0), "site -1 is outside the 4-site box"),
        (((0,), 0.0, 1), "component 1 is not one of the field's 1"),
    ])
    def test_phi_product_off_the_box_rejected(self, factor, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            chain_ensemble(n=4).phi_product([factor])

    def test_odd_moment_vanishes(self):
        ens = single_site_ensemble(b_m=0.8)
        obs = ens.phi_product([((0,), 0.5, 0)])
        res = reweight_expectation(ens, obs, 50_000, seed=4)
        assert abs(res.mean) < 4.0 * res.stderr

    def test_backends_agree(self):
        ens = single_site_ensemble(b_m=0.5, n_slices=16)
        rng = np.random.default_rng(17)
        for trial in range(10):
            taus = rng.choice(np.arange(0, 16) / 8.0, size=2, replace=True)
            obs = ens.phi_product([((0,), float(taus[0]), 0),
                                   ((0,), float(taus[1]), 0)])
            a = reweight_expectation(ens, obs, 40_000, seed=100 + trial)
            b = pcn_expectation(ens, obs, 20_000, seed=200 + trial)
            assert compatible(a, b, n_sigma=4.0), (trial, a, b)

    def test_translation_invariance(self):
        ens = chain_ensemble(b_m=0.3, n=4)
        vals = []
        for j in range(4):
            obs = ens.phi_product([((j,), 0.5, 0), ((j,), 0.5, 0)])
            vals.append(reweight_expectation(ens, obs, 60_000, seed=9 + j))
        for r in vals[1:]:
            assert compatible(vals[0], r, n_sigma=4.0)

    def test_ess_warning(self):
        ens = single_site_ensemble(b_m=0.5)
        obs = ens.phi_product([((0,), 0.0, 0)])
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            reweight_expectation(ens, obs, 100, seed=1)

    def test_unknown_backend(self):
        ens = single_site_ensemble()
        with pytest.raises(ValueError):
            expectation(ens, ens.phi_product([((0,), 0.0, 0)]), 100, 1,
                        backend="nope")


class TestMergeResults:
    def test_associative_and_order_free(self):
        rs = [EstimatorResult(mean=m, stderr=s, n_samples=n, seed=i, ess=n / 2)
              for i, (m, s, n) in enumerate([(1.0, 0.1, 100), (1.2, 0.2, 300),
                                             (0.8, 0.05, 50)])]
        merged_ab_c = merge_results([merge_results(rs[:2]), rs[2]])
        merged_a_bc = merge_results([rs[0], merge_results(rs[1:])])
        flat = merge_results(rs[::-1])
        for other in (merged_a_bc, flat):
            assert merged_ab_c.mean == pytest.approx(other.mean, rel=1e-14)
            assert merged_ab_c.stderr == pytest.approx(other.stderr, rel=1e-14)
            assert merged_ab_c.n_samples == other.n_samples


class TestTwoPoint:
    def test_free_case_matches_kernel(self):
        ens = chain_ensemble(b_m=0.0)
        res = truncated_two_point(ens, ((0,), 0.0, 0), ((2,), 0.5, 0),
                                  50_000, seed=31)
        exact = ens.kernel.closed((0,), (2,), 0.5)
        assert abs(res.mean - exact) < 4.0 * res.stderr

    def test_variance_positive(self):
        ens = chain_ensemble(b_m=0.4)
        res = truncated_two_point(ens, ((1,), 0.5, 0), ((1,), 0.5, 0),
                                  30_000, seed=13)
        assert res.mean > 0

    def test_translation_averaged_table(self):
        ens = chain_ensemble(b_m=0.0, n=8)
        k, err = two_point_table(ens, time_lag=0, n_samples=60_000, seed=5)
        for dj in range(4):
            exact = ens.kernel.closed((dj,), (0,), 0.0)
            assert abs(k[dj] - exact) < 4.0 * err[dj]

    def test_lag_sequence_matches_scalar_calls(self):
        ens = chain_ensemble(b_m=0.4)
        lags = [0, 3, 8]
        k, err = two_point_table(ens, time_lag=lags, n_samples=5_000, seed=9)
        assert k.shape == err.shape == (4, len(lags))
        for i, lag in enumerate(lags):
            k1, err1 = two_point_table(ens, time_lag=lag, n_samples=5_000, seed=9)
            assert k1.shape == (4,)
            np.testing.assert_allclose(k[:, i], k1, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(err[:, i], err1, rtol=1e-12, atol=1e-15)

    @staticmethod
    def assert_table_equals_complex_autocorrelation(ens):
        lags = [0, 2, 5]
        axes = tuple(range(1, ens.lattice.nu + 2))

        def columns(phi):  # two_point_table's columns through complex transforms
            w = ens.weight(phi)
            phi = phi[..., 0]
            f = np.fft.fftn(phi, axes=axes)
            corr = np.fft.ifftn(f * np.conj(f), axes=axes).real / phi[0].size
            return np.broadcast_arrays(w.sum(), np.tensordot(w, corr[..., lags], axes=(0, 0)),
                                       (w * phi.mean(axis=axes)).sum())

        sums = accumulate(plain_stream(ens.draw, math.prod(ens.sampler.shape), 4), columns,
                          2_000)
        k_ref, e_ref = jackknife(sums, lambda c: c[1] / c[0] - (c[2] / c[0]) ** 2)
        k, e = two_point_table(ens, lags, 2_000, seed=4)
        np.testing.assert_allclose(k, k_ref, rtol=0, atol=1e-12 * np.abs(k_ref).max())
        np.testing.assert_allclose(e, e_ref, rtol=0, atol=1e-12 * np.abs(e_ref).max())

    def test_table_equals_complex_autocorrelation(self):
        # an odd slice count, and a mean shift
        self.assert_table_equals_complex_autocorrelation(
            chain_ensemble(n=6, b_m=0.4, n_slices=9, h_hat=(0.3,)))

    def test_table_equals_complex_autocorrelation_in_a_plane(self):
        self.assert_table_equals_complex_autocorrelation(
            Ensemble(lattice=Lattice(2, (4, 6)), a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                     b_m=0.4, delta_m=1.0, d=1, h_hat=(0.2,)))

    def test_table_draws_every_field_through_sample(self, monkeypatch):
        # GaussianFieldSampler.sample is the one entry point of every draw,
        # where a traced run counts the fields
        drawn = []
        sample = GaussianFieldSampler.sample

        def spy(self, rng, n, **kwargs):
            out = sample(self, rng, n, **kwargs)
            drawn.append(out.shape[0])
            return out

        monkeypatch.setattr(GaussianFieldSampler, "sample", spy)
        two_point_table(chain_ensemble(b_m=0.4, h_hat=(0.2,)), [0, 3], 3_000, seed=2)
        assert sum(drawn) == 3_000, drawn

    def test_table_memory_does_not_grow_with_draws(self):
        # criterion 9's box: chunks of at most CHUNK_VALUES field values hold
        # a 50,000-draw table to the peak of a 12,000-draw one; chunks of one
        # whole batch peaked at 29.5 MB against 7.1 MB in the same calls
        ens = Ensemble(lattice=Lattice(1, (32,)), a=1.0, J=0.5, beta_hat=2.0, n_slices=32,
                       b_m=0.1, delta_m=1.0, d=1, bc=periodic_bc())
        two_point_table(ens, 0, 1_000, seed=1)  # fills the caches first
        peaks = []
        for n in (12_000, 50_000):
            tracemalloc.start()
            try:
                two_point_table(ens, 0, n, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks


class TestTempered:
    def test_weighted_sum_and_validation(self):
        xi = {(-1,): np.ones((8, 1)), (8,): 2 * np.ones((8, 1))}
        total = tempered_weighted_sum(xi, rho=0.5, beta_hat=2.0)
        expected = (math.exp(-0.5) * math.sqrt(2.0) +
                    math.exp(-0.5 * 8) * 2 * math.sqrt(2.0))
        assert total == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            tempered_weighted_sum(xi, rho=0.0, beta_hat=2.0)

    def test_trajectory_off_the_outside_layer_rejected(self):
        # the chain's outside layer is its two ends, (-1,) and (4,)
        lat = Lattice(1, (4,), Boundary.DIRICHLET)
        xi = {(-1,): np.ones((8, 1)), (3,): np.ones((8, 1))}
        with pytest.raises(ValueError, match=r"\[\(3,\)\], off the box's outside layer"):
            Ensemble(lattice=lat, a=1.0, J=0.5, beta_hat=2.0, n_slices=8, b_m=0.1,
                     delta_m=1.0, d=1, bc=tempered_bc(xi))

    def test_mean_shift_matches_dense_algebra(self):
        lat = Lattice(1, (4,), Boundary.DIRICHLET)
        n_slices = 8
        xi = {(-1,): np.ones((n_slices, 1)), (4,): np.zeros((n_slices, 1))}
        ens = Ensemble(lattice=lat, a=1.0, J=0.5, beta_hat=2.0,
                       n_slices=n_slices, b_m=0.1, delta_m=1.0, d=1,
                       bc=tempered_bc(xi))
        shift = boundary_mean_shift(ens).reshape(-1)
        points = [(i, s) for i in range(4) for s in range(n_slices)]
        cmat = ens.kernel.grid_matrix(points, n_slices)
        tilt = -ens.linear_term.reshape(-1)
        assert np.allclose(shift, cmat @ tilt, atol=1e-12)

    def test_equal_boundaries_give_zero_gap(self):
        lat = Lattice(1, (4,), Boundary.DIRICHLET)
        xi = {(-1,): np.ones((8, 1)), (4,): np.ones((8, 1))}
        common = dict(lattice=lat, a=1.0, J=0.5, beta_hat=2.0, n_slices=8,
                      b_m=0.2, delta_m=1.0, d=1)
        ens = Ensemble(**common, bc=tempered_bc(xi))
        gap, err, harmonic = gap_estimate(ens, ens, (2,), 0.0, 5000, seed=3)
        assert gap == 0.0 and harmonic == 0.0

    def test_opposite_boundaries_double_the_response(self):
        lat = Lattice(1, (4,), Boundary.DIRICHLET)
        n_slices = 8
        common = dict(lattice=lat, a=1.0, J=0.5, beta_hat=2.0,
                      n_slices=n_slices, b_m=0.0, delta_m=1.0, d=1)

        def ens_with(value):
            xi = {(-1,): value * np.ones((n_slices, 1)),
                  (4,): value * np.ones((n_slices, 1))}
            return Ensemble(**common, bc=tempered_bc(xi))

        plus, minus, zero = ens_with(1.0), ens_with(-1.0), ens_with(0.0)
        gap_pm, _, harm_pm = gap_estimate(plus, minus, (2,), 0.5, 5000, seed=5)
        gap_p0, _, harm_p0 = gap_estimate(plus, zero, (2,), 0.5, 5000, seed=5)
        assert harm_pm == pytest.approx(2.0 * harm_p0, rel=1e-12)
        # free field: the whole gap is the harmonic part
        assert gap_pm == pytest.approx(harm_pm, abs=1e-9)


class TestDoubledMeasure:
    def make(self, b_m=0.4, delta_m=1.0):
        lat = Lattice(1, (2,), Boundary.DIRICHLET)
        return Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                        b_m=b_m, delta_m=delta_m, d=1, bc=zero_bc())

    def test_partner_sign_invariance_exact(self):
        ens = self.make()
        y = 0.7 * np.ones(ens.sampler.shape)
        p1, p2 = ((0,), 0.0, 0), ((1,), 0.5, 0)
        plus = doubled_measure_correlation(ens, p1, p2, y, 20_000, seed=8)
        minus = doubled_measure_correlation(ens, p1, p2, -y, 20_000, seed=8)
        assert plus.mean == minus.mean

    def test_zero_partner_reduces_to_modified_potential(self):
        # at y = 0 the doubled weight is a one-site potential with doubled
        # amplitude and halved width
        ens = self.make(b_m=0.4, delta_m=1.0)
        y = np.zeros(ens.sampler.shape)
        p1, p2 = ((0,), 0.0, 0), ((1,), 0.5, 0)
        res = doubled_measure_correlation(ens, p1, p2, y, 80_000, seed=10)
        equiv = self.make(b_m=0.8, delta_m=0.5)
        direct = reweight_expectation(equiv, equiv.phi_product([p1, p2]),
                                      80_000, seed=11)
        assert compatible(res, direct, n_sigma=2.0)

    def test_no_blowup_with_large_partner(self):
        ens = self.make()
        p1, p2 = ((0,), 0.0, 0), ((1,), 0.5, 0)
        vals = []
        for scale in (0.0, 1.0, 5.0):
            y = scale * np.ones(ens.sampler.shape)
            vals.append(doubled_measure_correlation(ens, p1, p2, y, 20_000,
                                                    seed=12))
        magnitudes = [abs(v.mean) for v in vals]
        assert max(magnitudes) < 3.0 * ens.kernel.closed((0,), (1,), 0.5) + 0.5
        for v in vals:
            assert v.ess > 1000



class TestImportanceCore:
    def strong_field(self, h):
        return chain_ensemble(n=4, b_m=0.0, n_slices=16, h_hat=(h,))

    def dense_mean(self, ens, h):
        # with b_m = 0 the measure is the reference Gaussian tilted by
        # exp(-l . phi): its mean is -C l, here -h dt (row sums of C)
        points = [(i, s) for i in range(4) for s in range(16)]
        rows = ens.kernel.grid_matrix(points, 16).sum(axis=1)
        return float(np.mean(-h * ens.grid.delta_tau * rows))

    def test_strong_field_mean_is_the_exact_gaussian_shift(self):
        ens = self.strong_field(30.0)
        exact = self.dense_mean(ens, 30.0)
        assert exact == pytest.approx(-30.04, abs=0.005)
        res = reweight_expectation(ens, ens.mean_displacement(), 5000, seed=1)
        assert abs(res.mean - exact) <= 4.0 * res.stderr, (res, exact)
        assert res.ess == pytest.approx(5000, rel=1e-12)

    def test_log_weights_cannot_overflow(self):
        ens = self.strong_field(300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = reweight_expectation(ens, ens.mean_displacement(), 5000, seed=1)
        assert math.isfinite(res.mean) and math.isfinite(res.stderr)

    @staticmethod
    def light_mass(h):
        """Criterion 11's box at field h."""
        params = ModelParams(m=0.01, a=1.0, b=0.5, delta=1.0, J=0.25, beta=0.2,
                             dims=(16,))
        r = rescale(params)
        return Ensemble(lattice=Lattice(1, (16,)), a=params.a, J=params.J,
                        beta_hat=r.beta_hat, n_slices=32, b_m=r.b_m,
                        delta_m=r.delta_m, d=1, h_hat=(r.alpha * h,),
                        bc=periodic_bc())

    def test_ess_near_n_at_light_mass_field(self):
        # criterion 11's box at h = 0.1: the shifted draws leave only the
        # bounded anharmonic weight, so almost every draw counts
        ens = self.light_mass(0.1)
        res = reweight_expectation(ens, ens.mean_displacement(), 10_000, seed=5)
        assert res.ess >= 0.9 * 10_000, res

    def test_sobol_led_memory_does_not_grow_with_draws(self):
        # chunks of at most CHUNK_VALUES field values hold a 200,000-draw call
        # on criterion 11's box to the peak of a 2,000-draw one; the plain
        # 50-batch draws it replaced peaked at 66.6 MB in the same call
        ens = self.light_mass(0.1)
        obs = ens.mean_displacement()
        reweight_expectation(ens, obs, 2_000, seed=1)  # loads scipy's Sobol table once
        peaks = []
        for n in (2_000, 200_000):
            tracemalloc.start()
            reweight_expectation(ens, obs, n, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
        assert peaks[1] <= 66.6e6, peaks

    class IndexRows:
        """A row source of one value a row, its index; records each request."""

        def __init__(self, batches):
            self.batches, self.size, self.asked = batches, 1, []

        def rows(self, start, stop):
            self.asked.append((start, stop))
            return np.arange(start, stop, dtype=float)

    @pytest.mark.parametrize("size, asked", [
        (30, [(0, 100), (100, 200), (200, 300), (300, 400)]),
        (29, [(0, 100), (100, 200), (200, 300), (300, 400)]),
        (10, [(0, 300), (300, 400)]),
        (7, [(0, 400)]),
        (100, [(b * 100 + lo, b * 100 + min(lo + 30, 100))
               for b in range(4) for lo in range(0, 100, 30)]),
        (3001, [(i, i + 1) for i in range(400)]),
    ], ids=["one-batch", "one-batch-of-103-rows", "three-batches", "all-batches",
            "pieces-of-30-rows", "one-row"])
    def test_chunks_hold_whole_batches_or_pieces_of_one(self, monkeypatch, size, asked):
        # four batches of 100 rows; a chunk holds at most CHUNK_VALUES // size
        # rows of the mapped source (at least one): whole batches when they
        # fit, else a piece of one batch.  The map runs once per chunk, and
        # each batch's slice of its output is summed into that batch
        monkeypatch.setattr(sampler_module, "CHUNK_VALUES", 3000)
        source, mapped = self.IndexRows(4), []
        rows = map_rows(source, lambda r: mapped.append(len(r)) or 2.0 * r, size)
        sums = accumulate(rows, lambda v: (len(v), v.sum()), 400)
        assert source.asked == asked
        assert mapped == [hi - lo for lo, hi in asked]
        assert max(mapped) <= max(1, 3000 // size)
        expected = [(100.0, 2.0 * sum(range(b * 100, b * 100 + 100))) for b in range(4)]
        assert np.array_equal(sums, expected)
        with pytest.raises(ValueError, match="multiple of 4 batches"):
            accumulate(self.IndexRows(4), lambda v: (len(v),), 402)

    def test_jackknife_of_a_plain_mean_is_the_batch_means_stderr(self):
        values = np.random.default_rng(3).exponential(size=(N_BATCHES, 40))
        sums = np.stack([np.full(N_BATCHES, 40.0), values.sum(axis=1)], axis=1)
        mean, err = jackknife(sums, lambda c: c[1] / c[0])
        batch = np.std(values.mean(axis=1), ddof=1) / math.sqrt(N_BATCHES)
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert err == pytest.approx(batch, rel=1e-12)

    def test_two_point_ess_is_kong(self):
        p1, p2 = ((0,), 0.0, 0), ((2,), 0.5, 0)
        free = truncated_two_point(chain_ensemble(b_m=0.0), p1, p2, 20_000, seed=5)
        assert free.ess == pytest.approx(20_000, rel=1e-12)
        ens = chain_ensemble(b_m=0.3)
        two = truncated_two_point(ens, p1, p2, 20_000, seed=5)
        one = reweight_expectation(ens, ens.phi_product([p1]), 20_000, seed=5)
        assert two.ess == pytest.approx(one.ess, rel=1e-12)
        assert two.ess < 20_000

    @pytest.mark.parametrize("h", [3.0, 30.0])
    def test_pcn_runs_on_the_shifted_reference(self, h):
        # the chain proposes around the mean -C l, so the linear terms cost it
        # nothing: at b_m = 0 every proposal is accepted and the chain mixes
        # as the autoregression of the proposal alone, whatever the field
        ens = self.strong_field(h)
        exact = self.dense_mean(ens, h)
        res = pcn_expectation(ens, ens.mean_displacement(), 5000, seed=3)
        assert abs(res.mean - exact) <= 4.0 * res.stderr, (res, exact)
        assert res.ess >= 100, res

    def test_pcn_chain_carries_across_chunks(self, monkeypatch):
        # a chunk holds at most CHUNK_VALUES field values: 64 steps of
        # 64-value fields here, so the chain's state and its trace must run
        # on unbroken across 86 chunk boundaries
        monkeypatch.setattr(sampler_module, "CHUNK_VALUES", 64 * 64)
        ens = chain_ensemble(n=4, b_m=0.3, n_slices=16, h_hat=(0.5,))
        draws = []
        sample = ens.sampler.sample
        monkeypatch.setattr(ens.sampler, "sample",
                            lambda rng, n, **kw: draws.append(n) or sample(rng, n, **kw))
        obs = ens.mean_displacement()
        chain = pcn_expectation(ens, obs, 5000, seed=4)
        assert max(draws) == 64 and sum(draws) == 1 + 5500, draws
        direct = reweight_expectation(ens, obs, 20_000, seed=5)
        assert compatible(chain, direct, n_sigma=4.0), (chain, direct)
