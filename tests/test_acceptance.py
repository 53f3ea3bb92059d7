"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Each test prints a single PASS line with its measured numbers (run pytest
with -s or read the captured output); the assertions themselves carry the
stated tolerances.  Monte Carlo tests use pinned seeds and are deterministic.
"""

import math

import numpy as np
import pytest

from anhcrystal.covariance import CovarianceKernel
from anhcrystal.lattice import Boundary, Lattice, RodMode
from anhcrystal.params import (beta_threshold, epsilon_of_m, field_threshold,
                               mass_threshold, rescale, ModelParams)
from anhcrystal.sampler import (Ensemble, GaussianFieldSampler, clustering_fit,
                                order_parameter, periodic_bc, tempered_bc,
                                two_point_table, uniqueness_gap)

pytestmark = pytest.mark.acceptance


def report(num: int, detail: str):
    print(f"[criterion {num:2d}] PASS  {detail}")


def test_01_covariance_series_vs_closed_form():
    lat = Lattice(1, (8,))
    kern = CovarianceKernel(lat, a=1.0, J=0.25, beta_hat=0.5)
    n_max = 50_000
    worst = 0.0
    count = 0
    for j in (0, 1):
        for tau in np.linspace(0.05, 0.25, 10):
            closed = kern.closed((j,), (0,), float(tau))
            mats = kern.matsubara((j,), (0,), float(tau), n_max)
            worst = max(worst, abs(mats - closed) / abs(closed))
            count += 1
    assert count == 20
    assert worst <= 1e-6
    report(1, f"20 points, relative error <= {worst:.2e} at n_max = 5e4")


def test_02_summed_kernel_identity():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    beta_hat = 2.0
    taus = 0.5 * beta_hat * (nodes + 1.0)
    scaled = 0.5 * beta_hat * weights
    worst = 0.0
    for n in (8, 16):
        for a in (0.5, 1.0, 4.0):
            for j_coupling in (0.0, 0.25, 1.0):
                kern = CovarianceKernel(Lattice(1, (n,)), a, j_coupling, beta_hat)
                total = 0.0
                for j in range(n):
                    vals = np.array([kern.closed((j,), (0,), float(t)) for t in taus])
                    total += float(np.sum(scaled * vals))
                worst = max(worst, abs(total - 1.0 / a))
    assert worst <= 1e-8
    report(2, f"numeric double sum off 1/a by <= {worst:.2e} "
              "for N in {8,16}, a in {0.5,1,4}, J in {0,0.25,1}")


def test_03_sampler_exactness_free_field():
    lat = Lattice(1, (4,))
    kern = CovarianceKernel(lat, a=1.0, J=0.25, beta_hat=2.0)
    m = 32
    n = 100_000
    sampler = GaussianFieldSampler(kern, m, d=1)
    rng = np.random.default_rng(1234)
    emp = np.zeros((4 * m, 4 * m))
    done = 0
    while done < n:
        take = min(20_000, n - done)
        flat = sampler.sample(rng, take).reshape(take, -1)
        emp += flat.T @ flat
        done += take
    emp /= n
    theo = kern.grid_matrix([(i, s) for i in range(4) for s in range(m)], m)
    se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / n)
    ratio = float((np.abs(emp - theo) / se).max())
    assert ratio < 5.0
    report(3, f"{emp.size} covariance entries, worst deviation "
              f"{ratio:.2f} standard errors (bound 5)")


def test_04_sampler_matches_spectral_oracle():
    from anhcrystal.oracle import GridHamiltonian, thermal_correlation

    params = ModelParams(m=1.0, a=1.0, b=0.5, delta=1.0, J=0.25, beta=2.0,
                         dims=(2,))
    r = rescale(params)
    grid_tolerance = 1e-4  # documented oracle discretization budget
    details = []
    # one uncoupled site, then the periodic pair whose bond and wells act together
    for n_sites, J, taus in ((1, 0.0, (0.0, 0.5, 1.0)), (2, 0.25, (0.25, 0.5, 1.0))):
        ham = GridHamiltonian(n_sites=n_sites, a=1.0, J=J, b_m=r.b_m, delta_m=r.delta_m)
        ens = Ensemble(lattice=Lattice(1, (n_sites,)), a=1.0, J=J, beta_hat=r.beta_hat,
                       n_slices=32, b_m=r.b_m, delta_m=r.delta_m, d=1,
                       bc=periodic_bc())
        lags = [round(tau / ens.grid.delta_tau) for tau in taus]
        k, e = two_point_table(ens, time_lag=lags, n_samples=200_000, seed=42)
        for i, tau in enumerate(taus):
            for site in range(n_sites):
                mc, err = float(k[site, i]), float(e[site, i])
                exact = thermal_correlation(ham, r.beta_hat, tau, 0, site)
                combined = math.hypot(err, grid_tolerance)
                assert abs(mc - exact) <= 4.0 * combined, (n_sites, tau, site, mc, exact, err)
                assert err <= 0.01 * abs(exact)
                details.append(f"{n_sites} site(s) C(0,{site};tau={tau}): "
                               f"{abs(mc - exact) / combined:.2f} sigma, "
                               f"stderr {err / abs(exact) * 100:.2f}%")
    report(4, "; ".join(details))


def test_05_derivative_bounds_and_recursion():
    from anhcrystal.potential import (derivative_bound_check,
                                      finite_difference_derivative,
                                      nth_derivative)

    rng = np.random.default_rng(8)
    grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    for _ in range(20):
        b_m = rng.uniform(0.02, 0.98)
        delta_m = rng.uniform(0.1, 4.0)
        rep = derivative_bound_check(10, grid, b_m, delta_m)
        assert rep.ok, (b_m, delta_m, rep.first_violation)
    xs = np.linspace(-3, 3, 61)
    worst = 0.0
    for n in range(1, 6):
        ana = nth_derivative(xs, n, 0.7, 1.3)
        fd = finite_difference_derivative(
            lambda y: nth_derivative(y, 0, 0.7, 1.3), xs, n, h=0.05)
        worst = max(worst, float(np.max(np.abs(ana - fd)) / np.max(np.abs(ana))))
    assert worst <= 1e-5
    report(5, f"bounds hold for n <= 10 on 20 random draws; recursion vs "
              f"finite differences <= {worst:.2e}")


def test_06_tree_sum_bounds():
    from anhcrystal.cluster import battle_federbush_sum

    from fractions import Fraction

    values = {}
    for n in range(2, 8):
        total = battle_federbush_sum(n)
        assert total <= 4 ** n
        values[n] = total
    assert values[3] == Fraction(2)
    report(6, "exact rational tree sums <= 4^n for n = 2..7; "
              f"order-3 value {values[3]} matches the hand count")


def test_07_first_step_identity():
    from anhcrystal.cluster import ClusterInstance, newton_leibniz_report

    ens = Ensemble(lattice=Lattice(1, (1,)), a=1.0, J=0.25, beta_hat=2.0,
                   n_slices=16, b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
    inst = ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                           monomials={ens.grid.point(0, 4): 2})
    rep = newton_leibniz_report(inst, n_samples=200_000, seed=11)
    # direct - term one (R_1, common draws) against the integral of the
    # integration-by-parts derivative term (independent draws)
    (r1, dr1), (ibp, dibp) = rep.remainder, rep.remainder_ibp
    gap, sigma = abs(r1 - ibp), math.hypot(dr1, dibp)
    assert gap <= 4.0 * sigma
    assert sigma <= 0.1 * abs(r1)
    report(7, f"direct {rep.direct[0]:.5f} = term one {rep.term_one[0]:.5f} + remainder "
              f"{r1:.5f}; integration by parts gives {ibp:.5f}, {gap / sigma:.2f} sigma")


def _expansion_instance(b_m: float):
    from anhcrystal.cluster import ClusterInstance

    ens = Ensemble(lattice=Lattice(1, (2,)), a=0.5, J=0.5, beta_hat=2.0,
                   n_slices=8, b_m=b_m, delta_m=5.0, d=1, bc=periodic_bc())
    return ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                           monomials={ens.grid.point(0, 2): 2})


def test_08_expansion_residual_decay_and_scaling():
    from anhcrystal.cluster import residual_decay_report

    rep = residual_decay_report(_expansion_instance(0.1), n_max=3,
                                first_step_samples=2_000_000,
                                order_samples={2: 400_000, 3: 50_000}, seed=314)
    res = [r[0] for r in rep.residuals]
    assert res[0] > res[1] > res[2], rep.residuals
    seps = [(hi - lo) / math.hypot(dhi, dlo)
            for (hi, dhi), (lo, dlo) in zip(rep.residuals, rep.residuals[1:])]
    assert min(seps) >= 3.0, rep.residuals
    s2s, s3s = [], []
    for b_m in (0.05, 0.1, 0.2):
        inst = _expansion_instance(b_m)
        s2s.append(inst.order_contribution(2, 200_000, 271)[0])
        s3s.append(inst.order_contribution(3, 25_000, 271)[0])
    logs_b = np.log([0.05, 0.1, 0.2])
    slope2 = float(np.polyfit(logs_b, np.log(np.abs(s2s)), 1)[0])
    slope3 = float(np.polyfit(logs_b, np.log(np.abs(s3s)), 1)[0])
    assert abs(slope3 - 2.0) <= 0.1
    assert abs(slope2 - 1.0) <= 0.1
    report(8, f"residuals {res[0]:.2e} > {res[1]:.2e} > {res[2]:.2e} "
              f"(drops >= {min(seps):.1f} sigma); "
              f"order scaling slopes {slope2:.3f} (order 2), {slope3:.3f} (order 3)")


def test_09_clustering_rate():
    common = dict(lattice=Lattice(1, (32,)), a=1.0, J=0.5, beta_hat=2.0,
                  n_slices=32, delta_m=1.0, d=1, bc=periodic_bc())
    interacting = Ensemble(b_m=0.1, **common)
    fit = clustering_fit(interacting, max_dist=4, n_samples=150_000, seed=9)
    assert fit.rate > 0
    free = Ensemble(b_m=0.0, **common)
    fit0 = clustering_fit(free, max_dist=4, n_samples=150_000, seed=9)
    rel = abs(fit0.rate - fit0.reference_rate) / fit0.reference_rate
    assert rel <= 0.05
    report(9, f"anharmonic rate {fit.rate:.3f} > 0 (reference sqrt(a) = 1.0); "
              f"free-field fitted rate off the exact kernel's by {rel * 100:.1f}%")


def test_10_uniqueness_gap_decay():
    n_slices = 16

    def make_pair(n):
        lat = Lattice(1, (n,), Boundary.DIRICHLET)
        xi = {(-1,): np.ones((n_slices, 1)), (n,): np.ones((n_slices, 1))}
        eta = {(-1,): np.zeros((n_slices, 1)), (n,): np.zeros((n_slices, 1))}
        common = dict(lattice=lat, a=1.0, J=2.0, beta_hat=2.0,
                      n_slices=n_slices, b_m=0.1, delta_m=1.0, d=1)
        return (Ensemble(**common, bc=tempered_bc(xi)),
                Ensemble(**common, bc=tempered_bc(eta)))

    rows = uniqueness_gap(make_pair, lambda n: (n // 2,), tau=0.5,
                          lattice_sizes=[8, 16, 32], n_samples=200_000, seed=7)
    gaps = [abs(r["gap"]) for r in rows]
    dists = [r["dist_to_boundary"] for r in rows]
    assert gaps[0] > gaps[1] > gaps[2], rows
    rate = math.log(gaps[0] / gaps[1]) / (dists[1] - dists[0])
    assert rate > 0
    # the farthest box must keep decaying at least half as fast, up to noise
    bound = gaps[1] * math.exp(-0.5 * rate * (dists[2] - dists[1]))
    assert gaps[2] <= bound + 4.0 * rows[2]["stderr"]
    report(10, f"|gap| = {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}; "
               f"fitted decay rate {rate:.2f} per site")


def test_11_order_parameter_light_mass():
    params = ModelParams(m=0.01, a=1.0, b=0.5, delta=1.0, J=0.25, beta=0.2,
                         dims=(16,))
    r = rescale(params)

    def make_ensemble(n, h):
        return Ensemble(lattice=Lattice(1, (n,)), a=params.a, J=params.J,
                        beta_hat=r.beta_hat, n_slices=32, b_m=r.b_m,
                        delta_m=r.delta_m, d=1, h_hat=(r.alpha * h,),
                        bc=periodic_bc())

    rows = order_parameter(make_ensemble, r.alpha, [0.1, -0.1, 0.0], [16],
                           200_000, seed=5)
    by_h = {row["h"]: row for row in rows}
    zero = by_h[0.0]
    assert abs(zero["sigma"]) <= 4.0 * zero["stderr"]
    odd_gap = abs(by_h[0.1]["sigma"] + by_h[-0.1]["sigma"])
    odd_sigma = math.hypot(by_h[0.1]["stderr"], by_h[-0.1]["stderr"])
    assert odd_gap <= 4.0 * odd_sigma
    report(11, f"sigma(h=0) = {zero['sigma']:+.2e} ({abs(zero['sigma']) / zero['stderr']:.2f} sigma); "
               f"oddness gap {odd_gap / odd_sigma:.2f} sigma at h = ±0.1")


def test_12_threshold_arithmetic():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        b = rng.uniform(0.05, 5.0)
        a = rng.uniform(0.05, 5.0)
        c_g = rng.uniform(0.05, 5.0)
        c = rng.uniform(-1.0, 2.0)
        d = int(rng.integers(1, 9))
        h = rng.uniform(0.0, 3.0)
        # independent evaluation through logarithms
        log_base = math.log(64.0) + math.log(b) + 0.5 * math.log(a) + \
            math.log(c_g) + c
        m_star_ref = math.exp(-8.0 / d * log_base)
        beta_star_ref = math.exp(-2.0 / d * log_base)
        scale = h * c_g * math.e ** (c + 1.0)
        mh_ref = m_star_ref * min(1.0, scale ** -4.0) if scale > 0 else m_star_ref
        m_star = mass_threshold(b, a, c_g, c, d)
        worst = max(worst,
                    abs(m_star - m_star_ref) / m_star_ref,
                    abs(beta_threshold(b, a, c_g, c, d) - beta_star_ref) / beta_star_ref,
                    abs(beta_threshold(b, a, c_g, c, d) ** 4 - m_star) / m_star,
                    abs(field_threshold(m_star, h, c_g, c) - mh_ref) / mh_ref,
                    abs(epsilon_of_m(b, a, c_g, m_star, d) * math.exp(c) - 1.0))
    assert worst <= 1e-12
    report(12, f"100 random draws, worst algebraic deviation {worst:.2e}")
