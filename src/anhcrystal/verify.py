"""One-shot verification suite: fast invariant checks with pass/fail rows.

These are reduced-budget versions of the package's acceptance tests, sized to
finish in well under a minute together.  Each check returns (ok, detail);
``run_verification`` adds its name and wall time, and the CLI prints one row
per check and exits nonzero on any failure.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .covariance import (CovarianceKernel, convex_decomposition, decomposition_matrix,
                         p_matrix)
from .lattice import Lattice, RodMode
from .params import (ModelParams, beta_threshold, epsilon_of_m, field_threshold,
                     mass_threshold, rescale, unrescale)
from .potential import (derivative_bound_check, finite_difference_derivative,
                        gaussian_representation_check, nth_derivative,
                        nth_derivative_hermite)
from .sampler import Ensemble, GaussianFieldSampler, periodic_bc


def check_threshold_algebra(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        b, a, c_g = rng.uniform(0.1, 3.0, size=3)
        c = rng.uniform(-1.0, 2.0)
        d = int(rng.integers(1, 9))
        m_star = mass_threshold(b, a, c_g, c, d)
        worst = max(worst, abs(epsilon_of_m(b, a, c_g, m_star, d) * math.exp(c) - 1.0))
        worst = max(worst, abs(beta_threshold(b, a, c_g, c, d) - m_star ** 0.25) /
                    m_star ** 0.25)
        h = rng.uniform(0.0, 2.0)
        if field_threshold(m_star, h, c_g, c) > m_star * (1 + 1e-12):
            return False, "field threshold exceeded the zero-field threshold"
        m_lo, m_hi = 0.5 * m_star, 1.5 * m_star
        if not (epsilon_of_m(b, a, c_g, m_lo, d) < math.exp(-c) <
                epsilon_of_m(b, a, c_g, m_hi, d)):
            return False, "epsilon(m) < e^-c iff m < m* failed"
    return worst < 1e-10, f"max identity error {worst:.2e}"


def check_rescaling(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        p = ModelParams(m=rng.uniform(0.01, 4.0), a=1.0, b=rng.uniform(0, 2),
                        delta=rng.uniform(0, 2), J=0.25, beta=rng.uniform(0.5, 4),
                        h=(rng.uniform(-1, 1),), dims=(4,))
        r = rescale(p)
        back = unrescale(r)
        for key in ("m", "b", "delta", "beta"):
            ref = getattr(p, key)
            worst = max(worst, abs(back[key] - ref) / max(1.0, abs(ref)))
        worst = max(worst, abs(back["h"][0] - p.h[0]))
        worst = max(worst, abs(r.b_m * r.delta_m - p.b * p.delta))
    return worst < 1e-12, f"max roundtrip error {worst:.2e}"


def check_covariance_forms() -> tuple[bool, str]:
    lat = Lattice(nu=1, dims=(8,))
    kern = CovarianceKernel(lat, a=1.0, J=0.25, beta_hat=0.5)
    worst = 0.0
    for j in (0, 1):
        for tau in np.linspace(0.05, 0.25, 5):
            closed = kern.closed((j,), (0,), tau)
            mats = kern.matsubara((j,), (0,), tau, 20_000)
            worst = max(worst, abs(mats - closed) / abs(closed))
    return worst < 1e-6, f"max relative gap {worst:.2e}"


def check_covariance_sum_rule() -> tuple[bool, str]:
    from numpy.polynomial.legendre import leggauss

    worst = 0.0
    nodes, weights = leggauss(48)
    for a in (0.5, 1.0, 4.0):
        for j_coupling in (0.0, 0.25):
            lat = Lattice(nu=1, dims=(8,))
            kern = CovarianceKernel(lat, a=a, J=j_coupling, beta_hat=2.0)
            taus = 1.0 * (nodes + 1.0)
            total = 0.0
            for j in range(8):
                vals = np.array([kern.closed((j,), (0,), t) for t in taus])
                total += float(np.sum(weights * vals))
            worst = max(worst, abs(total - 1.0 / a))
    return worst < 1e-8, f"max |sum - 1/a| = {worst:.2e}"


def check_partition_function() -> tuple[bool, str]:
    from .oracle import GridHamiltonian, thermal_trace

    lat = Lattice(nu=1, dims=(1,))
    kern = CovarianceKernel(lat, a=1.0, J=0.0, beta_hat=1.0)
    ham = GridHamiltonian(n_sites=1, a=1.0, J=0.0, b_m=0.0, delta_m=1.0, n_grid=256)
    gap = abs(kern.log_partition(1) - thermal_trace(ham, 1.0))
    doubling = abs(kern.log_partition(2) - 2.0 * kern.log_partition(1))
    ok = gap < 1e-4 and doubling < 1e-12
    return ok, f"oracle gap {gap:.2e}, d-doubling {doubling:.1e}"


def check_sampler_exactness() -> tuple[bool, str]:
    lat = Lattice(nu=1, dims=(2,))
    kern = CovarianceKernel(lat, a=1.0, J=0.25, beta_hat=1.0)
    n, m = 20_000, 8
    sampler = GaussianFieldSampler(kern, m, d=1)
    rng = np.random.default_rng(202)
    flat = sampler.sample(rng, n).reshape(n, -1)
    emp = flat.T @ flat / n
    theo = kern.grid_matrix([(i, s) for i in range(2) for s in range(m)], m)
    se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / n)
    ratio = float((np.abs(emp - theo) / se).max())
    return ratio < 5.0, f"worst entry at {ratio:.2f} standard errors"


def check_potential_bounds(rng) -> tuple[bool, str]:
    grid = np.arange(-5.0, 5.0, 0.05)
    for _ in range(5):
        b_m = rng.uniform(0.05, 0.95)
        delta_m = rng.uniform(0.2, 3.0)
        report = derivative_bound_check(8, grid, b_m, delta_m)
        if not report.ok:
            return False, f"violated at {report.first_violation}"
    return True, "prototype and Gibbs-factor bounds hold (n <= 8)"


def check_gaussian_representation(rng) -> tuple[bool, str]:
    worst = 0.0
    for d in (1, 2):
        for _ in range(5):
            q = rng.uniform(-2, 2, size=d)
            _, _, diff = gaussian_representation_check(q, b=rng.uniform(0.1, 2.0),
                                                       delta=rng.uniform(0.1, 2.0))
            worst = max(worst, diff)
    return worst < 1e-8, f"max quadrature gap {worst:.2e}"


def check_derivative_recursion() -> tuple[bool, str]:
    b_m, delta_m = 0.7, 1.3
    xs = np.linspace(-3, 3, 31)
    worst = 0.0
    for n in range(1, 6):
        rec = nth_derivative(xs, n, b_m, delta_m)
        fd = finite_difference_derivative(
            lambda x: nth_derivative(x, 0, b_m, delta_m), xs, n, h=0.05)
        herm = nth_derivative_hermite(xs, n, b_m, delta_m)
        scale = float(np.max(np.abs(rec))) or 1.0
        worst = max(worst, float(np.max(np.abs(rec - fd))) / scale,
                    float(np.max(np.abs(rec - herm))) / scale)
    return worst < 1e-5, f"max relative gap {worst:.2e}"


def tree_order_facts(n: int) -> dict:
    """Order n's exact tree facts: (n-1)! trees, each with incidence counts
    summing to n-1, and a tree sum below 4^n with the d(k)! weights and
    below e^n without them.  ``ok`` holds when all of them do."""
    from .cluster import battle_federbush_sum, enumerate_trees

    trees = enumerate_trees(n)
    total = battle_federbush_sum(n)
    loose = battle_federbush_sum(n, with_factorials=False)
    row = {"count": len(trees), "factorial": math.factorial(n - 1),
           "incidence_sum_ok": all(sum(t.incidence_counts) == n - 1 for t in trees),
           "sum": str(total), "bound": 4 ** n,
           "no_factorial_sum": str(loose), "no_factorial_ok": float(loose) <= math.e ** n}
    row["ok"] = (row["count"] == row["factorial"] and row["incidence_sum_ok"]
                 and total <= 4 ** n and row["no_factorial_ok"])
    return row


def check_trees() -> tuple[bool, str]:
    failed = [n for n in range(2, 7) if not tree_order_facts(n)["ok"]]
    if failed:
        return False, f"tree facts fail at orders {failed}"
    return True, "counts, incidences and both tree-sum bounds exact (n <= 6)"


def check_evaluators() -> tuple[bool, str]:
    from .cluster import ClusterInstance, enumerate_trees, evaluate_symbolic

    lat = Lattice(nu=1, dims=(2,))
    ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                   b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
    inst = ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                           monomials={ens.grid.point(0, 2): 2})
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((16, ens.grid.n_points))
    worst = 0.0
    for n in (2, 3):
        for yseq in itertools.permutations(inst.free_rod_ids, n - 1):
            for tree in enumerate_trees(n):
                sym = evaluate_symbolic(inst.symbolic_integrand(tree, yseq),
                                        phi, inst.monomials)
                fast = inst.contraction_value(tree, yseq, phi)
                worst = max(worst, float(np.max(np.abs(sym - fast))) /
                            max(1e-12, float(np.max(np.abs(sym)))))
    return worst < 1e-12, f"symbolic vs contraction gap {worst:.2e}"


def check_interpolation(rng) -> tuple[bool, str]:
    lat = Lattice(nu=1, dims=(2,))
    kern = CovarianceKernel(lat, a=1.0, J=0.25, beta_hat=2.0)
    m = 8
    base = kern.grid_matrix([(i, s) for i in range(2) for s in range(m)], m)
    labels = np.repeat(np.arange(4), 4)  # three blocks of four points, then the rest
    worst_psd, worst_rec = 0.0, 0.0
    for _ in range(10):
        s = rng.uniform(0, 1, size=3)
        mat = base * p_matrix(labels, s)
        eig = np.linalg.eigvalsh(mat)
        worst_psd = max(worst_psd, -float(eig.min()) / float(np.trace(mat)))
        rec = decomposition_matrix(base, labels, convex_decomposition(s))
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - mat))))
    ok = worst_psd < 1e-10 and worst_rec < 1e-12
    return ok, f"min eig ratio {worst_psd:.1e}, reconstruction {worst_rec:.1e}"


def run_verification(cfg: dict) -> list[tuple[str, bool, str, float]]:
    """(name, ok, detail, wall seconds) of every check."""
    rng = np.random.default_rng(cfg.get("seed", 1))
    checks = [
        ("threshold-algebra", lambda: check_threshold_algebra(rng)),
        ("light-mass-rescaling", lambda: check_rescaling(rng)),
        ("covariance-series-vs-closed", check_covariance_forms),
        ("covariance-sum-rule", check_covariance_sum_rule),
        ("partition-function", check_partition_function),
        ("sampler-exactness", check_sampler_exactness),
        ("potential-derivative-bounds", lambda: check_potential_bounds(rng)),
        ("gaussian-representation", lambda: check_gaussian_representation(rng)),
        ("derivative-recursion", check_derivative_recursion),
        ("tree-combinatorics", check_trees),
        ("expansion-evaluators", check_evaluators),
        ("interpolated-kernel", lambda: check_interpolation(rng)),
    ]
    results = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail, time.perf_counter() - start))
    return results
