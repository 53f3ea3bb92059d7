import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from anhcrystal import cluster as cluster_module
from anhcrystal.cluster import (RQMC_BATCHES, ClusterInstance, PolyExp, SymbolicTerm,
                                Tree, battle_federbush_sum, delta_apply,
                                derivative_ladder, enumerate_trees,
                                evaluate_ladder, evaluate_symbolic, f_factor,
                                gauss_legendre_unit, gaussian_bump_mean,
                                newton_leibniz_report, residual_decay_report,
                                scrambled_normals)
from anhcrystal.lattice import Lattice, RodMode
from anhcrystal.potential import nth_derivative
from anhcrystal.sampler import Ensemble, periodic_bc


def make_instance(dims=(2,), beta_hat=2.0, n_slices=8, b_m=0.3, delta_m=1.0,
                  a=1.0, J=0.25, power=2, tau=0.5, site=0,
                  mode=RodMode.LOW_TEMPERATURE):
    lat = Lattice(1, dims)
    ens = Ensemble(lattice=lat, a=a, J=J, beta_hat=beta_hat, n_slices=n_slices,
                   b_m=b_m, delta_m=delta_m, d=1, bc=periodic_bc())
    pt = ens.grid.point(site, ens.grid.slice_of(tau))
    return ClusterInstance(ensemble=ens, mode=mode, monomials={pt: power})


def branch_index(tree: Tree, k: int) -> int:
    """1 + number of earlier vertices sharing vertex k's parent."""
    return 1 + sum(1 for l in range(2, k) if tree.eta(l) == tree.eta(k))


def engine_scrambled_normals(n_samples, dim, seed, n_batches=RQMC_BATCHES):
    """Reference for ``scrambled_normals``: one scipy scrambled Sobol engine per block."""
    per = n_samples // n_batches
    blocks = []
    for child in np.random.SeedSequence(seed).spawn(n_batches):
        engine = qmc.Sobol(dim, scramble=True, rng=np.random.default_rng(child))
        # the leading `per` points of a power-of-two draw: the same points as
        # engine.random(per), without scipy's balance warning
        u = engine.random_base2(math.ceil(math.log2(per)))[:per]
        blocks.append(ndtri(0.5 + (1.0 - 1e-10) * (u - 0.5)))
    return np.concatenate(blocks)


def term_by_term(terms, phi_flat, monomials):
    """Reference for ``evaluate_symbolic``: every factor of every term evaluated afresh."""
    total = np.zeros(phi_flat.shape[0])
    for term in terms:
        val = np.full(phi_flat.shape[0], term.coeff)
        for t, q in term.factors.items():
            val *= q(phi_flat[:, t])
        for t, power in monomials.items():
            if t not in term.factors:
                val *= phi_flat[:, t] ** power
        total += val
    return total


def quadrature_term(inst, yseq, n_samples, seed):
    """K of one rod sequence on the 8^(n-1) Gauss-Legendre grid over s.

    Every node sees the same scrambled normals; returns the mean and the
    standard error of the RQMC_BATCHES block means.
    """
    n = len(yseq) + 1
    nodes, weights = gauss_legendre_unit(8)
    n_pts = sum(len(b) for b in inst.blocks_for(yseq))
    z = scrambled_normals(n_samples, n_pts, seed)
    acc = np.zeros(n_samples)
    for combo in itertools.product(range(8), repeat=n - 1):
        s = nodes[list(combo)]
        w = float(np.prod(weights[list(combo)]))
        for tree in enumerate_trees(n):
            acc += w * f_factor(tree, s) * inst.i_term(tree, yseq, s, z)
    means = acc.reshape(RQMC_BATCHES, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(RQMC_BATCHES))


class TestTrees:
    def test_counts(self):
        assert len(enumerate_trees(2)) == 1
        assert len(enumerate_trees(3)) == 2
        assert len(enumerate_trees(5)) == 24
        for n in range(1, 8):
            assert len(enumerate_trees(n)) == math.factorial(n - 1)

    def test_single_order_two_tree(self):
        (tree,) = enumerate_trees(2)
        assert tree.parent == (1,)

    def test_incidence_counts_sum(self):
        for n in (3, 5, 6):
            for tree in enumerate_trees(n):
                counts = tree.incidence_counts
                assert sum(counts) == n - 1
                # line ends per vertex: d(1) at the root, d(k)+1 elsewhere
                assert counts[0] + sum(c + 1 for c in counts[1:]) == 2 * (n - 1)

    def test_branch_indices_count_siblings(self):
        tree = Tree(parent=(1, 1, 2))
        assert branch_index(tree, 2) == 1
        assert branch_index(tree, 3) == 2
        assert branch_index(tree, 4) == 1

    def test_order_cap(self):
        with pytest.raises(ValueError):
            enumerate_trees(9)

    def test_invalid_parent(self):
        with pytest.raises(ValueError):
            Tree(parent=(2,))


class TestFFactor:
    def test_chain_tree_is_one(self):
        tree = Tree(parent=(1, 2, 3))
        assert f_factor(tree, (0.2, 0.9, 0.4)) == 1.0

    def test_order_three_star(self):
        tree = Tree(parent=(1, 1))
        s = (0.3, 0.8)
        assert f_factor(tree, s) == pytest.approx(0.3)

    def test_all_ones(self):
        for tree in enumerate_trees(5):
            assert f_factor(tree, (1.0,) * 4) == 1.0

    def test_rows_of_s(self):
        s = np.random.default_rng(0).uniform(size=(5, 3))
        for tree in enumerate_trees(4):
            assert np.array_equal(f_factor(tree, s), [f_factor(tree, row) for row in s])

    def test_length_check(self):
        with pytest.raises(ValueError):
            f_factor(Tree(parent=(1,)), (0.5, 0.5))


class TestBattleFederbush:
    def test_order_two(self):
        assert battle_federbush_sum(2) == Fraction(1)
        assert battle_federbush_sum(2) <= 4 ** 2

    def test_order_three_hand_value(self):
        # chain tree gives 1; star tree gives 2! * integral of s1 = 1
        assert battle_federbush_sum(3) == Fraction(2)

    def test_bound_and_monotone_ratio(self):
        ratios = []
        for n in range(2, 8):
            total = battle_federbush_sum(n)
            assert total <= 4 ** n
            ratios.append(Fraction(total, 4 ** n))
        assert all(ratios[i] >= ratios[i + 1] for i in range(len(ratios) - 1))

    def test_no_factorial_variant(self):
        for n in range(2, 8):
            loose = battle_federbush_sum(n, with_factorials=False)
            assert float(loose) <= math.e ** n
            assert loose <= battle_federbush_sum(n)

    def test_order_caps(self):
        with pytest.raises(ValueError):
            battle_federbush_sum(8)
        with pytest.raises(ValueError):
            battle_federbush_sum(1)


class TestPolyExp:
    def test_derivative_of_gaussian_monomial(self):
        # d/dy [y e^{-dm y^2}]  (k = 2 means exponent dm = 2 * delta_m / 2)
        pe = PolyExp({(1, 2): 1.0}, delta_m=1.0)
        d = pe.deriv()
        y = np.linspace(-2, 2, 7)
        expected = (1.0 - 2.0 * y ** 2) * np.exp(-y ** 2)
        assert np.allclose(d(y), expected)

    def test_ladder_matches_analytic_derivatives(self):
        # q_r e^X must reproduce d^r/dy^r e^X when there is no monomial:
        # compare against the Leibniz accumulation of the potential module
        from anhcrystal.potential import gibbs_factor_derivatives

        w, dm = 0.7, 1.3
        ladder = derivative_ladder(0, 4, w, dm)
        y = np.linspace(-2, 2, 21)
        gibbs = np.exp(-w * np.exp(-0.5 * dm * y ** 2))
        ana = gibbs_factor_derivatives(y, 4, w, dm)
        for r in range(5):
            assert np.allclose(ladder[r](y) * gibbs, ana[r], atol=1e-12)

    def test_evaluate_ladder_shares_cache(self):
        ladder = derivative_ladder(2, 3, 0.4, 2.0)
        y = np.linspace(-1, 1, 11)
        fused = evaluate_ladder(ladder, y)
        for r, pe in enumerate(ladder):
            assert np.allclose(fused[r], pe(y))


class TestDeltaApply:
    def grid_setup(self):
        inst = make_instance(b_m=0.3)
        pa = inst.x1_points
        pb = inst.rod_points[inst.free_rod_ids[0]]
        g = inst.full_matrix[np.ix_(pa, pb)]
        return inst, pa, pb, g

    def test_on_gibbs_factor_gives_first_derivative_pair(self):
        # with no observable factors every term is G(t,t') X'(t) X'(t')
        inst, pa, pb, g = self.grid_setup()
        start = [SymbolicTerm(coeff=1.0, factors={})]
        terms = delta_apply(start, pa, pb, g, inst.xprime, monomials={})
        assert len(terms) == len(pa) * len(pb)
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((5, inst.grid.n_points))
        total = evaluate_symbolic(terms, phi, {})
        xp = inst.xprime
        expected = np.zeros(5)
        for i, t in enumerate(pa):
            for j, tp in enumerate(pb):
                expected += g[i, j] * xp(phi[:, t]) * xp(phi[:, tp])
        assert np.allclose(total, expected)

    def test_monomial_degree_lowering(self):
        # one derivative on y^1 leaves 1 + y X'(y)
        inst, pa, pb, g = self.grid_setup()
        mono_pt = int(pa[0])
        start = [SymbolicTerm(coeff=1.0, factors={})]
        terms = delta_apply(start, pa[:1], pb[:1], g[:1, :1], inst.xprime,
                            monomials={mono_pt: 1})
        assert len(terms) == 1
        y = np.linspace(-2, 2, 9)
        factor = terms[0].factors[mono_pt]
        assert np.allclose(factor(y), 1.0 + y * inst.xprime(y))

    def test_free_case_vanishes(self):
        inst = make_instance(b_m=0.0)
        pa, pb = inst.x1_points, inst.rod_points[inst.free_rod_ids[0]]
        g = inst.full_matrix[np.ix_(pa, pb)]
        terms = delta_apply([SymbolicTerm(1.0, {})], pa, pb, g,
                            inst.xprime, monomials={})
        phi = np.random.default_rng(1).standard_normal((4, inst.grid.n_points))
        assert np.allclose(evaluate_symbolic(terms, phi, {}), 0.0)


class TestEvaluatorAgreement:
    @pytest.mark.parametrize("order", [2, 3])
    def test_low_temperature(self, order):
        inst = make_instance(b_m=0.4, delta_m=1.5)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal((24, inst.grid.n_points))
        for yseq in itertools.permutations(inst.free_rod_ids, order - 1):
            for tree in enumerate_trees(order):
                sym = evaluate_symbolic(inst.symbolic_integrand(tree, yseq),
                                        phi, inst.monomials)
                fast = inst.contraction_value(tree, yseq, phi)
                scale = max(1e-12, float(np.max(np.abs(sym))))
                assert float(np.max(np.abs(sym - fast))) / scale < 1e-12

    def test_high_temperature_order_four(self):
        lat = Lattice(1, (4,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=0.75, n_slices=4,
                       b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
        inst = ClusterInstance(ensemble=ens, mode=RodMode.HIGH_TEMPERATURE,
                               monomials={ens.grid.point(0, 1): 2})
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((16, ens.grid.n_points))
        for yseq in itertools.permutations(inst.free_rod_ids, 3):
            for tree in enumerate_trees(4):
                sym = evaluate_symbolic(inst.symbolic_integrand(tree, yseq),
                                        phi, inst.monomials)
                fast = inst.contraction_value(tree, yseq, phi)
                scale = max(1e-12, float(np.max(np.abs(sym))))
                assert float(np.max(np.abs(sym - fast))) / scale < 1e-12

    def test_two_monomial_points(self):
        # product observable phi(t0) phi(t1) with both points in one rod
        lat = Lattice(1, (2,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.4, delta_m=1.0, d=1, bc=periodic_bc())
        monos = {ens.grid.point(0, 0): 1, ens.grid.point(0, 2): 1}
        inst = ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                               monomials=monos)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((16, ens.grid.n_points))
        for yseq in itertools.permutations(inst.free_rod_ids, 2):
            for tree in enumerate_trees(3):
                sym = evaluate_symbolic(inst.symbolic_integrand(tree, yseq),
                                        phi, inst.monomials)
                fast = inst.contraction_value(tree, yseq, phi)
                scale = max(1e-12, float(np.max(np.abs(sym))))
                assert float(np.max(np.abs(sym - fast))) / scale < 1e-12


class TestSymbolicMemo:
    @pytest.mark.parametrize("order", [2, 3])
    def test_memo_matches_term_by_term(self, order):
        # two monomial points, so untouched observable points occur too
        lat = Lattice(1, (2,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.4, delta_m=1.5, d=1, bc=periodic_bc())
        monos = {ens.grid.point(0, 0): 1, ens.grid.point(0, 2): 2}
        inst = ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                               monomials=monos)
        phi = np.random.default_rng(9).standard_normal((12, ens.grid.n_points))
        for yseq in itertools.permutations(inst.free_rod_ids, order - 1):
            for tree in enumerate_trees(order):
                terms = inst.symbolic_integrand(tree, yseq)
                assert np.array_equal(evaluate_symbolic(terms, phi, monos),
                                      term_by_term(terms, phi, monos))


class TestClusterTerms:
    def test_order_one_free_case(self):
        inst = make_instance(b_m=0.0)
        val, err = inst.order_one(40_000, seed=3)
        pt = next(iter(inst.monomials))
        site, sl = inst.grid.point_pair(pt)
        exact = inst.ensemble.kernel.closed((site,), (site,), 0.0)
        assert abs(val - exact) < 4 * err

    def test_higher_orders_vanish_exactly_when_free(self):
        inst = make_instance(b_m=0.0)
        for yseq in ((inst.free_rod_ids[0],), inst.free_rod_ids[:2]):
            val, err = inst.cluster_term(yseq, 2000, seed=1)
            assert val == 0.0 and err == 0.0

    def test_order_cap_enforced(self):
        inst = make_instance()
        with pytest.raises(ValueError, match="cap"):
            inst.cluster_term(inst.free_rod_ids[:3], 100, seed=0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_joint_s_agrees_with_quadrature(self, order):
        # RQMC over (s, z) jointly against the tensor Gauss-Legendre grid
        # over s with common normals, each on its own scrambles
        inst = make_instance(b_m=0.3)
        yseq = inst.free_rod_ids[:order - 1]
        k, dk = inst.cluster_term(yseq, 20_000, seed=21)
        ref, dref = quadrature_term(inst, yseq, 10_000, seed=22)
        assert abs(k - ref) <= 4.0 * math.hypot(dk, dref), (k, dk, ref, dref)
        # the comparison resolves the term: both error bars are small
        assert math.hypot(dk, dref) <= 0.2 * abs(ref), (k, dk, ref, dref)

    def test_rows_run_in_bounded_chunks(self, monkeypatch):
        # 12 points per row: a budget of 7000 values gives chunks of 48 rows
        inst = make_instance(b_m=0.3)
        yseq = inst.free_rod_ids[:2]
        whole = inst.cluster_term(yseq, 2000, seed=5)
        monkeypatch.setattr(cluster_module, "CHUNK_VALUES", 7000)
        rows = []
        sample_block = inst.sample_block
        monkeypatch.setattr(inst, "sample_block",
                            lambda b, s, z: rows.append(len(z)) or sample_block(b, s, z))
        chunked = inst.cluster_term(yseq, 2000, seed=5)
        assert max(rows) * 12 ** 2 <= 7000 and sum(rows) == 2000, rows
        assert len(rows) == 42
        assert chunked == pytest.approx(whole, rel=1e-12, abs=0.0)

    def test_ratio_f_free_case(self):
        inst = make_instance(b_m=0.0)
        ratio, err = inst.ratio_f((inst.free_rod_ids[0],), 2000, seed=2)
        assert ratio == 1.0 and err == 0.0

    def test_ratio_f_bounds(self):
        inst = make_instance(b_m=0.5, dims=(2,), beta_hat=2.0)
        yseq = (inst.free_rod_ids[0],)
        ratio, err = inst.ratio_f(yseq, 20_000, seed=4)
        # removing two unit rods from the weight can raise it by at most
        # e^(b_m * time-volume of the removed region)
        removed = 2.0
        assert 1.0 < ratio <= math.exp(0.5 * removed)


class TestSharedDraws:
    def test_scrambled_normals_blocks(self):
        z = scrambled_normals(4000, 6, seed=3, n_batches=20)
        assert z.shape == (4000, 6)
        assert np.array_equal(z, scrambled_normals(4000, 6, seed=3, n_batches=20))
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.02
        # each block is its own scramble, not a repeat of the first
        blocks = z.reshape(20, 200, 6)
        assert not np.allclose(blocks[0], blocks[1])

    @pytest.mark.parametrize("dim", [1, 3, 14, 16, 33])
    def test_scrambled_normals_equal_scipy_engines(self, dim):
        for per in (1, 3, 100, 1250):
            for seed in (0, 17, 20_017):
                assert np.array_equal(scrambled_normals(20 * per, dim, seed),
                                      engine_scrambled_normals(20 * per, dim, seed)), (per, seed)

    def test_scrambled_normals_need_whole_blocks(self):
        with pytest.raises(ValueError, match="multiple of 20"):
            scrambled_normals(1010, 3, seed=0, n_batches=20)

    def test_gaussian_bump_mean_matches_quadrature(self):
        x, w = np.polynomial.hermite_e.hermegauss(80)
        for mean, var, delta in [(0.0, 1.0, 1.0), (0.7, 0.3, 2.5), (-1.2, 2.0, 0.4)]:
            phi = mean + math.sqrt(var) * x
            quad = float(np.sum(w * np.exp(-0.5 * delta * phi ** 2)) /
                         math.sqrt(2.0 * math.pi))
            assert gaussian_bump_mean(mean, var, delta) == pytest.approx(quad, rel=1e-12)

    def test_second_step_residual_vanishes_when_free(self):
        inst = make_instance(b_m=0.0)
        assert inst.second_step_residual(2000, seed=1) == (0.0, 0.0)


class TestExpansionIdentity:
    def test_newton_leibniz_split(self):
        inst = make_instance(dims=(1,), n_slices=16, b_m=0.3, J=0.25)
        rep = newton_leibniz_report(inst, n_samples=60_000, seed=11)
        split = rep.split_total()
        gap = abs(rep.direct[0] - split[0])
        assert gap < 4.0 * math.hypot(rep.direct[1], split[1])
        fd_gap = abs(rep.remainder_ibp[0] - rep.remainder_fd[0])
        assert fd_gap < 4.0 * math.hypot(rep.remainder_ibp[1],
                                         rep.remainder_fd[1])

    def test_truncated_expansion_residuals_shrink(self):
        inst = make_instance(dims=(2,), b_m=0.2, delta_m=2.0, a=0.5, J=0.5)
        rep = residual_decay_report(inst, n_max=2, first_step_samples=200_000,
                                    order_samples=20_000, seed=13)
        (hi, dhi), (lo, dlo) = rep.residuals
        assert hi > lo
        assert hi - lo >= 3.0 * math.hypot(dhi, dlo), rep.residuals

    def test_high_temperature_residuals(self):
        # three-column box at small beta: rods are whole site columns, so the
        # expansion ends at order 3 and the order-2 residual is the order-3 term
        lat = Lattice(1, (3,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=0.2, n_slices=4,
                       b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
        inst = ClusterInstance(ensemble=ens, mode=RodMode.HIGH_TEMPERATURE,
                               monomials={ens.grid.point(0, 1): 2})
        rep = residual_decay_report(inst, n_max=3, first_step_samples=200_000,
                                    order_samples=30_000, seed=17)
        vals = [r[0] for r in rep.residuals]
        assert vals[0] > vals[1] > vals[2]
        # every drop is resolved by the error bars, not left to the seed
        for (hi, dhi), (lo, dlo) in zip(rep.residuals, rep.residuals[1:]):
            assert hi - lo >= 3.0 * math.hypot(dhi, dlo), rep.residuals
        # pathwise order-2 residual and measured order-3 term agree
        assert vals[2] <= 3.0 * rep.residuals[2][1], rep.residuals

    def test_engine_rejects_vector_displacements(self):
        lat = Lattice(1, (2,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.3, delta_m=1.0, d=2, bc=periodic_bc())
        with pytest.raises(ValueError, match="scalar"):
            ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                            monomials={0: 2})
