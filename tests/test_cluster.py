import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from anhcrystal import sampler as sampler_module
from anhcrystal.cli import build_ensemble
from anhcrystal.cluster import (ClusterInstance, PolyExp, SymbolicTerm,
                                Tree, _PowerCache, battle_federbush_sum, block_tensor, delta_apply,
                                derivative_ladder, enumerate_trees,
                                evaluate_ladder, evaluate_symbolic, f_factor,
                                gauss_legendre_unit, gaussian_bump_first_moment,
                                gaussian_bump_mean, gaussian_bump_pair_moments,
                                newton_leibniz_report, residual_decay_report)
from anhcrystal.config import DEFAULTS, model_params
from anhcrystal.lattice import Lattice, RodMode
from anhcrystal.potential import nth_derivative
from anhcrystal.sampler import (RQMC_BATCHES, Ensemble, accumulate, jackknife, periodic_bc,
                                plain_stream, reweight_expectation, scrambled_normals)


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
    nodes, weights = gauss_legendre_unit()
    blocks = inst.blocks_for(yseq)
    z = scrambled_normals(n_samples, sum(len(b) for b in blocks), seed).rows(0, n_samples)
    acc = np.zeros(n_samples)
    for combo in itertools.product(range(len(nodes)), repeat=n - 1):
        s = nodes[list(combo)]
        w = float(np.prod(weights[list(combo)]))
        for tree in enumerate_trees(n):
            acc += w * f_factor(tree, s) * inst.i_term(tree, blocks, s, z)
    means = acc.reshape(RQMC_BATCHES, -1).mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(RQMC_BATCHES))


def separate_pass_first_step(inst, n_samples, seed):
    """The first-step residual over Z from a separate ``partition_weight`` pass.

    Plain draws and the plain A e^{-V(T)} at both ends: no control, no shared Z.
    """
    blocks = inst.first_step_blocks

    def weighted_observable(phi):
        out = inst.gibbs_weight(phi, slice(None))
        for col, power in inst.x1_monomials:
            out = out * phi[:, col] ** power
        return out

    def columns(z):
        coupled, cut = (weighted_observable(inst.sample_block(blocks, np.array([s]), z)[1])
                        for s in (1.0, 0.0))
        return len(z), (coupled - cut).sum()

    def draw(rng, n):
        return rng.standard_normal((n, inst.grid.n_points))

    normals = plain_stream(draw, inst.grid.n_points, seed)
    diff, ddiff = jackknife(accumulate(normals, columns, n_samples), lambda c: c[1] / c[0])
    z, dz = inst.partition_weight(n_samples, seed + 1)
    return diff / z, math.hypot(ddiff / z, diff * dz / z ** 2)


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


class TestBlockTensor:
    @pytest.mark.parametrize("n_ends", [0, 1, 2, 3, 4])
    def test_per_point_product_rule(self, n_ends):
        # entry [t_1..t_k] = prod_u q_{r_u}(u), r_u the ends at u; the
        # monomial at point 1 vanishes on the first field, so no division
        rng = np.random.default_rng(n_ends)
        m, mono = 4, [1, 3]
        q = [rng.standard_normal((3, m)) for _ in range(n_ends + 1)]
        q[0][:, [0, 2]] = 1.0
        q[0][0, 1] = 0.0
        tensor = block_tensor(q, mono, n_ends)
        assert tensor.shape == (3,) + (m,) * n_ends
        for ends in itertools.product(range(m), repeat=n_ends):
            expected = np.prod([q[ends.count(u)][:, u] for u in range(m)], axis=0)
            np.testing.assert_allclose(tensor[(slice(None),) + ends], expected,
                                       rtol=1e-14, atol=0)


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

    # the star tree puts three ends on X_1's column, which holds one or two
    # observable points: phi(0, tau_1)^2, then phi(0, tau_1)^2 phi(0, tau_3)
    @pytest.mark.parametrize("monomials", [{1: 2}, {1: 2, 3: 1}],
                             ids=["one-monomial", "two-monomials"])
    def test_high_temperature_order_four(self, monomials):
        lat = Lattice(1, (4,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=0.75, n_slices=4,
                       b_m=0.3, delta_m=1.0, d=1, bc=periodic_bc())
        inst = ClusterInstance(ensemble=ens, mode=RodMode.HIGH_TEMPERATURE,
                               monomials={ens.grid.point(0, sl): power
                                          for sl, power in monomials.items()})
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
        val, err = inst.cluster_term((), 40_000, seed=3)
        pt = next(iter(inst.monomials))
        site, _ = divmod(pt, inst.grid.n_slices)
        exact = inst.ensemble.kernel.closed((site,), (site,), 0.0)
        assert abs(val - exact) < 4 * err

    def test_higher_orders_vanish_exactly_when_free(self):
        inst = make_instance(b_m=0.0)
        for yseq in ((inst.free_rod_ids[0],), inst.free_rod_ids[:2]):
            val, err = inst.cluster_term(yseq, 2000, seed=1)
            assert val == 0.0 and err == 0.0

    def test_first_step_residual_vanishes_when_free(self):
        # the coupled and cut kernels share X_1's Cholesky corner, so at b_m = 0
        # both ends see the same X_1 field on every row and the weight is 1
        inst = make_instance(b_m=0.0)
        assert inst.first_step_residual(2000, seed=1)[:2] == (0.0, 0.0)

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
        # 12 points per cluster-term row: a budget of 7000 values allows 48
        # rows, so each 100-row scramble runs in pieces of 48, 48 and 4; a
        # budget of 30,000 values allows 208 rows, which hold two whole
        # scrambles.  R2's rows count 32 values (16 normals and a field), and
        # every field, block factor and conditional mean it scores stays
        # within the budget
        inst = make_instance(b_m=0.3)
        yseq = inst.free_rod_ids[:2]
        whole = inst.cluster_term(yseq, 2000, seed=5)
        whole_r2 = inst.second_step_residual(2000, seed=3)
        rows, sizes = [], []
        sample_block = inst.sample_block
        monkeypatch.setattr(inst, "sample_block",
                            lambda b, s, z: rows.append(len(z)) or sample_block(b, s, z))
        for name in ("_contract", "_gibbs_factors", "gibbs_weight"):
            method = getattr(inst, name)
            monkeypatch.setattr(inst, name, lambda *args, _method=method: sizes.extend(
                a.size for a in args if isinstance(a, np.ndarray)) or _method(*args))
        for budget, chunks in ((7000, [48, 48, 4] * 20), (30_000, [200] * 10)):
            monkeypatch.setattr(sampler_module, "CHUNK_VALUES", budget)
            rows.clear()
            chunked = inst.cluster_term(yseq, 2000, seed=5)
            assert rows == chunks
            assert chunked == pytest.approx(whole, rel=1e-12, abs=0.0)
            sizes.clear()
            chunked = inst.second_step_residual(2000, seed=3)
            assert inst.grid.n_points == 16 and max(sizes) <= budget, (budget, max(sizes))
            assert chunked == pytest.approx(whole_r2, rel=1e-12, abs=0.0)

    def test_leaf_control_has_zero_mean(self):
        # at one s and fixed normals of X_1 and Y_2, the leaf tensor with its
        # control differs from e^{-V(Y_3)} q_1(phi) by q_1(phi) - E[q_1 | z_pre]
        # times the leaf's mean-field Gibbs factor, a constant here,
        # which averages to zero over the leaf's own normals; at this s the
        # earlier blocks carry 6 % of the leaf's variance, so its unconditional
        # variance would miss by about 6 sigma
        inst = make_instance(b_m=0.3, delta_m=2.0)
        blocks = inst.blocks_for(inst.free_rod_ids[:2])
        lead = len(blocks[0]) + len(blocks[1])
        root = np.linalg.cholesky(inst.block_matrix(blocks, np.array([[0.9, 0.9]]))[1][0])
        rng = np.random.default_rng(41)
        n_rows, n_pts = 200_000, len(root)
        z = np.empty((n_rows, n_pts))
        z[:, :lead] = rng.standard_normal(lead)
        z[:, lead:] = rng.standard_normal((n_rows, n_pts - lead))
        phi = z @ root.T
        leaf, _ = inst._tail_tensors(np.broadcast_to(root, (n_rows, n_pts, n_pts)), z, phi,
                                     None, lead)
        q1 = derivative_ladder(0, 1, inst.gibbs_weight_coeff, inst.ensemble.delta_m)[1]
        plain = q1(phi[:, lead:]) * inst.gibbs_weight(phi, slice(lead, None))[:, None]
        control = plain - leaf
        sigma = control.std(axis=0) / math.sqrt(n_rows)
        assert np.all(np.abs(control.mean(axis=0)) <= 4.0 * sigma), control.mean(axis=0) / sigma
        assert np.all(sigma <= 0.01 * plain.std(axis=0)), (sigma, plain.std(axis=0))

    @pytest.mark.parametrize("order", [1, 2])
    def test_rest_control_has_zero_mean(self, order):
        # the coupled end of R_1 (blocks [X_1, rest], s = 1) and of R_2 (blocks
        # [X_1, Y_2, rest], s = (node, 1)), at fixed normals of X_n: the rest
        # block's factor differs from e^{-V(rest)} by b c sum of
        # (bump - E[bump | z_Xn]), b the block's mean-field Gibbs factor, a
        # constant here, so the difference averages to zero over the rest's
        # own normals; for R_2, b = exp(-c sum of bump), read off the row's own
        # normals, misses by about 47 sigma
        inst = make_instance(b_m=0.3, delta_m=2.0)
        yseq = inst.free_rod_ids[:order - 1]
        rest = [r for r in inst.free_rod_ids if r not in yseq]
        blocks = inst.blocks_for(yseq) + [np.concatenate([inst.rod_points[r] for r in rest])]
        lead = sum(len(b) for b in blocks[:-1])
        s = (gauss_legendre_unit()[0][5],) * (order - 1) + (1.0,)
        root = np.linalg.cholesky(inst.block_matrix(blocks, s)[1])
        rng = np.random.default_rng(53)
        n_rows, n_pts = 200_000, len(root)
        z = np.empty((n_rows, n_pts))
        z[:, :lead] = rng.standard_normal(lead)
        z[:, lead:] = rng.standard_normal((n_rows, n_pts - lead))
        phi = z @ root.T
        plain, mean_field, _, control = inst._gibbs_factors(
            phi[:, lead:], z[:, :lead] @ root[lead:, :lead].T,
            np.sum(root[lead:, lead:] ** 2, axis=1))
        control = mean_field * control
        sigma = control.std() / math.sqrt(n_rows)
        assert abs(control.mean()) <= 4.0 * sigma, control.mean() / sigma
        assert sigma <= 0.01 * plain.std(), (sigma, plain.std())
        np.testing.assert_array_equal(plain, inst.gibbs_weight(phi, slice(lead, None)))

    def test_pair_control_has_zero_mean(self):
        # at one s and fixed normals of X_1, entry [y, w] of the pair control is
        # b (M - X^(k)(phi_y) g(mu_w)), with M the closed-form mean and b the
        # two blocks' mean-field Gibbs factor given those normals: b and M are
        # the same on every row, and the plain product averages to M over the
        # normals of Y_2 and Y_3, resolved to 5 % of M.  A strong coupling
        # makes the leaf's conditional mean large enough that the Gaussian
        # tilt of g (kappa = delta / spread) is resolved too
        inst = make_instance(b_m=0.3, delta_m=2.0, J=1.0)
        blocks = inst.blocks_for(inst.free_rod_ids[:2])
        mid, lead = len(blocks[0]), len(blocks[0]) + len(blocks[1])
        root = np.linalg.cholesky(inst.block_matrix(blocks, np.array([[0.9, 0.9]]))[1][0])
        rng = np.random.default_rng(43)
        n_rows, n_pts = 200_000, len(root)
        z = np.empty((n_rows, n_pts))
        z[:, :mid] = rng.standard_normal(mid)
        z[:, mid:] = rng.standard_normal((n_rows, n_pts - mid))
        phi = z @ root.T
        _, pair = inst._tail_tensors(np.broadcast_to(root, (n_rows, n_pts, n_pts)), z, phi,
                                     mid, lead)
        c, delta = inst.gibbs_weight_coeff, inst.ensemble.delta_m
        g = c * delta * gaussian_bump_first_moment(z[:, :lead] @ root[lead:, :lead].T,
                                                   np.sum(root[lead:, lead:] ** 2, axis=1), delta)
        own = np.sum(root[mid:, mid:] ** 2, axis=1)   # variances given X_1's normals
        mean_field = math.exp(-c * np.sum(gaussian_bump_mean(root[mid:, :mid] @ z[0, :mid],
                                                             own, delta)))
        for k, factor in ((1, inst.xprime), (2, inst.xprime.deriv())):
            plain = factor(phi[:, mid:lead])[:, :, None] * g[:, None, :]
            mean = pair[k] / mean_field + plain
            scale = np.abs(mean).max()
            assert np.ptp(mean, axis=0).max() <= 1e-12 * scale, k
            sigma = plain.std(axis=0) / math.sqrt(n_rows)
            assert np.all(np.abs(plain.mean(axis=0) - mean[0]) <= 4.0 * sigma), k
            assert 4.0 * sigma.max() <= 0.05 * scale, (k, sigma.max(), scale)

    def test_pair_contraction_puts_ends_on_one_point(self):
        # with a zero leaf only the pair term is left; against a contraction
        # where Y_{n-1}'s two ends carry their own letters, through a pair
        # tensor that is diagonal in them, for every tree of orders 3 and 4
        inst = make_instance(dims=(4,), beta_hat=0.2, n_slices=4, delta_m=1.0,
                             mode=RodMode.HIGH_TEMPERATURE, tau=0.05)
        rng = np.random.default_rng(47)
        for yseq in ((1, 2), (2, 3, 1)):
            n, blocks = len(yseq) + 1, inst.blocks_for(yseq)
            m_mid, m_leaf = len(blocks[-2]), len(blocks[-1])
            phi = rng.standard_normal((5, sum(len(b) for b in blocks)))
            pair = {k: rng.standard_normal((5, m_mid, m_leaf)) for k in (1, 2)}
            trees = enumerate_trees(n)
            got, _ = inst._contract(trees, blocks, phi, np.zeros((5, m_leaf)), pair)
            diagonal = np.zeros((5, m_mid, m_mid, m_leaf))
            diagonal[:, np.arange(m_mid), np.arange(m_mid)] = pair[2]
            for tree, value in zip(trees, got):
                lines = [(tree.eta(l) - 1, l - 1) for l in range(2, n + 1)]
                letters = ["".join("abcdefgh"[2 * li + side] for li, line in enumerate(lines)
                                   for side in (0, 1) if line[side] == bi)
                           for bi in range(n)]
                operands, subscripts = [], []
                edges = np.cumsum([0] + [len(b) for b in blocks])
                for bi in range(n - 2):
                    q = inst._block_q(_PowerCache(phi[:, edges[bi]:edges[bi + 1]], 1.0),
                                      blocks[bi], len(letters[bi]))
                    operands.append(block_tensor(*q, len(letters[bi])))
                    subscripts.append("n" + letters[bi])
                operands.append(diagonal if len(letters[-2]) == 2 else pair[1])
                subscripts.append("n" + letters[-2] + letters[-1])
                for li, (pa, pb) in enumerate(lines):
                    operands.append(inst.full_matrix[np.ix_(blocks[pa], blocks[pb])])
                    subscripts.append("abcdefgh"[2 * li:2 * li + 2])
                want = np.einsum(",".join(subscripts) + "->n", *operands)
                np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0)

    def test_second_step_memory_does_not_grow_with_rows(self, monkeypatch):
        # 64 points, chunks of 1000 rows: four times the rows, the same peak;
        # a first small call fills the caches (scipy's Sobol direction table)
        inst = make_instance(n_slices=32, b_m=0.3)
        monkeypatch.setattr(sampler_module, "CHUNK_VALUES", 64 * 1000)
        inst.second_step_residual(20, seed=9)
        peaks = []
        for n_samples in (1000, 4000):
            tracemalloc.start()
            try:
                inst.second_step_residual(n_samples, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert inst.grid.n_points == 64 and peaks[1] <= 1.2 * peaks[0], peaks

    def test_ratio_f_free_case(self):
        inst = make_instance(b_m=0.0)
        sums = inst.ratio_table([(inst.free_rod_ids[0],)], 2000, seed=2)
        ratio, err = jackknife(sums, lambda c: c[1] / c[0])
        assert ratio == 1.0 and err == 0.0

    def test_ratio_f_bounds(self):
        inst = make_instance(b_m=0.5, dims=(2,), beta_hat=2.0)
        sums = inst.ratio_table([(inst.free_rod_ids[0],)], 20_000, seed=4)
        ratio, err = jackknife(sums, lambda c: c[1] / c[0])
        # removing two unit rods from the weight can raise it by at most
        # e^(b_m * time-volume of the removed region)
        removed = 2.0
        assert 1.0 < ratio <= math.exp(0.5 * removed)


class TestSharedDraws:
    def test_scrambled_normals_blocks(self):
        z = scrambled_normals(4000, 6, seed=3).rows(0, 4000)
        assert z.shape == (4000, 6)
        assert np.array_equal(z, scrambled_normals(4000, 6, seed=3).rows(0, 4000))
        assert abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.02
        # each block is its own scramble, not a repeat of the first
        blocks = z.reshape(20, 200, 6)
        assert not np.allclose(blocks[0], blocks[1])

    @pytest.mark.parametrize("dim", [1, 3, 14, 16, 33])
    def test_scrambled_normals_equal_scipy_engines(self, dim):
        for per in (1, 3, 100, 1250):
            for seed in (0, 17, 20_017):
                assert np.array_equal(scrambled_normals(20 * per, dim, seed).rows(0, 20 * per),
                                      engine_scrambled_normals(20 * per, dim, seed)), (per, seed)

    def test_scrambled_rows_resume_anywhere(self):
        # rows asked for as whole blocks, or as a piece of one block starting
        # anywhere in it, are the rows of the whole sequence
        for per, dim in ((100, 5), (1250, 3), (1, 4)):
            whole = engine_scrambled_normals(20 * per, dim, seed=7)
            rows = scrambled_normals(20 * per, dim, seed=7).rows
            for lo, hi in ((0, 20 * per), (3 * per, 7 * per), (19 * per, 20 * per)):
                assert np.array_equal(rows(lo, hi), whole[lo:hi]), (per, lo, hi)
            rng = np.random.default_rng(per)
            for b in (0, 4, 9, 13, 19):
                lo = b * per + rng.integers(per)
                hi = rng.integers(lo + 1, (b + 1) * per + 1)
                assert np.array_equal(rows(lo, hi), whole[lo:hi]), (per, lo, hi)

    def test_scrambled_normals_need_whole_blocks(self):
        with pytest.raises(ValueError, match="multiple of 20"):
            scrambled_normals(1010, 3, seed=0)

    def test_scrambled_set_up_memory_does_not_grow_with_rows(self):
        # 2,000,000 rows give 2^17 rows a scramble: the direction numbers are
        # read off 17 unscrambled Sobol points, not all 2^17 of them (34 MB)
        scrambled_normals(20, 16, seed=1)  # scipy's one-time tables
        sampler_module._sobol_directions.cache_clear()
        tracemalloc.start()
        try:
            scrambled_normals(2_000_000, 16, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, peak

    def test_gaussian_bump_mean_matches_quadrature(self):
        x, w = np.polynomial.hermite_e.hermegauss(80)
        for mean, var, delta in [(0.0, 1.0, 1.0), (0.7, 0.3, 2.5), (-1.2, 2.0, 0.4)]:
            phi = mean + math.sqrt(var) * x
            quad = float(np.sum(w * np.exp(-0.5 * delta * phi ** 2)) /
                         math.sqrt(2.0 * math.pi))
            assert gaussian_bump_mean(mean, var, delta) == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("mean", [0.0, 0.4, -1.3, 3.0])
    @pytest.mark.parametrize("var, delta", [(1.0, 1.0), (0.3, 2.5), (2.0, 0.4), (0.01, 5.0),
                                            (40.0, 5.0), (1e-4, 0.5)])
    def test_gaussian_bump_first_moment_matches_quadrature(self, mean, var, delta):
        # E[phi exp(-delta phi^2 / 2)] for phi ~ N(mean, var), by Gauss-Hermite
        # quadrature against the narrower of the two Gaussian factors, so a
        # wide field over a narrow bump (delta var = 200) is resolved too
        x, w = np.polynomial.hermite_e.hermegauss(120)
        w = w / math.sqrt(2.0 * math.pi)
        if delta * var <= 1.0:
            phi = mean + math.sqrt(var) * x
            quad = np.sum(w * phi * np.exp(-0.5 * delta * phi ** 2))
        else:
            phi = x / math.sqrt(delta)
            density = np.exp(-0.5 * (phi - mean) ** 2 / var) / math.sqrt(var * delta)
            quad = np.sum(w * phi * density)
        got = gaussian_bump_first_moment(mean, var, delta)
        assert got == pytest.approx(float(quad), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mean_a, mean_b", [(0.0, 0.0), (0.4, -0.7), (-1.3, 0.2),
                                                (1.0, 1.5)])
    @pytest.mark.parametrize("var_a, var_b, rho, delta_a, delta_b", [
        (1.0, 1.0, 0.5, 1.0, 1.0), (0.3, 0.8, -0.9, 2.5, 0.7), (2.0, 0.5, 0.2, 0.4, 2.0),
        (0.05, 1.5, 0.99, 5.0, 0.3)])
    def test_gaussian_bump_pair_moments_match_quadrature(self, mean_a, mean_b, var_a, var_b,
                                                         rho, delta_a, delta_b):
        # correlated pairs, by Gauss-Hermite quadrature in whitened coordinates
        x, w = np.polynomial.hermite_e.hermegauss(100)
        w = w / math.sqrt(2.0 * math.pi)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        cov = rho * math.sqrt(var_a * var_b)
        a = mean_a + math.sqrt(var_a) * x1
        b = mean_b + cov / math.sqrt(var_a) * x1 + math.sqrt(var_b - cov ** 2 / var_a) * x2
        weight = np.outer(w, w) * b * np.exp(-0.5 * (delta_a * a ** 2 + delta_b * b ** 2))
        got = gaussian_bump_pair_moments(mean_a, mean_b, var_a, var_b, cov, delta_a, delta_b)
        for value, poly in zip(got, (a, 1.0 - delta_a * a ** 2)):
            assert value == pytest.approx(float(np.sum(weight * poly)), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("mean_a, mean_b", [(0.0, 0.0), (0.4, -0.7), (-3.0, 2.0)])
    @pytest.mark.parametrize("var_a, var_b, delta_a, delta_b", [
        (1.0, 1.0, 1.0, 1.0), (40.0, 0.3, 5.0, 2.0), (0.2, 100.0, 0.5, 2.0), (1.5, 0.0, 2.0, 1.0)])
    def test_gaussian_bump_pair_moments_factor_when_independent(self, mean_a, mean_b, var_a,
                                                                var_b, delta_a, delta_b):
        # uncorrelated pairs, wide fields over narrow bumps (delta var = 200) and a
        # fixed b (var_b = 0) included: the moments are products of one-point ones,
        # E[(1 - delta a^2) exp(-delta a^2 / 2)] the mean-derivative of E[a exp(...)]
        got = gaussian_bump_pair_moments(mean_a, mean_b, var_a, var_b, 0.0, delta_a, delta_b)
        spread = 1.0 + delta_a * var_a
        second_a = ((1.0 - delta_a * mean_a ** 2 / spread) / spread
                    * gaussian_bump_mean(mean_a, var_a, delta_a))
        b = gaussian_bump_first_moment(mean_b, var_b, delta_b)
        want = (gaussian_bump_first_moment(mean_a, var_a, delta_a) * b, second_a * b)
        for value, ref in zip(got, want):
            assert value == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_second_step_residual_vanishes_when_free(self):
        inst = make_instance(b_m=0.0)
        assert inst.second_step_residual(2000, seed=1) == (0.0, 0.0)

    def test_residuals_vanish_when_the_rods_tile_the_box(self):
        # criterion 7's one-site box has one free rod: Y_2 leaves no rest
        # block, so R_2 is exactly 0; with one rod per site, X_1 is the box,
        # R_1 is exactly 0 and direct equals the order-1 term
        inst = make_instance(dims=(1,), n_slices=16)
        assert len(inst.free_rod_ids) == 1
        assert inst.second_step_residual(2000, seed=1) == (0.0, 0.0)
        inst = make_instance(dims=(1,), beta_hat=1.0)
        assert inst.free_rod_ids == ()
        resid, dresid, direct, ddirect, term_one, dterm_one = inst.first_step_residual(2000, 1)
        assert (resid, dresid) == (0.0, 0.0)
        assert (direct, ddirect) == (term_one, dterm_one) and ddirect > 0.0


class TestExpansionIdentity:
    def test_newton_leibniz_split(self):
        inst = make_instance(dims=(1,), n_slices=16, b_m=0.3, J=0.25)
        rep = newton_leibniz_report(inst, n_samples=60_000, seed=11)
        # R_1 = direct - term one on common draws, and the integration-by-parts
        # remainder on draws of its own, agree and are resolved
        (r1, dr1), (ibp, dibp) = rep.remainder, rep.remainder_ibp
        sigma = math.hypot(dr1, dibp)
        assert abs(r1 - ibp) <= 4.0 * sigma, rep
        assert sigma <= 0.1 * abs(r1), rep
        assert r1 == pytest.approx(rep.direct[0] - rep.term_one[0], rel=1e-12)

    @pytest.mark.parametrize("dims", [(1,), (2,)], ids=["one-site", "two-site"])
    def test_order_one_term_factorizes(self, dims):
        # K_1 F_1 from order_contribution (block draws of X_1, reference draws
        # for F) against the cut end of first_step_residual, E_0[A e^-V] / Z
        inst = make_instance(dims=dims, n_slices=16 if dims == (1,) else 8, b_m=0.3)
        value, err = inst.order_contribution(1, 200_000, seed=31)
        cut, dcut = inst.first_step_residual(200_000, seed=32)[4:]
        sigma = math.hypot(err, dcut)
        assert abs(value - cut) <= 4.0 * sigma, (value, err, cut, dcut)
        assert sigma <= 0.01 * abs(cut), (value, err, cut, dcut)

    def test_first_step_shares_the_reference_measure(self):
        # the coupled end of first_step_residual is the reference kernel, so its
        # self-normalised direct value is the reweighted expectation of A on
        # FFT draws, and dividing by a separate Z pass gives the same residual
        inst = make_instance(b_m=0.3)
        resid, dresid, direct, ddirect, _, _ = inst.first_step_residual(100_000, seed=23)
        (pt, power), = inst.monomials.items()
        ref = reweight_expectation(inst.ensemble,
                                   lambda phi: phi.reshape(len(phi), -1)[:, pt] ** power,
                                   100_000, seed=24)
        assert abs(direct - ref.mean) <= 4.0 * math.hypot(ddirect, ref.stderr), (direct, ref)
        sep, dsep = separate_pass_first_step(inst, 100_000, seed=25)
        assert abs(resid - sep) <= 4.0 * math.hypot(dresid, dsep), (resid, dresid, sep, dsep)
        # both comparisons resolve the values they compare
        assert math.hypot(ddirect, ref.stderr) <= 0.01 * direct
        assert math.hypot(dresid, dsep) <= 0.2 * abs(resid)

    def test_truncated_expansion_residuals_shrink(self):
        inst = make_instance(dims=(2,), b_m=0.2, delta_m=2.0, a=0.5, J=0.5)
        rep = residual_decay_report(inst, n_max=2, first_step_samples=200_000,
                                    order_samples=20_000, seed=13)
        (hi, dhi), (lo, dlo) = rep.residuals
        assert hi > lo
        assert hi - lo >= 3.0 * math.hypot(dhi, dlo), rep.residuals

    def test_default_box_resolves_the_order_two_drop(self):
        # the CLI's default box (8 sites x 32 slices, default parameters and
        # seed), whose rest blocks have mean-field Gibbs factors near 0.003:
        # R2's control must scale with that factor, or R2's own noise hides
        # the R1 -> R2 drop
        cfg = dict(DEFAULTS)
        ens = build_ensemble(model_params(cfg), cfg)
        inst = ClusterInstance(ensemble=ens, mode=RodMode(cfg["mode"]),
                               monomials={ens.grid.point(0, ens.grid.slice_of(0.5)): 2})
        assert ens.grid.n_points == 8 * 32
        r1, dr1 = inst.first_step_residual(20_000, cfg["seed"])[:2]
        r2, dr2 = inst.second_step_residual(2000, cfg["seed"] + 20_000)
        assert abs(r1) - abs(r2) >= 3.0 * math.hypot(dr1, dr2), (r1, dr1, r2, dr2)

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
        # pathwise order-2 residual and measured order-3 term agree, and the
        # comparison resolves the order-3 term
        assert vals[2] <= 3.0 * rep.residuals[2][1], rep.residuals
        assert rep.residuals[2][1] <= 0.05 * abs(rep.orders[2][0]), (rep.residuals, rep.orders)

    def test_engine_rejects_vector_displacements(self):
        lat = Lattice(1, (2,))
        ens = Ensemble(lattice=lat, a=1.0, J=0.25, beta_hat=2.0, n_slices=8,
                       b_m=0.3, delta_m=1.0, d=2, bc=periodic_bc())
        with pytest.raises(ValueError, match="scalar"):
            ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                            monomials={0: 2})


class TestPinnedOutputs:
    """Criterion 8's instance at pinned seeds, against recorded values.

    The values were recorded when ``cluster_term`` and ``second_step_residual``
    still summed their scrambles by hand.  R2's one chunk and the order-1 and
    order-2 chunks kept their rows, so those errors match exactly; the
    cluster-term means are now the jackknife's ratio of summed batch sums,
    not the mean of every row, and the order-3 chunks moved, where einsum
    may contract in another order: those match to 1e-12.  The order-2 and
    order-3 cluster terms and ``order_contribution(3, ...)`` were recorded
    again when the leaf factor of every term took its conditional-mean
    control, and from order 3 on the pair control of Y_{n-1} and the leaf;
    order 1 has no leaf and kept its values.  R2 was recorded again when its
    rest-block control took the mean-field coefficient b of the leaf's
    control in place of 1: 5.8603e-4 +- 1.53e-5 before, on the same rows,
    0.25 of that stderr away.  Every Gibbs weight was recorded again when
    ``_bump_weight`` came to scale each row's sum of bumps, not every bump:
    R2's stderr moved in its last bits.  R1 and the Newton-Leibniz report were
    recorded again when their normals became scrambled Sobol rows, new
    random streams: each new value lies within 1.4 of the old plain-draw
    stderr of the old value, and the new stderrs are 0.07-0.5 of the old.
    R1 and R2 were recorded again when they became the n = 1 and n = 2 cases
    of one telescoped loop: R1's rest block took the mean-field control at
    both ends, a new estimator on the same rows, z = (new - old) / old
    stderr of 2.22 for R1, 0.43 for direct and -0.66 for the order-1 term,
    with R1's stderr 0.24 of the old; in the Newton-Leibniz report direct,
    the order-1 term and R1 moved by 0.34, 0.41 and -0.11 (R1's stderr 0.15
    of the old), and the integration-by-parts remainder kept its bits.  R2's
    rest control now sums the bumps and their conditional means once each,
    which moved R2 in its last bit (5.898026069309495e-4 +- 1.621749268372495e-5
    before).  All of these match exactly.
    """

    @pytest.fixture(scope="class")
    def inst(self):
        ens = Ensemble(lattice=Lattice(1, (2,)), a=0.5, J=0.5, beta_hat=2.0, n_slices=8,
                       b_m=0.1, delta_m=5.0, d=1, bc=periodic_bc())
        return ClusterInstance(ensemble=ens, mode=RodMode.LOW_TEMPERATURE,
                               monomials={ens.grid.point(0, 2): 2})

    @pytest.mark.parametrize("yseq, n_samples, seed, value, stderr, moved", [
        ((), 2000, 5, 0.746646434748595, 0.005825346690220695, False),
        ((1,), 4000, 7, 0.013990862551699138, 0.0001010725723713519, False),
        ((1, 2), 4000, 9, 4.933476694044841e-05, 1.7441987667697744e-06, True),
    ])
    def test_cluster_term(self, inst, yseq, n_samples, seed, value, stderr, moved):
        k, dk = inst.cluster_term(yseq, n_samples, seed)
        assert k == pytest.approx(value, rel=1e-12, abs=0.0)
        assert dk == (pytest.approx(stderr, rel=1e-12, abs=0.0) if moved else stderr)

    def test_second_step_residual(self, inst):
        assert inst.second_step_residual(4000, 20_017) == (0.0005898026069309496,
                                                           1.6217492683724964e-05)

    def test_order_three(self, inst):
        # with the leaf control and the pair control of Y_2 and the leaf:
        # 4.1309e-4 +- 1.982e-4 with the plain leaf factor, 0.90 sigma away
        value, stderr = inst.order_contribution(3, 2000, 271)
        assert value == pytest.approx(0.000591611015925415, rel=1e-12, abs=0.0)
        assert stderr == pytest.approx(5.854919728754357e-06, rel=1e-12, abs=0.0)

    def test_first_step_residual(self, inst):
        assert inst.first_step_residual(20_000, 17) == (
            0.03213516489892918, 0.00010666015313541852, 0.8049161841037512,
            0.0009465054627181186, 0.7727810192048221, 0.0008445189870596982)

    def test_newton_leibniz_report(self, inst):
        rep = newton_leibniz_report(inst, 20_000, 11)
        assert (rep.direct, rep.term_one, rep.remainder, rep.remainder_ibp) == (
            (0.8059867441647592, 0.00064000197670678),
            (0.7738035586623955, 0.0005617453623363238),
            (0.0321831855023634, 9.341629848248167e-05),
            (0.031819037250453326, 0.0002898446495889996))
