"""Rod-cluster expansion: trees, interpolation integrals, and term evaluation.

The expectation of a local observable A under the perturbed measure expands
into a sum over ordered rod sequences (Y_2, ..., Y_n) and attachment trees
eta (eta(l) < l) of

    K = integral over (s)_{n-1} of f(eta; s) * I_n(s),          times
    F_n = Z(X_n complement) / Z,

where I_n applies the chained derivative operators

    D_{p,p'} = sum_{t in Y_p, t' in Y_p'} G(t, t') d^2/dphi(t) dphi(t')

to A * exp(-V(X_n)) and integrates against the interpolated Gaussian whose
couplings between blocks l < m carry the weight s_l ... s_{m-1}.  The tree
factor is f(eta; s) = prod_m s_{eta(m)} ... s_{m-2}, and the order-1 term is
the plain block expectation of A exp(-V(X_1)).

K is estimated by randomized quasi-Monte Carlo over (s, z) jointly: each row
of a scrambled Sobol sequence gives one s and the normals z of one draw from
the interpolated Gaussian on the blocks' own points, and every tree of a rod
sequence is scored on the same rows with its per-row weight f(eta; s).

On the grid every functional identity becomes an exact finite-dimensional
Gaussian integration-by-parts identity, which is what the verification suite
exploits.  Two independent evaluators are provided: a symbolic expansion into
per-point derivative factors (readable, exponential in the grid size) and a
vectorized tensor contraction over rod placements; tests pin them against
each other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc

from .covariance import p_matrix
from .grid import FieldGrid
from .lattice import RodMode, RodPartition, rod_partition
from .sampler import (CHUNK_VALUES, N_BATCHES, Ensemble, accumulate, jackknife,
                      jackknife_replicates, replicate_stderr)

MAX_TREE_ORDER = 8
MAX_BF_ORDER = 7
ORDER_CAP = {RodMode.LOW_TEMPERATURE: 3, RodMode.HIGH_TEMPERATURE: 4}
GL_NODES = 8
RQMC_BATCHES = 20
_LETTERS = "abcdefgh"  # einsum subscripts of line ends; "n" is the batch axis


# -- trees ---------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """Attachment map of an expansion term: vertex l >= 2 hangs on parent[l-2] < l."""

    parent: tuple[int, ...]

    def __post_init__(self):
        for l, p in enumerate(self.parent, start=2):
            if not (1 <= p < l):
                raise ValueError("tree parents must satisfy eta(l) < l")

    @property
    def order(self) -> int:
        return len(self.parent) + 1

    def eta(self, l: int) -> int:
        return self.parent[l - 2]

    @property
    def incidence_counts(self) -> tuple[int, ...]:
        """d(k): number of later vertices attached to vertex k; sums to order-1."""
        counts = [0] * self.order
        for p in self.parent:
            counts[p - 1] += 1
        return tuple(counts)


def enumerate_trees(n: int) -> list[Tree]:
    """All (n-1)! attachment maps of order n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_TREE_ORDER:
        raise ValueError(f"tree enumeration capped at order {MAX_TREE_ORDER}")
    if n == 1:
        return [Tree(parent=())]
    return [Tree(parent=p)
            for p in itertools.product(*(range(1, l) for l in range(2, n + 1)))]


def f_factor(tree: Tree, s):
    """Interpolation weight prod_m s_eta(m) ... s_{m-2} (empty products are 1) per row of s."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1] != tree.order - 1:
        raise ValueError("need one s parameter per expansion step")
    return np.prod(s ** np.array(_s_exponents(tree)), axis=-1)


def _s_exponents(tree: Tree) -> list[int]:
    expo = [0] * (tree.order - 1)
    for m in range(2, tree.order + 1):
        for k in range(tree.eta(m), m - 1):
            expo[k - 1] += 1
    return expo


def battle_federbush_sum(n: int, with_factorials: bool = True) -> Fraction:
    """Exact tree sum sum_eta prod_k d(k)! * integral of f over [0,1]^(n-1).

    Each integral is a product of 1/(exponent+1) factors, so the value is an
    exact rational.  With factorials the sum stays below 4^n; without them
    (the variant behind field analyticity) below e^n.
    """
    if not (2 <= n <= MAX_BF_ORDER):
        raise ValueError(f"supported orders are 2..{MAX_BF_ORDER}")
    total = Fraction(0)
    for tree in enumerate_trees(n):
        integral = Fraction(1)
        for e in _s_exponents(tree):
            integral *= Fraction(1, e + 1)
        weight = Fraction(1)
        if with_factorials:
            for dk in tree.incidence_counts:
                weight *= math.factorial(dk)
        total += weight * integral
    return total


# -- symbolic univariate factors -------------------------------------------------


class PolyExp:
    """Finite sum of c * y^a * exp(-k * delta_m * y^2 / 2), closed under d/dy.

    These are exactly the per-point factors left behind when grid derivatives
    act on monomials times the per-point Gibbs factor exp(X(y)) with
    X(y) = -w exp(-delta_m y^2 / 2): writing factor = q(y) exp(X(y)), each
    derivative maps q -> q' + q X', and X'(y) = w delta_m y exp(-delta_m y^2/2)
    lives in the class.
    """

    __slots__ = ("terms", "delta_m")

    def __init__(self, terms: dict, delta_m: float):
        self.terms = {key: c for key, c in terms.items() if c != 0.0}
        self.delta_m = delta_m

    @classmethod
    def monomial(cls, power: int, delta_m: float) -> "PolyExp":
        return cls({(power, 0): 1.0}, delta_m)

    @classmethod
    def gibbs_prime(cls, weight: float, delta_m: float) -> "PolyExp":
        """X'(y) for X(y) = -weight * exp(-delta_m y^2 / 2)."""
        return cls({(1, 1): weight * delta_m}, delta_m)

    def deriv(self) -> "PolyExp":
        out: dict = {}
        for (a, k), c in self.terms.items():
            if a >= 1:
                out[(a - 1, k)] = out.get((a - 1, k), 0.0) + c * a
            out[(a + 1, k)] = out.get((a + 1, k), 0.0) - c * k * self.delta_m
        return PolyExp(out, self.delta_m)

    def mul(self, other: "PolyExp") -> "PolyExp":
        out: dict = {}
        for (a1, k1), c1 in self.terms.items():
            for (a2, k2), c2 in other.terms.items():
                key = (a1 + a2, k1 + k2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return PolyExp(out, self.delta_m)

    def add(self, other: "PolyExp") -> "PolyExp":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return PolyExp(out, self.delta_m)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return _eval_terms(self.terms, self.delta_m, y, _PowerCache(y, self.delta_m))


class _PowerCache:
    """Shared powers of y and of the Gaussian factor exp(-delta_m y^2 / 2)."""

    def __init__(self, y: np.ndarray, delta_m: float):
        self.ypow = {1: y}
        self.epow: dict = {}
        self.y = y
        self.delta_m = delta_m

    def power(self, a: int) -> np.ndarray:
        if a not in self.ypow:
            self.ypow[a] = self.power(a - 1) * self.y
        return self.ypow[a]

    def gaussian(self, k: int) -> np.ndarray:
        if 1 not in self.epow:
            # the expression of ClusterInstance.gibbs_weight, so the two agree bit for bit
            self.epow[1] = np.exp(-0.5 * self.delta_m * self.power(2))
        if k not in self.epow:
            self.epow[k] = self.epow[k - 1] * self.epow[1]
        return self.epow[k]


def _eval_terms(terms: dict, delta_m: float, y: np.ndarray,
                cache: _PowerCache) -> np.ndarray:
    out = np.zeros_like(y)
    for (a, k), c in terms.items():
        term = c * cache.power(a) if a else np.full_like(y, c)
        if k:
            term = term * cache.gaussian(k)
        out += term
    return out


@functools.lru_cache(maxsize=256)
def derivative_ladder(power: int, n_max: int, weight: float, delta_m: float) -> tuple[PolyExp, ...]:
    """q_r = (d^r/dy^r [y^power e^X]) / e^X for r = 0..n_max (cached; do not mutate)."""
    xprime = PolyExp.gibbs_prime(weight, delta_m)
    ladder = [PolyExp.monomial(power, delta_m)]
    for _ in range(n_max):
        q = ladder[-1]
        ladder.append(q.deriv().add(q.mul(xprime)))
    return tuple(ladder)


def evaluate_ladder(ladder, y: np.ndarray,
                    cache: _PowerCache | None = None) -> list[np.ndarray]:
    """Evaluate every ladder member at y with shared power/Gaussian caches (y's ``cache``)."""
    cache = cache or _PowerCache(y, ladder[0].delta_m)
    return [_eval_terms(pe.terms, pe.delta_m, y, cache) for pe in ladder]


# -- symbolic integrand -----------------------------------------------------------


@dataclass
class SymbolicTerm:
    """coeff * prod over touched points of factor(phi_point), times exp(-V(X_n))."""

    coeff: float
    factors: dict  # flat point id -> PolyExp


def delta_apply(terms: list[SymbolicTerm], points_p, points_q, gmat: np.ndarray,
                xprime: PolyExp, monomials: dict) -> list[SymbolicTerm]:
    """Apply D_{p,p'} symbolically, expanding the double sum over placements.

    ``gmat[i, j]`` is the bare covariance between points_p[i] and points_q[j];
    ``monomials`` maps observable points to their powers (the implicit factor
    at a not-yet-touched point).  Derivatives of the per-point Gibbs factor
    follow the q -> q' + q X' ladder; derivatives of monomials lower degree.
    """

    def differentiate(factors: dict, t: int) -> dict:
        new = dict(factors)
        q = new.get(t)
        if q is None:
            q = PolyExp.monomial(monomials.get(t, 0), xprime.delta_m)
        new[t] = q.deriv().add(q.mul(xprime))
        return new

    out = []
    for term in terms:
        for i, t in enumerate(points_p):
            half = differentiate(term.factors, int(t))
            for j, tp in enumerate(points_q):
                g = float(gmat[i, j])
                if g == 0.0:
                    continue
                out.append(SymbolicTerm(coeff=term.coeff * g,
                                        factors=differentiate(half, int(tp))))
    return out


def evaluate_symbolic(terms: list[SymbolicTerm], phi_flat: np.ndarray,
                      monomials: dict) -> np.ndarray:
    """Evaluate the term sum at sampled fields, shape (batch,).

    The global Gibbs weight exp(-V) is *not* included; callers multiply it
    once.  Untouched observable points contribute their plain monomials.
    Each point keeps one power cache, and each distinct factor at a point is
    evaluated once: terms share most of their factors.
    """
    caches: dict = {}   # point -> _PowerCache of the field there
    values: dict = {}   # (point, factor terms) -> factor values
    total = np.zeros(phi_flat.shape[0])
    for term in terms:
        val = np.full(phi_flat.shape[0], term.coeff)
        for t, q in term.factors.items():
            key = (t, tuple(q.terms.items()))
            if key not in values:
                cache = caches.setdefault(t, _PowerCache(phi_flat[:, t], q.delta_m))
                values[key] = _eval_terms(q.terms, q.delta_m, cache.y, cache)
            val *= values[key]
        for t, power in monomials.items():
            if t not in term.factors:
                val *= phi_flat[:, t] ** power
        total += val
    return total


# -- block derivative tensors ------------------------------------------------------


class _BlockTensor:
    """Joint derivative values of one block over placements of its ends.

    Entry [t_1, ..., t_k] is the product over the block's points of
    q_{r_u}(phi_u), where r_u counts the ends placed at u and the ladder q at
    an observable point includes its monomial; untouched observable points
    contribute q_0 = phi^power.  Coinciding ends raise the derivative order
    at their common point rather than multiplying first-order factors.
    """

    def __init__(self, q: list[np.ndarray], mono_pos: list[int]):
        self.q = q                      # q[r]: (batch, m)
        self.mono = mono_pos
        self.batch, self.m = q[0].shape

    def _bg(self, skip: tuple) -> np.ndarray:
        out = np.ones(self.batch)
        for p in self.mono:
            if p not in skip:
                out = out * self.q[0][:, p]
        return out

    def vector(self, r: int = 1) -> np.ndarray:
        """One end: V[t] = q_r(t) * (monomial background excluding t)."""
        v = self.q[r] * self._bg(())[:, None]
        for p in self.mono:
            v[:, p] = self.q[r][:, p] * self._bg((p,))
        return v

    def pair(self, ra: int, rb: int) -> np.ndarray:
        """Two ends at distinct points: M[t, u] = q_ra(t) q_rb(u) * background.

        Entries with t == u are later overwritten by a higher-order diagonal,
        so their values here are irrelevant.
        """
        m = self.q[ra][:, :, None] * self.q[rb][:, None, :] * self._bg(())[:, None, None]
        for p in self.mono:
            m[:, p, :] = self.q[ra][:, p, None] * self.q[rb] * self._bg((p,))[:, None]
            m[:, :, p] = self.q[ra] * self.q[rb][:, p, None] * self._bg((p,))[:, None]
        for p in self.mono:
            for p2 in self.mono:
                if p2 != p:
                    m[:, p, p2] = (self.q[ra][:, p] * self.q[rb][:, p2] *
                                   self._bg((p, p2)))
        return m

    def tensor(self, n_ends: int) -> np.ndarray:
        if n_ends == 0:
            return self._bg(())
        if n_ends == 1:
            return self.vector(1)
        if n_ends == 2:
            t = self.pair(1, 1)
            idx = np.arange(self.m)
            t[:, idx, idx] = self.vector(2)
            return t
        if n_ends == 3:
            return self._tensor3()
        raise ValueError("blocks receive at most three ends at the supported orders")

    def _tensor3(self) -> np.ndarray:
        q1 = self.q[1]
        idx = np.arange(self.m)
        t = np.einsum("na,nb,nc->nabc", q1, q1, q1) * self._bg(())[:, None, None, None]
        # distinct placements touching monomial points: rebuild those slabs
        for axes in _axis_subsets(3, len(self.mono)):
            for mono_assign in itertools.permutations(self.mono, len(axes)):
                self._fix_distinct_slab(t, axes, mono_assign)
        # coincidence planes, then the full diagonal; non-adjacent advanced
        # indices move the broadcast axis to the front, hence the transpose
        p21 = self.pair(2, 1)
        t[:, idx, idx, :] = p21
        t[:, idx, :, idx] = p21.transpose(1, 0, 2)
        t[:, :, idx, idx] = self.pair(1, 2)
        t[:, idx, idx, idx] = self.vector(3)
        return t

    def _fix_distinct_slab(self, t: np.ndarray, axes: tuple, mono_assign: tuple):
        """Recompute entries where the given axes sit at the given mono points."""
        q1 = self.q[1]
        skip = tuple(mono_assign)
        bg = self._bg(skip)
        fixed = np.ones(self.batch)
        for p in mono_assign:
            fixed = fixed * q1[:, p]
        free_axes = [ax for ax in range(3) if ax not in axes]
        if len(free_axes) == 2:
            block = np.einsum("na,nb->nab", q1, q1) * (fixed * bg)[:, None, None]
        elif len(free_axes) == 1:
            block = q1 * (fixed * bg)[:, None]
        else:
            block = fixed * bg
        index: list = [slice(None)] * 3
        for ax, p in zip(axes, mono_assign):
            index[ax] = p
        t[(slice(None),) + tuple(index)] = block


def _axis_subsets(n_axes: int, max_size: int):
    for size in range(1, min(n_axes, max_size) + 1):
        yield from itertools.combinations(range(n_axes), size)


# -- the expansion instance --------------------------------------------------------


def gauss_legendre_unit(n_nodes: int = GL_NODES):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (x + 1.0), 0.5 * w


SOBOL_BITS = 30    # qmc.Sobol's default resolution
_BIT = np.arange(SOBOL_BITS, dtype=np.uint32)


@functools.lru_cache(maxsize=64)
def _sobol_directions(dim: int, m: int) -> np.ndarray:
    """Sobol direction numbers 0..m-1, (m, dim): unscrambled point 2^(j+1) - 1 is direction j."""
    points = qmc.Sobol(dim, scramble=False).random_base2(m)
    return (points[2 ** np.arange(1, m + 1) - 1] * 2 ** SOBOL_BITS).astype(np.uint32)


def scrambled_normals(n_samples: int, dim: int, seed: int,
                      n_batches: int = RQMC_BATCHES) -> np.ndarray:
    """Standard normals from independently scrambled Sobol blocks (Owen 1997).

    Rows come in ``n_batches`` consecutive blocks of equal size, one
    scramble each, so the block means are independent unbiased estimates and
    their spread is an honest error bar.  The expansion integrands are smooth
    functions of a dozen or so normals, where this randomized quasi-Monte
    Carlo beats plain draws severalfold in variance.

    Block b equals the leading points of ``qmc.Sobol(dim, scramble=True,
    rng=default_rng(child_b))``, child_b the b-th spawn of SeedSequence(seed),
    bit for bit.  The engine's linear matrix scramble and digital shift
    (Matousek 1998), drawn as the engine draws them, are applied in numpy:
    a scramble is GF(2)-linear, so all blocks are scrambled at once.
    """
    per = n_samples // n_batches
    if per * n_batches != n_samples:
        raise ValueError(f"sample count must be a multiple of {n_batches}")
    m = math.ceil(math.log2(per))
    # cols[b, d, k]: column k of block b's scramble matrix as an integer
    # (scipy's bit order reverses both axes of ltm); table row 0: the shift
    table = np.empty((n_batches, per, dim), dtype=np.uint32)
    cols = np.empty((n_batches, dim, SOBOL_BITS), dtype=np.uint32)
    for b, child in enumerate(np.random.SeedSequence(seed).spawn(n_batches)):
        rng = np.random.default_rng(child.spawn(1)[0])
        shift = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32)
        table[b, 0] = (shift << _BIT).sum(axis=1, dtype=np.uint32)
        ltm = np.tril(rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
        ltm[:, _BIT, _BIT] = 1
        cols[b] = (ltm[:, ::-1, ::-1] << _BIT[:, None]).sum(axis=1, dtype=np.uint32)
    bits = (_sobol_directions(dim, m).T[:, :, None] >> _BIT) & 1        # (dim, m, k)
    scrambled = np.bitwise_xor.reduce(cols[:, :, None, :] * bits, axis=-1)  # (b, dim, m)
    i = np.arange(1, per)  # Gray-code row i: direction trailing_zeros(i)
    table[:, 1:] = scrambled.transpose(0, 2, 1)[:, np.log2(i & -i).astype(np.intp)]
    u = np.bitwise_xor.accumulate(table, axis=1).reshape(n_samples, dim) * 2.0 ** -SOBOL_BITS
    return ndtri(0.5 + (1.0 - 1e-10) * (u - 0.5))


def gaussian_bump_mean(mean, var, delta_m: float):
    """E[exp(-delta_m phi^2 / 2)] for phi ~ N(mean, var), in closed form."""
    spread = 1.0 + delta_m * var
    return np.exp(-0.5 * delta_m * mean ** 2 / spread) / np.sqrt(spread)


def _normals(dim: int):
    """Draw function for ``accumulate``: n rows of ``dim`` standard normals."""
    return lambda rng, n: rng.standard_normal((n, dim))


def _column_means(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means of the sum columns 1.. per count column 0, with jackknife errors."""
    return jackknife(sums, lambda c: c[1:] / c[0])


def _mean_and_error(values: np.ndarray, n_batches: int) -> tuple[float, float]:
    """Mean of per-sample values and its jackknife error over consecutive batches."""
    per = values.reshape(n_batches, -1)
    sums = np.stack([np.full(n_batches, per.shape[1]), per.sum(axis=1)], axis=1)
    return float(values.mean()), float(_column_means(sums)[1][0])


@dataclass
class ClusterInstance:
    """An expansion setup: desk-scale box, rod partition, pinned observable.

    The observable is a product of field powers, all of whose points must sit
    inside the starting block X_1 (the union of their rods).  Scalar
    displacements, zero external field, periodic box.
    """

    ensemble: Ensemble
    mode: RodMode
    monomials: dict  # flat grid point -> power

    def __post_init__(self):
        if self.ensemble.d != 1:
            raise ValueError("the expansion engine handles scalar displacements (d = 1)")
        if self.ensemble.h_hat and any(x != 0.0 for x in self.ensemble.h_hat):
            raise ValueError("expansion engine assumes zero external field")
        if not self.monomials:
            raise ValueError("observable must touch at least one grid point")

    @cached_property
    def grid(self) -> FieldGrid:
        return self.ensemble.grid

    @cached_property
    def partition(self) -> RodPartition:
        return rod_partition(self.ensemble.lattice, self.ensemble.beta_hat, self.mode)

    @cached_property
    def rod_points(self) -> list[np.ndarray]:
        return [self.grid.rod_points(rod, self.partition) for rod in self.partition.rods]

    @cached_property
    def full_matrix(self) -> np.ndarray:
        return self.ensemble.kernel.grid_matrix(self.grid.all_points, self.grid.n_slices)

    @cached_property
    def x1_rod_ids(self) -> tuple[int, ...]:
        rods = set()
        for t in self.monomials:
            rod = self.grid.rod_of_point(t, self.partition)
            rods.add(self.partition.rods.index(rod))
        return tuple(sorted(rods))

    @cached_property
    def x1_points(self) -> np.ndarray:
        return np.concatenate([self.rod_points[r] for r in self.x1_rod_ids])

    @cached_property
    def free_rod_ids(self) -> tuple[int, ...]:
        return tuple(r for r in range(len(self.partition.rods))
                     if r not in self.x1_rod_ids)

    @property
    def gibbs_weight_coeff(self) -> float:
        return self.grid.delta_tau * self.ensemble.b_m

    @cached_property
    def xprime(self) -> PolyExp:
        return PolyExp.gibbs_prime(self.gibbs_weight_coeff, self.ensemble.delta_m)

    def blocks_for(self, yseq) -> list[np.ndarray]:
        return [self.x1_points] + [self.rod_points[r] for r in yseq]

    def gibbs_weight(self, phi_flat: np.ndarray, points: np.ndarray) -> np.ndarray:
        """exp(-dt * sum over points of V(phi))."""
        return self._bump_weight(np.exp(-0.5 * self.ensemble.delta_m * phi_flat[:, points] ** 2))

    def _bump_weight(self, bump: np.ndarray) -> np.ndarray:
        """The Gibbs weight from the per-point factors exp(-delta_m phi^2 / 2)."""
        return np.exp(-self.grid.delta_tau * (self.ensemble.b_m * bump).sum(axis=1))

    def block_matrix(self, blocks, s) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated covariance over the union of blocks, per row of a 2-d s: (points, C)."""
        pts = np.concatenate(blocks)
        labels = np.concatenate([np.full(len(b), i) for i, b in enumerate(blocks)])
        base = self.full_matrix[np.ix_(pts, pts)]
        if len(blocks) > 1:
            base = base * p_matrix(labels, s)
        return pts, base

    def sample_block(self, blocks, s, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map standard normals z (batch, n_pts) through the kernel's Cholesky root.

        The interpolated kernel is positive definite for s in [0, 1] (a convex
        mix of block restrictions of a positive definite kernel), and the
        Cholesky factor varies smoothly in s, so common z keep estimates
        smooth in s.  A 2-d s gives each row of z its own root.
        """
        pts, mat = self.block_matrix(blocks, s)
        chol = np.linalg.cholesky(mat)
        if chol.ndim == 3:
            return pts, np.matmul(chol, z[:, :, None])[:, :, 0]
        return pts, z @ chol.T

    # -- evaluators ---------------------------------------------------------

    def observable_value(self, phi_flat: np.ndarray) -> np.ndarray:
        out = np.ones(phi_flat.shape[0])
        for t, power in self.monomials.items():
            out *= phi_flat[:, t] ** power
        return out

    def symbolic_integrand(self, tree: Tree, yseq) -> list[SymbolicTerm]:
        """Fully expanded derivative terms for one (tree, rod sequence)."""
        blocks = self.blocks_for(yseq)
        terms = [SymbolicTerm(coeff=1.0, factors={})]
        for l in range(2, tree.order + 1):
            pa, pb = blocks[tree.eta(l) - 1], blocks[l - 1]
            gmat = self.full_matrix[np.ix_(pa, pb)]
            terms = delta_apply(terms, pa, pb, gmat, self.xprime, self.monomials)
        return terms

    def _block_q(self, cache: _PowerCache, points: np.ndarray, max_r: int) -> _BlockTensor:
        """Ladder values q_0..q_max_r at a block's points, from its field's power cache."""
        plain = derivative_ladder(0, max_r, self.gibbs_weight_coeff,
                                  self.ensemble.delta_m)
        q = evaluate_ladder(plain, cache.y, cache)
        mono_pos = []
        for i, t in enumerate(points):
            power = self.monomials.get(int(t))
            if power is None:
                continue
            mono_pos.append(i)
            ladder = derivative_ladder(power, max_r, self.gibbs_weight_coeff,
                                       self.ensemble.delta_m)
            col = _PowerCache(cache.y[:, i], self.ensemble.delta_m)
            col.epow[1] = cache.gaussian(1)[:, i]   # one exp per point
            cols = evaluate_ladder(ladder, col.y, col)
            for r in range(max_r + 1):
                q[r][:, i] = cols[r]
        return _BlockTensor(q, mono_pos)

    def contraction_value(self, tree: Tree, yseq,
                          phi_flat: np.ndarray) -> np.ndarray:
        """Per-sample value of the chained derivative operators (fast path)."""
        blocks = self.blocks_for(yseq)
        return self._contract([tree], blocks, phi_flat[:, np.concatenate(blocks)])[0][0]

    def _contract(self, trees, blocks, phi: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-sample chained-derivative values of each tree, and the blocks' Gibbs weight.

        The leading columns of ``phi`` hold the field at the points of the
        blocks, in order.  Each block's ladders are evaluated once, to the
        most ends any of the trees places there, and its derivative tensors
        are shared between trees.  The weight reuses the ladders' Gaussian
        factors and equals ``gibbs_weight`` on those points bit for bit.
        """
        edges = np.cumsum([0] + [len(b) for b in blocks])
        caches = [_PowerCache(phi[:, lo:hi], self.ensemble.delta_m)
                  for lo, hi in zip(edges, edges[1:])]
        lines = [[(tree.eta(l) - 1, l - 1) for l in range(2, tree.order + 1)]
                 for tree in trees]
        n_ends = [max(sum((pa, pb).count(bi) for pa, pb in tl) for tl in lines)
                  for bi in range(len(blocks))]
        q = [self._block_q(c, b, r) for c, b, r in zip(caches, blocks, n_ends)]
        tensors: dict = {}  # (block, ends) -> derivative tensor
        out = []
        for tree_lines in lines:
            # einsum letters: the ends of line li are 2 li and 2 li + 1
            operands, subscripts = [], []
            scalar = np.ones(q[0].batch)
            for bi in range(len(blocks)):
                sub = "".join(_LETTERS[2 * li + side] for li, line in enumerate(tree_lines)
                              for side in (0, 1) if line[side] == bi)
                if (bi, len(sub)) not in tensors:
                    tensors[bi, len(sub)] = q[bi].tensor(len(sub))
                if sub:
                    operands.append(tensors[bi, len(sub)])
                    subscripts.append("n" + sub)
                else:
                    scalar = scalar * tensors[bi, 0]
            for li, (pa, pb) in enumerate(tree_lines):
                operands.append(self.full_matrix[np.ix_(blocks[pa], blocks[pb])])
                subscripts.append(_LETTERS[2 * li:2 * li + 2])
            if operands:
                spec = ",".join(subscripts) + "->n"
                scalar = scalar * np.einsum(spec, *operands, optimize=True)
            out.append(scalar)
        return out, self._bump_weight(np.concatenate([c.gaussian(1) for c in caches], axis=1))

    # -- Monte Carlo layers ---------------------------------------------------

    def order_one(self, n_samples: int, seed: int) -> tuple[float, float]:
        """Block expectation of A exp(-V(X_1)) under the X_1-restricted kernel."""
        pts, mat = self.block_matrix([self.x1_points], s=())
        chol = np.linalg.cholesky(mat)

        def columns(z):
            full = np.zeros((len(z), self.grid.n_points))
            full[:, pts] = z @ chol.T
            vals = self.observable_value(full) * self.gibbs_weight(full, pts)
            return len(z), vals.sum()

        (k,), (dk,) = _column_means(accumulate(_normals(len(pts)), columns, n_samples, seed))
        return float(k), float(dk)

    def i_term(self, tree: Tree, yseq, s, z: np.ndarray) -> np.ndarray:
        """Per-sample integrand of I_n at interpolation point s (common draws z)."""
        blocks = self.blocks_for(yseq)
        _, phi = self.sample_block(blocks, s, z)
        (k,), weight = self._contract([tree], blocks, phi)
        return k * weight

    def cluster_term(self, yseq, n_samples: int, seed: int) -> tuple[float, float]:
        """K of one rod sequence, summed over its trees: the integral of f(eta; s) I_n(s).

        Randomized quasi-Monte Carlo over (s, z) jointly: each row is one
        point of RQMC_BATCHES independently scrambled Sobol blocks
        (``scrambled_normals``), whose leading n-1 coordinates, mapped back to
        the unit interval, are the row's s and whose rest are its normals z.
        Each row draws phi = L(s) z from the interpolated kernel on the
        blocks' own points, and every tree is scored on that phi with its
        weight f(eta; s); the Gibbs weight multiplies the tree sum once.  Rows
        go in chunks whose kernels hold at most CHUNK_VALUES values.  Trees
        share rows, so the error is that of the per-row tree sum.
        """
        n = len(yseq) + 1
        if n > ORDER_CAP[self.mode]:
            raise ValueError(f"order {n} beyond the supported cap for {self.mode.value}")
        if n == 1:
            return self.order_one(n_samples, seed)
        blocks = self.blocks_for(yseq)
        trees = enumerate_trees(n)
        n_pts = sum(len(b) for b in blocks)
        u = scrambled_normals(n_samples, n - 1 + n_pts, seed)
        s, z = ndtr(u[:, :n - 1]), u[:, n - 1:]
        rows = max(1, CHUNK_VALUES // n_pts ** 2)
        values = np.empty(n_samples)
        for start in range(0, n_samples, rows):
            s_c = s[start:start + rows]
            _, phi = self.sample_block(blocks, s_c, z[start:start + rows])
            ks, weight = self._contract(trees, blocks, phi)
            values[start:start + rows] = weight * sum(f_factor(tree, s_c) * k
                                                      for tree, k in zip(trees, ks))
        return _mean_and_error(values, RQMC_BATCHES)

    def ratio_f(self, yseq, n_samples: int, seed: int) -> tuple[float, float]:
        """Z(complement of X_n) / Z over common reference draws; >= 1 always."""
        ratios, leave = self.ratio_table([tuple(yseq)], n_samples, seed)
        return float(ratios[0]), float(replicate_stderr(leave[0]))

    def ratio_table(self, yseqs, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Z(complement)/Z for many rod sequences, plus jackknife replicates.

        Row j of the replicates belongs to yseqs[j].  All ratios share one set
        of reference draws, so the replicates carry their correlation: the
        jackknife error of any combination of ratios is that of the same
        combination of replicate rows.
        """
        comps = []
        for yseq in yseqs:
            keep = set(self.x1_rod_ids) | set(yseq)
            comp = [self.rod_points[r] for r in range(len(self.partition.rods))
                    if r not in keep]
            comps.append(np.concatenate(comp) if comp else None)
        all_pts = np.arange(self.grid.n_points)

        def columns(phi):
            flat = phi.reshape(len(phi), -1)
            return [self.gibbs_weight(flat, all_pts).sum()] + [
                self.gibbs_weight(flat, pts).sum() if pts is not None else float(len(flat))
                for pts in comps]

        sums = accumulate(self.ensemble.sampler.sample, columns, n_samples, seed)
        ratios, leave = jackknife_replicates(sums, lambda c: c[1:] / c[0])
        return ratios, leave.T

    def partition_weight(self, n_samples: int, seed: int) -> tuple[float, float]:
        """Z = E[exp(-V(T))] under the reference measure, with jackknife stderr."""
        all_pts = np.arange(self.grid.n_points)

        def columns(phi):
            return len(phi), self.gibbs_weight(phi.reshape(len(phi), -1), all_pts).sum()

        (z,), (dz,) = _column_means(
            accumulate(self.ensemble.sampler.sample, columns, n_samples, seed))
        return float(z), float(dz)

    def order_contribution(self, n: int, n_samples: int, seed: int) -> tuple[float, float]:
        """Sum over ordered rod sequences and trees of K * F at order n.

        The trees of a sequence share its rows (``cluster_term``), and each
        sequence has its own draws, so the sequences' K errors add in
        quadrature.  All F come from one set of reference draws, so their
        error is the jackknife error of the K-weighted sum of F replicates.
        """
        if n == 1:
            k, dk = self.order_one(n_samples, seed)
            f, df = self.ratio_f((), n_samples, seed + 1)
            return k * f, math.hypot(f * dk, k * df)
        yseqs = list(itertools.permutations(self.free_rod_ids, n - 1))
        ratios, leave = self.ratio_table(yseqs, n_samples, seed + 100_003)
        k, dk = np.array([self.cluster_term(yseq, n_samples, seed + 1013 * si)
                          for si, yseq in enumerate(yseqs)]).T
        f_err = float(replicate_stderr(k @ leave))
        return float(k @ ratios), math.hypot(float(np.linalg.norm(ratios * dk)), f_err)

    def first_step_residual(self, n_samples: int,
                            seed: int) -> tuple[float, float, float, float]:
        """(E_coupled - E_decoupled)[A e^-V(T)] / Z over common draws.

        The decoupled kernel cuts X_1 from its complement (the order-1 term
        factorizes there), so this difference equals direct - (order-1 term)
        with the shared-noise part cancelled sample by sample: the leading
        Cholesky corner is the X_1 block for both kernels.  Returns
        (residual, stderr, direct, direct_stderr).
        """
        comp_points = np.concatenate([self.rod_points[r] for r in self.free_rod_ids])
        blocks = [self.x1_points, comp_points]

        def columns(z):
            coupled = _full_expectation_values(self, blocks, np.array([1.0]), z)
            cut = _full_expectation_values(self, blocks, np.array([0.0]), z)
            return len(z), (coupled - cut).sum(), coupled.sum()

        n_pts = len(self.x1_points) + len(comp_points)
        (diff, full), (ddiff, dfull) = _column_means(
            accumulate(_normals(n_pts), columns, n_samples, seed))
        z_t, dz_t = self.partition_weight(n_samples, seed + 1)
        resid_err = math.hypot(ddiff / z_t, diff * dz_t / z_t ** 2)
        direct_err = math.hypot(dfull / z_t, full * dz_t / z_t ** 2)
        return float(diff / z_t), resid_err, float(full / z_t), direct_err

    def second_step_residual(self, n_samples: int, seed: int,
                             n_nodes: int = GL_NODES) -> tuple[float, float]:
        """direct - (order-1 + order-2 terms), telescoped pathwise on common draws.

        The order-1 residual is sum over Y_2 of the s_1 integral of
        E_s1[D_{X_1,Y_2} A e^-V(T)] / Z.  Cutting off the rest of the box with
        blocks [X_1, Y_2, rest] and s = (s_1, s_2), the order-2 term is the
        s_2 = 0 end, so the order-2 residual is (s_2 = 1 end) - (s_2 = 0 end)
        evaluated on the same normals.  The leading Cholesky corner X_2 =
        X_1 + Y_2 is common to both ends, so the derivative factor is shared
        and only the rest block's Gibbs factor differs.  That factor's
        first-order part -dt b_m sum exp(-delta_m phi^2 / 2) has a closed-form
        Gaussian mean given the X_2 normals, so it is swapped for that mean
        at both ends (a control variate; the estimand is unchanged).  Normals
        are scrambled Sobol blocks.  Returns (residual, stderr).
        """
        tree = Tree(parent=(1,))
        nodes, weights = gauss_legendre_unit(n_nodes)
        z = scrambled_normals(n_samples, self.grid.n_points, seed)
        z_t, dz_t = self.partition_weight(n_samples, seed + 1)
        acc = np.zeros(n_samples)
        for y in self.free_rod_ids:
            rest = [self.rod_points[r] for r in self.free_rod_ids if r != y]
            blocks = self.blocks_for((y,)) + [np.concatenate(rest)]
            n2 = len(blocks[0]) + len(blocks[1])
            _, cut = self.block_matrix(blocks, (1.0, 0.0))
            rest_cut = z[:, n2:] @ np.linalg.cholesky(cut[n2:, n2:]).T
            end_cut = self._rest_weight(rest_cut, 0.0, np.diag(cut)[n2:])
            for x, w in zip(nodes, weights):
                _, mat = self.block_matrix(blocks, (x, 1.0))
                chol = np.linalg.cholesky(mat)
                phi = z @ chol.T
                (k,), weight = self._contract([tree], blocks[:2], phi)
                end = self._rest_weight(phi[:, n2:], z[:, :n2] @ chol[n2:, :n2].T,
                                        np.sum(chol[n2:, n2:] ** 2, axis=1))
                acc += w * (k * weight) * (end - end_cut)
        diff, ddiff = _mean_and_error(acc, RQMC_BATCHES)
        return diff / z_t, math.hypot(ddiff / z_t, diff * dz_t / z_t ** 2)

    def _rest_weight(self, phi: np.ndarray, mean, var) -> np.ndarray:
        """exp(-dt sum V(phi)) with its first-order term replaced by its mean.

        ``mean`` and ``var`` are the per-point conditional moments of phi
        given the shared X_2 normals.
        """
        c = self.gibbs_weight_coeff
        bump = np.exp(-0.5 * self.ensemble.delta_m * phi ** 2)
        exact = gaussian_bump_mean(mean, var, self.ensemble.delta_m)
        return np.exp(-c * bump.sum(axis=1)) + c * (bump - exact).sum(axis=1)


@dataclass(frozen=True)
class ExpansionReport:
    orders: list          # per-order (contribution, stderr)
    partial_sums: list    # cumulative sums with propagated stderr
    direct: tuple         # (value, stderr) of the direct Gibbs estimate
    residuals: list       # |direct - partial sum| with combined stderr


def residual_decay_report(instance: ClusterInstance, n_max: int,
                          first_step_samples: int, order_samples, seed: int,
                          progress=None) -> ExpansionReport:
    """Telescoped residuals |direct - partial sum| with shared-draw cancellation.

    The order-1 residual R_1 is the coupled-minus-decoupled difference on
    common draws (``first_step_residual``, ``first_step_samples`` draws).
    When a later order follows, the order-2 residual R_2 is telescoped
    pathwise as well (``second_step_residual``, ``order_samples[2]`` draws),
    and the order-2 contribution is reported as R_1 - R_2.  In both the
    harmonic noise cancels sample by sample.  The last residual always
    subtracts a measured contribution, R_{n-1} - s_n with s_n from
    ``order_contribution`` (``order_samples[n]`` draws), so the final
    comparison is between two independent estimators.  ``order_samples`` is
    an int or a per-order {n: samples} mapping.  ``progress(n, sequences)``,
    if given, is called when order n, with that many rod sequences, is done.
    """
    cap = ORDER_CAP[instance.mode]
    if n_max > cap:
        raise ValueError(f"order cap for {instance.mode.value} is {cap}")
    if n_max - 1 > len(instance.free_rod_ids):
        raise ValueError("not enough rods outside X_1 for the requested order")
    if isinstance(order_samples, int):
        order_samples = {n: order_samples for n in range(2, n_max + 1)}
    done = progress or (lambda n, sequences: None)
    r1, dr1, direct, ddirect = instance.first_step_residual(first_step_samples, seed)
    done(1, 1)
    orders = [(direct - r1, math.hypot(dr1, ddirect))]
    residuals = [(abs(r1), dr1)]
    partial = [(direct - r1, math.hypot(ddirect, dr1))]
    run, run_err = r1, dr1
    for n in range(2, n_max + 1):
        if n == 2 and n_max > 2:
            r2, dr2 = instance.second_step_residual(order_samples[2], seed + 10_000 * n)
            s_n, ds_n = run - r2, math.hypot(run_err, dr2)
            run, run_err = r2, dr2
        else:
            s_n, ds_n = instance.order_contribution(n, order_samples[n], seed + 10_000 * n)
            run, run_err = run - s_n, math.hypot(run_err, ds_n)
        orders.append((s_n, ds_n))
        residuals.append((abs(run), run_err))
        partial.append((direct - run, math.hypot(ddirect, run_err)))
        done(n, math.perm(len(instance.free_rod_ids), n - 1))
    return ExpansionReport(orders=orders, partial_sums=partial,
                           direct=(direct, ddirect), residuals=residuals)


def _direct_estimate(instance: ClusterInstance, n_samples: int, seed: int):
    """Reweighted estimate of the observable, averaged over rod translations."""
    ens = instance.ensemble
    grid = instance.grid
    per_rod = grid.n_slices // instance.partition.rods_per_site
    base_pairs = [grid.point_pair(t) for t in instance.monomials]
    powers = list(instance.monomials.values())
    lattice = ens.lattice
    shifts = []
    for site_shift in range(lattice.n_sites):
        sc = np.asarray(lattice.site_coords(site_shift))
        for rod_shift in range(instance.partition.rods_per_site):
            shifted = []
            for (si, sl), p in zip(base_pairs, powers):
                coords = (np.asarray(lattice.site_coords(si)) + sc) % np.asarray(lattice.dims)
                new_site = lattice.site_index(tuple(coords))
                new_slice = (sl + rod_shift * per_rod) % grid.n_slices
                shifted.append((grid.point(new_site, new_slice), p))
            shifts.append(shifted)

    def observable(phi):
        flat = phi.reshape(phi.shape[0], -1)
        acc = np.zeros(phi.shape[0])
        for combo in shifts:
            val = np.ones(phi.shape[0])
            for t, p in combo:
                val *= flat[:, t] ** p
            acc += val
        return acc / len(shifts)

    from .sampler import reweight_expectation

    res = reweight_expectation(ens, observable, n_samples, seed)
    return res.mean, res.stderr


# -- interpolation-identity diagnostics ---------------------------------------------


@dataclass(frozen=True)
class SplitReport:
    direct: tuple
    term_one: tuple
    remainder_ibp: tuple
    remainder_fd: tuple

    def split_total(self) -> tuple:
        val = self.term_one[0] + self.remainder_ibp[0]
        return val, math.hypot(self.term_one[1], self.remainder_ibp[1])


def newton_leibniz_report(instance: ClusterInstance, n_samples: int, seed: int,
                          n_nodes: int = GL_NODES, fd_step: float = 1e-3) -> SplitReport:
    """First-step identity on a two-rod box, remainder computed two ways.

    direct = (block term) * Z(X_1^c)/Z + integral over s of the derivative
    term, where the derivative term is evaluated (i) by the two-point
    derivative operator under the interpolated Gaussian and (ii) by finite
    differences of the interpolated expectation itself (common draws keep it
    smooth in s).
    """
    if len(instance.free_rod_ids) != 1:
        raise ValueError("the first-step identity check wants exactly two rods")
    yseq = (instance.free_rod_ids[0],)
    tree = Tree(parent=(1,))
    blocks = instance.blocks_for(yseq)
    all_pts = np.concatenate(blocks)

    direct = _direct_estimate(instance, 4 * n_samples, seed + 1,)
    k1, dk1 = instance.order_one(n_samples, seed + 2)
    f1, df1 = instance.ratio_f((), n_samples, seed + 3)
    z_t, dz_t = instance.partition_weight(n_samples, seed + 4)
    term_one = (k1 * f1, math.hypot(f1 * dk1, k1 * df1))

    rng = np.random.default_rng(seed + 5)
    z = rng.standard_normal((n_samples, len(all_pts)))
    nodes, weights = gauss_legendre_unit(n_nodes)

    ibp_acc = np.zeros(n_samples)
    fd_acc = np.zeros(n_samples)
    for x, w in zip(nodes, weights):
        ibp_acc += w * instance.i_term(tree, yseq, np.array([x]), z)
        up = _full_expectation_values(instance, blocks, np.array([x + fd_step]), z)
        dn = _full_expectation_values(instance, blocks, np.array([x - fd_step]), z)
        fd_acc += w * (up - dn) / (2.0 * fd_step)
    remainder = []
    for acc in (ibp_acc, fd_acc):
        mean, err = _mean_and_error(acc, N_BATCHES)
        remainder.append((mean / z_t, err / z_t))
    return SplitReport(direct=direct, term_one=term_one,
                       remainder_ibp=tuple(remainder[0]),
                       remainder_fd=tuple(remainder[1]))


def _full_expectation_values(instance: ClusterInstance, blocks, s, z):
    """Integrand A * exp(-V(T)) under the full interpolated kernel at s."""
    pts, phi = instance.sample_block(blocks, s, z)
    full = np.zeros((phi.shape[0], instance.grid.n_points))
    full[:, pts] = phi
    return instance.observable_value(full) * instance.gibbs_weight(full, pts)
