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
sequence is scored on the same rows with its per-row weight f(eta; s).  The
rows are made a chunk at a time (``scrambled_normals``), and the package's
one batch engine, ``sampler.accumulate``, sums them into one batch per
scramble, as it sums the plain draws of the other estimators.

The last block Y_n of every tree is a leaf with exactly one derivative end,
so the per-row tree sum is linear in the leaf's factor e^{-V(Y_n)} q_1(phi_w),
q_1(y) = dt b_m delta_m y exp(-delta_m y^2 / 2).  Given s and the normals of
the earlier blocks, phi_w is Gaussian with a mean and variance read off the
row's Cholesky root, so E[q_1(phi_w) | s, z_{<n}] has a closed form, and the
factor is swapped for
(e^{-V(Y_n)} - b) q_1(phi_w) + b E[q_1(phi_w) | s, z_{<n}]: the subtracted
control b (q_1 - E[q_1 | ...]) has b and the rest of the row functions of s
and z_{<n} only, so its mean is exactly zero and the estimand is unchanged.
b is the leaf's mean-field Gibbs factor, e^{-V} with each point's
exp(-delta_m phi^2 / 2) replaced by its conditional mean: near 1 where V is
small, and close to e^{-V(Y_n)} where it is not, as on the CLI default box.
The closed forms are ``gaussian_bump_mean`` and, for q_1, that times
mean / (1 + delta_m var) (``gaussian_bump_first_moment``).  Every control of
the engine takes this b (``_gibbs_factors``), and nothing is fitted: the
rest block of the order-1 and order-2 residuals too, at both ends of their
one telescoped loop, e^{-V} + b c sum of (bump - E[bump]).

From order 3 on, most of what is left comes from the normals of Y_{n-1}.
To first order in dt b_m, Y_{n-1}'s factor is X^{(k)}(phi_y) at one point,
k its derivative ends (one, or two when the leaf hangs from it) and
X(y) = -dt b_m exp(-delta_m y^2 / 2), and the leaf's is its conditional
mean g(mu_w) above.  Given s and the normals before Y_{n-1}, (phi_y, mu_w) is
a Gaussian pair, so E[X^{(k)}(phi_y) g(mu_w)] has a closed form
(``gaussian_bump_pair_moments``), and each row adds that mean less the
row's own X^{(k)}(phi_y) g(mu_w), times the two blocks' mean-field factor
and contracted like their factors: a second control whose conditional mean
is zero.

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
from scipy.special import ndtr

from .covariance import p_matrix
from .grid import FieldGrid
from .lattice import RodMode
from .sampler import Ensemble, accumulate, jackknife, map_rows, plain_stream, scrambled_normals

MAX_TREE_ORDER = 8
MAX_BF_ORDER = 7
ORDER_CAP = {RodMode.LOW_TEMPERATURE: 3, RodMode.HIGH_TEMPERATURE: 4}
GL_NODES = 8
_LETTERS = "abcdefgh"  # einsum subscripts of line ends and end groups; "n" is the batch axis


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
            bump = -0.5 * self.delta_m * self.power(2)
            self.epow[1] = np.exp(bump, out=bump)
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


def _coincidence_patterns(n_ends: int) -> list[tuple]:
    """Every set partition of n_ends ends, finest first.

    A partition is a tuple of group labels, one per end, numbered in order
    of first appearance, so it has max(labels) + 1 groups.
    """
    patterns = [()]
    for _ in range(n_ends):
        patterns = [p + (g,) for p in patterns for g in range(max(p, default=-1) + 2)]
    return sorted(patterns, key=lambda p: -max(p, default=-1))


def block_tensor(q: list[np.ndarray], mono_pos: list[int], n_ends: int) -> np.ndarray:
    """Joint derivative values of one block over every placement of ``n_ends`` ends.

    ``q[r]`` holds q_r at the block's points, shape (batch, m); at the
    observable points ``mono_pos`` the ladder includes the monomial, and
    elsewhere q_0 = 1.  Entry [t_1, ..., t_k] is the product over the
    block's points of q_{r_u}(phi_u), where r_u counts the ends placed at u.
    Each coincidence pattern (a set partition of the ends) fills the entries
    whose ends coincide at least that much, through a diagonal view: the
    outer product of q_{|group|} over its groups, times q_0 at each
    observable point that no group touches (a mask, not a division, since
    q_0 = phi^power may vanish).  Coarser patterns come later and overwrite
    the entries they share, so each entry ends with its own pattern.  The
    result has shape (batch, m, ..., m), a view of a batch-last array.
    """
    batch, m = q[0].shape
    out = np.empty((m,) * n_ends + (batch,))   # batch last: long inner loops
    for labels in _coincidence_patterns(n_ends):
        groups = max(labels, default=-1) + 1
        view = np.einsum("".join(_LETTERS[g] for g in labels) + "n->"
                         + _LETTERS[:groups] + "n", out)
        view[...] = 1.0
        for g in range(groups):
            view *= q[labels.count(g)].T.reshape((1,) * g + (m,) + (1,) * (groups - g - 1)
                                                 + (batch,))
        index = np.indices((m,) * groups)[..., None]
        for p in mono_pos:
            view *= np.where((index == p).any(axis=0), 1.0, q[0][:, p])
    return np.moveaxis(out, -1, 0)


@functools.lru_cache(maxsize=256)
def _contraction_order(subscripts: str, shapes: tuple) -> tuple:
    return tuple(np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes),
                                optimize="greedy")[0])


def _contract_rows(subscripts: str, *operands) -> np.ndarray:
    """einsum(subscripts + "->n") in einsum's greedy order, found once per shape:
    the search costs as much as a contraction over a chunk of rows."""
    subscripts += "->n"
    return np.einsum(subscripts, *operands, optimize=_contraction_order(
        subscripts, tuple(op.shape for op in operands)))


# -- the expansion instance --------------------------------------------------------


def gauss_legendre_unit():
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def gaussian_bump_mean(mean, var, delta_m: float):
    """E[exp(-delta_m phi^2 / 2)] for phi ~ N(mean, var), in closed form."""
    spread = 1.0 + delta_m * var
    # in one array of a value per row and point: fresh ones cost more than the arithmetic
    out = np.empty(np.broadcast_shapes(np.shape(mean), np.shape(spread)))
    np.multiply(mean, mean, out=out)
    out *= -0.5 * delta_m
    out /= spread
    np.exp(out, out=out)
    out /= np.sqrt(spread)
    return out[()]


def gaussian_bump_first_moment(mean, var, delta_m: float):
    """E[phi exp(-delta_m phi^2 / 2)] for phi ~ N(mean, var), in closed form."""
    return mean / (1.0 + delta_m * var) * gaussian_bump_mean(mean, var, delta_m)


def gaussian_bump_pair_moments(mean_a, mean_b, var_a, var_b, cov, delta_a, delta_b):
    """(E[a b E], E[(1 - delta_a a^2) b E]), E = exp(-(delta_a a^2 + delta_b b^2) / 2),
    for (a, b) jointly Gaussian, in closed form.

    Tilting by E keeps (a, b) Gaussian, with mean (I + S D)^{-1} m and
    covariance (I + S D)^{-1} S, where m and S are the pair's mean and
    covariance and D = diag(delta_a, delta_b); the mean of E itself is
    det(I + S D)^{-1/2} exp(-m^T D (I + S D)^{-1} m / 2).  No inverse of S
    is taken, so a degenerate pair (var_b = 0) is fine.
    """
    # in place where it can be: the arrays hold one value per row and point pair
    spread_a, spread_b = 1.0 + delta_a * var_a, 1.0 + delta_b * var_b
    cov2 = cov * cov
    inv = spread_a * spread_b
    inv -= (delta_a * delta_b) * cov2
    inv = 1.0 / inv                                     # 1 / det(I + S D)
    tilt_a = spread_b * mean_a
    tilt_a -= cov * (delta_b * mean_b)
    tilt_a *= inv
    tilt_b = spread_a * mean_b
    tilt_b -= cov * (delta_a * mean_a)
    tilt_b *= inv
    cov_tilt = cov * inv
    var_tilt_a = var_a * spread_b
    var_tilt_a -= delta_b * cov2
    var_tilt_a *= inv
    norm = (-0.5 * delta_a * mean_a) * tilt_a
    norm -= (0.5 * delta_b * mean_b) * tilt_b
    norm = np.exp(norm) * np.sqrt(inv)
    first = tilt_a * tilt_b
    first += cov_tilt
    first *= norm
    # second = norm (tilt_b - delta_a (tilt_b (var_tilt_a + tilt_a^2) + 2 tilt_a cov_tilt))
    second = var_tilt_a
    second += tilt_a * tilt_a
    second *= tilt_b
    cov_tilt *= tilt_a
    second += 2.0 * cov_tilt
    second *= -delta_a
    second += tilt_b
    second *= norm
    return first, second


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
    def rod_points(self) -> np.ndarray:
        """Flat point ids of every rod, one row per rod.

        Flat ids run over a site's slices before the next site's, so each rod
        is a run of ids: a low-temperature rod is one site over one unit time
        interval (beta_hat an integer that divides n_slices), a
        high-temperature rod one site over its whole time circle.
        """
        per_site = 1
        if self.mode is RodMode.LOW_TEMPERATURE:
            per_site = round(self.grid.beta_hat)
            if abs(self.grid.beta_hat - per_site) > 1e-12 or per_site < 1:
                raise ValueError("low-temperature rods need integer beta_hat")
            if self.grid.n_slices % per_site:
                raise ValueError("n_slices must be divisible by the rod count per site")
        return np.arange(self.grid.n_points).reshape(-1, self.grid.n_slices // per_site)

    @cached_property
    def full_matrix(self) -> np.ndarray:
        return self.ensemble.kernel.grid_matrix(self.grid.all_points, self.grid.n_slices)

    @cached_property
    def x1_rod_ids(self) -> tuple[int, ...]:
        return tuple(sorted({int(t) // self.rod_points.shape[1] for t in self.monomials}))

    @cached_property
    def x1_points(self) -> np.ndarray:
        return np.concatenate([self.rod_points[r] for r in self.x1_rod_ids])

    @cached_property
    def x1_monomials(self) -> list[tuple[int, int]]:
        """(column in ``x1_points``, power) of each observable point."""
        column = {int(t): i for i, t in enumerate(self.x1_points)}
        return [(column[t], power) for t, power in self.monomials.items()]

    @cached_property
    def free_rod_ids(self) -> tuple[int, ...]:
        return tuple(r for r in range(len(self.rod_points)) if r not in self.x1_rod_ids)

    @property
    def gibbs_weight_coeff(self) -> float:
        return self.grid.delta_tau * self.ensemble.b_m

    @cached_property
    def xprime(self) -> PolyExp:
        return PolyExp.gibbs_prime(self.gibbs_weight_coeff, self.ensemble.delta_m)

    @cached_property
    def first_step_blocks(self) -> list[np.ndarray]:
        """[X_1, rest of the box]: the two blocks the first interpolation step cuts apart."""
        return [self.x1_points, self.rod_points[list(self.free_rod_ids)].ravel()]

    def blocks_for(self, yseq) -> list[np.ndarray]:
        return [self.x1_points] + [self.rod_points[r] for r in yseq]

    def gibbs_weight(self, phi_flat: np.ndarray, points) -> np.ndarray:
        """exp(-dt * sum of V(phi)) over the columns ``points`` of phi_flat."""
        return self._bump_weight(np.exp(-0.5 * self.ensemble.delta_m * phi_flat[:, points] ** 2))

    def _bump_weight(self, bump: np.ndarray) -> np.ndarray:
        """The Gibbs weight from the per-point factors exp(-delta_m phi^2 / 2)."""
        return np.exp(-self.gibbs_weight_coeff * bump.sum(axis=1))

    def _gibbs_factors(self, phi: np.ndarray, mean, var) -> tuple:
        """(e^{-V}, b, bump, c sum of (bump - E[bump])) of a block: what every control is made of.

        bump = exp(-delta_m phi^2 / 2) per point, E[bump] its closed-form mean
        given the normals a control conditions on (phi's conditional ``mean``
        and ``var``), and b = exp(-c sum of E[bump]), c = dt b_m, the block's
        mean-field Gibbs factor.  Each control is b times a first-order part
        less its conditional mean (for a rest block, the last entry): b is a
        function of the conditioning normals only, so the mean stays zero, and
        b tracks e^{-V} where V is not small.
        """
        c = self.gibbs_weight_coeff
        bump = _PowerCache(phi, self.ensemble.delta_m).gaussian(1)
        total = bump.sum(axis=1)
        expected = gaussian_bump_mean(mean, var, self.ensemble.delta_m).sum(axis=-1)
        return np.exp(-c * total), np.exp(-c * expected), bump, c * (total - expected)

    def block_matrix(self, blocks, s) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated covariance over the union of blocks, per row of a 2-d s: (points, C)."""
        pts = np.concatenate(blocks)
        labels = np.concatenate([np.full(len(b), i) for i, b in enumerate(blocks)])
        base = self.full_matrix[np.ix_(pts, pts)]
        if len(blocks) > 1:
            base = base * p_matrix(labels, s)
        return pts, base

    def sample_block(self, blocks, s, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map standard normals z (batch, n_pts) through the kernel's Cholesky root: (root, phi).

        The interpolated kernel is positive definite for s in [0, 1] (a convex
        mix of block restrictions of a positive definite kernel), and the
        Cholesky factor varies smoothly in s, so common z keep estimates
        smooth in s.  A 2-d s gives each row of z its own root.
        """
        chol = np.linalg.cholesky(self.block_matrix(blocks, s)[1])
        if chol.ndim == 3:
            return chol, np.matmul(chol, z[:, :, None])[:, :, 0]
        return chol, z @ chol.T

    # -- evaluators ---------------------------------------------------------

    def symbolic_integrand(self, tree: Tree, yseq) -> list[SymbolicTerm]:
        """Fully expanded derivative terms for one (tree, rod sequence)."""
        blocks = self.blocks_for(yseq)
        terms = [SymbolicTerm(coeff=1.0, factors={})]
        for l in range(2, tree.order + 1):
            pa, pb = blocks[tree.eta(l) - 1], blocks[l - 1]
            gmat = self.full_matrix[np.ix_(pa, pb)]
            terms = delta_apply(terms, pa, pb, gmat, self.xprime, self.monomials)
        return terms

    def _block_q(self, cache: _PowerCache, points: np.ndarray,
                 max_r: int) -> tuple[list[np.ndarray], list[int]]:
        """Ladder values q_0..q_max_r at a block's points, from its field's power cache,
        and the positions of the block's observable points."""
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
        return q, mono_pos

    def contraction_value(self, tree: Tree, yseq,
                          phi_flat: np.ndarray) -> np.ndarray:
        """Per-sample value of the chained derivative operators (fast path)."""
        blocks = self.blocks_for(yseq)
        return self._contract([tree], blocks, phi_flat[:, np.concatenate(blocks)])[0][0]

    def _contract(self, trees, blocks, phi: np.ndarray, leaf: np.ndarray | None = None,
                  pair: dict | None = None) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-sample chained-derivative values of each tree, and the blocks' Gibbs weight.

        The leading columns of ``phi`` hold the field at the points of the
        blocks, in order.  Every line of a tree puts one derivative end on
        each of the two blocks it joins, and a block receiving k ends
        contributes the tensor of ``block_tensor``: entry [t_1, ..., t_k] is
        the product over its points u of q_{r_u}(phi_u), r_u the number of
        ends at u, built one coincidence pattern of the ends at a time.
        The tensors and the lines' covariance blocks are contracted in one
        einsum per tree (``_contract_rows``).  Each block's ladders are evaluated once, to the
        most ends any of the trees places there, and its derivative tensors
        are shared between trees.  The weight reuses the ladders' Gaussian
        factors and equals ``gibbs_weight`` on those points bit for bit.

        ``leaf``, if given, is the last block's one-end tensor, shape
        (batch, points of the block), with that block's Gibbs factor already
        in it: it stands in for the block's ladder, and the weight covers
        the earlier blocks only.  ``pair``, if given as well, maps the ends
        k a tree places on the next-to-last block Y_{n-1} to a tensor of
        shape (batch, points of Y_{n-1}, points of Y_n): each tree adds its
        contraction, with the k ends on one point of Y_{n-1} and the leaf's
        end on Y_n, in place of those blocks' tensors.  Y_{n-1}'s Gibbs
        factor then moves into the leaf, and the weight covers the blocks
        before it.
        """
        body = blocks if leaf is None else blocks[:-1]
        edges = np.cumsum([0] + [len(b) for b in body])
        caches = [_PowerCache(phi[:, lo:hi], self.ensemble.delta_m)
                  for lo, hi in zip(edges, edges[1:])]
        lines = [[(tree.eta(l) - 1, l - 1) for l in range(2, tree.order + 1)]
                 for tree in trees]
        n_ends = [max(sum((pa, pb).count(bi) for pa, pb in tl) for tl in lines)
                  for bi in range(len(body))]
        q = [self._block_q(c, b, r) for c, b, r in zip(caches, body, n_ends)]
        if pair is not None:
            leaf = leaf * self._bump_weight(caches.pop().gaussian(1))[:, None]
        tensors: dict = {}  # (block, ends) -> derivative tensor
        out = []
        for tree_lines in lines:
            # einsum letters: the ends of line li are 2 li and 2 li + 1
            ends = ["".join(_LETTERS[2 * li + side] for li, line in enumerate(tree_lines)
                            for side in (0, 1) if line[side] == bi) for bi in range(len(blocks))]
            operands = []
            for bi, sub in enumerate(ends):
                if (bi, len(sub)) not in tensors:
                    tensors[bi, len(sub)] = block_tensor(*q[bi], len(sub)) if bi < len(q) else leaf
                operands.append(tensors[bi, len(sub)])
            covs = [self.full_matrix[np.ix_(blocks[pa], blocks[pb])] for pa, pb in tree_lines]
            line_subs = [_LETTERS[2 * li:2 * li + 2] for li in range(len(tree_lines))]
            value = _contract_rows(",".join(["n" + e for e in ends] + line_subs),
                                   *operands, *covs)
            if pair is not None:
                # Y_{n-1}'s ends share one point: their letters merge into its first
                mid = ends[-2]
                merged = [s.translate(str.maketrans(mid, mid[0] * len(mid))) for s in line_subs]
                subscripts = (["n" + e for e in ends[:-2]] + ["n" + mid[0] + ends[-1]]
                              + merged)
                value = value + _contract_rows(",".join(subscripts), *operands[:-2],
                                               pair[len(mid)], *covs)
            out.append(value)
        return out, self._bump_weight(np.concatenate([c.gaussian(1) for c in caches], axis=1))

    # -- Monte Carlo layers ---------------------------------------------------

    def i_term(self, tree: Tree, blocks, s, z: np.ndarray) -> np.ndarray:
        """Per-sample integrand of I_n on ``blocks`` (X_1 first) at s, on common draws z."""
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
        weight f(eta; s); the Gibbs weight multiplies the tree sum once.
        From order 2 on, the leaf Y_n's factor e^{-V(Y_n)} q_1(phi_w), which
        every tree holds once, is swapped for ``_tail_tensors``'s, where q_1
        gives way to its mean given s and the earlier blocks' normals: the
        control b (q_1 - E[q_1 | s, z_{<n}]), b the leaf's mean-field Gibbs
        factor (``_gibbs_factors``), multiplies only functions of those, so
        its mean is zero and the term's mean is unchanged.
        From order 3 on, each row also adds the pair control of Y_{n-1} and
        the leaf (``_tail_tensors``): the closed-form mean of the first-order
        product of their factors, given s and the normals before Y_{n-1},
        less the row's own product, contracted in ``_contract`` with
        Y_{n-1}'s ends on one point.
        ``map_rows`` does this work once per chunk, whose n_pts^2-value
        kernels ``accumulate`` bounds.  Trees share rows, so the error is the
        jackknife error of the per-row tree sum over the scrambles.  The
        empty sequence is order 1: no s, the one tree
        ``Tree(())`` with no lines and f = 1, so K is the block expectation of
        A exp(-V(X_1)) under the X_1-restricted kernel.
        """
        n = len(yseq) + 1
        if n > ORDER_CAP[self.mode]:
            raise ValueError(f"order {n} beyond the supported cap for {self.mode.value}")
        blocks = self.blocks_for(yseq)
        trees = enumerate_trees(n)
        n_pts = sum(len(b) for b in blocks)
        lead = n_pts - len(blocks[-1])   # points before the leaf Y_n
        mid = lead - len(blocks[-2]) if n > 2 else None  # points before Y_{n-1}

        def work(u):
            s, z = ndtr(u[:, :n - 1]), u[:, n - 1:]
            root, phi = self.sample_block(blocks, s, z)
            leaf, pair = self._tail_tensors(root, z, phi, mid, lead) if n > 1 else (None, None)
            ks, weight = self._contract(trees, blocks, phi, leaf, pair)
            return weight * sum(f_factor(tree, s) * k for tree, k in zip(trees, ks))

        source = map_rows(scrambled_normals(n_samples, n - 1 + n_pts, seed), work, n_pts ** 2)
        sums = accumulate(source, lambda v: (len(v), v.sum()), n_samples)
        k, dk = jackknife(sums, lambda c: c[1] / c[0])
        return float(k), float(dk)

    def _tail_tensors(self, root: np.ndarray, z: np.ndarray, phi: np.ndarray,
                      mid: int | None, lead: int) -> tuple[np.ndarray, dict | None]:
        """The leaf's one-end tensor with its control, and the last two blocks' pair controls.

        ``root`` holds each row's Cholesky root, phi = root z; the leaf Y_n
        is the points from ``lead`` on, and Y_{n-1} the points from ``mid``
        to ``lead`` (``mid`` None below order 3, where no pair is formed).
        Each control is scaled by the mean-field factor b of the blocks it
        stands for, given the normals it is conditioned on (``_gibbs_factors``).

        The leaf: q_1(y) = c delta_m y exp(-delta_m y^2 / 2), c = dt b_m, is
        its first ladder member.  Given the normals z_pre of the earlier
        blocks, phi_w is Gaussian with mean mu_w = root[w, :lead] z_pre and
        variance |root[w, lead:]|^2, so the tensor (e^{-V(Y_n)} - b) q_1(phi)
        + b g(mu), g(mu_w) = E[q_1(phi_w) | z_pre], has the plain one's mean.

        The pair, by the ends k on Y_{n-1}: {1: ..., 2: ...}, each (batch,
        points of Y_{n-1}, points of Y_n).  To first order in c, Y_{n-1}'s
        factor with k ends on point y is X^{(k)}(phi_y), X(y) = -c
        exp(-delta_m y^2 / 2).  Given the normals before Y_{n-1}, phi_y and
        mu_w are jointly Gaussian, read off the root, and g(mu) is
        mu exp(-kappa mu^2 / 2) up to a factor, so entry [y, w],
        E[X^{(k)}(phi_y) g(mu_w) | z_{<n-1}] - X^{(k)}(phi_y) g(mu_w), times
        the two blocks' mean-field factor, has conditional mean zero.
        """
        c, delta_m = self.gibbs_weight_coeff, self.ensemble.delta_m
        ws = slice(lead, None)
        leaf_var = np.einsum("nij,nij->ni", root[:, ws, ws], root[:, ws, ws])
        if mid is None:
            mean = np.matmul(root[:, ws, :lead], z[:, :lead, None])[..., 0]
        else:
            # rows of Y_{n-1} then Y_n: on the columns before Y_{n-1}, and on Y_{n-1}'s own
            pre = np.matmul(root[:, mid:, :mid], z[:, :mid, None])[..., 0]
            own = root[:, mid:, mid:lead]
            m = lead - mid
            mean = pre[:, m:] + np.matmul(own[:, m:], z[:, mid:lead, None])[..., 0]
        g = c * delta_m * gaussian_bump_first_moment(mean, leaf_var, delta_m)
        weight, mean_field, bump, _ = self._gibbs_factors(phi[:, ws], mean, leaf_var)
        leaf = (c * delta_m * (weight - mean_field)[:, None] * phi[:, ws] * bump
                + mean_field[:, None] * g)
        if mid is None:
            return leaf, None
        # both blocks given the normals before Y_{n-1}, whose Y_n points add Y_n's own variance
        var = np.einsum("nij,nij->ni", own, own)
        _, mean_field, bump, _ = self._gibbs_factors(
            phi[:, mid:], pre, var + np.pad(leaf_var, ((0, 0), (m, 0))))
        # batch last from here, as in block_tensor: long inner loops over the rows
        cov = np.matmul(own[:, :m], own[:, m:].transpose(0, 2, 1))
        pre, var, leaf_var, cov, y, bump, g = (
            np.ascontiguousarray(np.moveaxis(x, 0, -1))
            for x in (pre, var, leaf_var, cov, phi[:, mid:lead], bump[:, :m], g))
        spread = 1.0 + delta_m * leaf_var
        first, second = gaussian_bump_pair_moments(
            pre[:m, None], pre[None, m:], var[:m, None], var[None, m:], cov, delta_m,
            delta_m / spread)
        scale = (c * delta_m) ** 2 / spread ** 1.5
        bump *= c * delta_m
        ends = {1: scale * first - (y * bump)[:, None] * g,
                2: scale * second - ((1.0 - delta_m * y ** 2) * bump)[:, None] * g}
        return leaf, {k: np.moveaxis(mean_field * v, -1, 0) for k, v in ends.items()}

    def ratio_table(self, yseqs, n_samples: int, seed: int) -> np.ndarray:
        """Batch sums whose ratios F_j = Z(complement of X_n)/Z >= 1 belong to yseqs[j].

        Column 0 sums the weight exp(-V) of the whole box, column j + 1 the
        weight of the complement of X_1 and yseqs[j], over one set of
        reference draws.  F_j is column j + 1 over column 0, and since all
        ratios share the draws, ``jackknife`` of any combination of them,
        such as ``lambda c: k @ c[1:] / c[0]``, carries their correlation.
        """
        comps = []
        for yseq in yseqs:
            keep = set(self.x1_rod_ids) | set(yseq)
            comp = [self.rod_points[r] for r in range(len(self.rod_points)) if r not in keep]
            comps.append(np.concatenate(comp) if comp else None)
        all_pts = np.arange(self.grid.n_points)

        def columns(phi):
            flat = phi.reshape(len(phi), -1)
            return [self.gibbs_weight(flat, all_pts).sum()] + [
                self.gibbs_weight(flat, pts).sum() if pts is not None else float(len(flat))
                for pts in comps]

        fields = plain_stream(self.ensemble.sampler.sample, self.grid.n_points, seed)
        return accumulate(fields, columns, n_samples)

    def partition_weight(self, n_samples: int, seed: int) -> tuple[float, float]:
        """Z = E[exp(-V(T))] under the reference measure, with jackknife stderr."""
        all_pts = np.arange(self.grid.n_points)

        def columns(phi):
            return len(phi), self.gibbs_weight(phi.reshape(len(phi), -1), all_pts).sum()

        fields = plain_stream(self.ensemble.sampler.sample, self.grid.n_points, seed)
        z, dz = jackknife(accumulate(fields, columns, n_samples), lambda c: c[1] / c[0])
        return float(z), float(dz)

    def order_contribution(self, n: int, n_samples: int, seed: int) -> tuple[float, float]:
        """Sum over ordered rod sequences and trees of K * F at order n.

        The trees of a sequence share its rows (``cluster_term``), and each
        sequence has its own draws, so the sequences' K errors add in
        quadrature.  All F come from one set of reference draws, so their
        error is the jackknife error of the K-weighted sum of F.  Order 1 is
        the empty sequence: K is ``cluster_term(())``, the block expectation
        of A exp(-V(X_1)), and F is Z(X_1 complement)/Z.
        """
        yseqs = list(itertools.permutations(self.free_rod_ids, n - 1))
        sums = self.ratio_table(yseqs, n_samples, seed + 100_003)
        k, dk = np.array([self.cluster_term(yseq, n_samples, seed + 1013 * si)
                          for si, yseq in enumerate(yseqs)]).T
        value, f_err = jackknife(sums, lambda c: k @ c[1:] / c[0])
        total = sums.sum(axis=0)
        return float(value), math.hypot(float(np.linalg.norm(total[1:] / total[0] * dk)),
                                        float(f_err))

    def first_step_residual(self, n_samples: int, seed: int) -> tuple[float, ...]:
        """R_1 = direct - (order-1 term), ``_telescoped_residual`` at n = 1: (residual,
        stderr, direct, direct_stderr, term_one, term_one_stderr)."""
        return self._telescoped_residual(1, n_samples, seed)

    def second_step_residual(self, n_samples: int, seed: int) -> tuple[float, float]:
        """R_2 = direct - (order-1 + order-2 terms), ``_telescoped_residual`` at n = 2:
        (residual, stderr)."""
        return self._telescoped_residual(2, n_samples, seed)[:2]

    def _telescoped_residual(self, n: int, n_samples: int, seed: int) -> tuple[float, ...]:
        """R_n = direct - (terms 1..n), n = 1 or 2: a coupled end less a cut end on common rows.

        Each ordered rod sequence Y_2..Y_n (the empty one at n = 1) cuts the
        box into blocks [X_1, Y_2, ..., Y_n, rest], with s_1..s_{n-1} on the
        Gauss-Legendre nodes (one node of weight 1 at n = 1).  The coupled
        end, s_n = 1, integrates to R_{n-1} (direct at n = 1), the cut end,
        s_n = 0, to the order-n term.  Both share the Cholesky corner of
        X_n = X_1 + Y_2 + ... + Y_n, so the order-n tree's chained derivative
        of A e^{-V(X_n)} (``_contract``) is common to both, and only the rest
        block's Gibbs factor differs.  At each end it takes the leaf's
        control (``_gibbs_factors``): e^{-V(rest)} + b c sum of (bump -
        E[bump]), E given s and X_n's normals, b the block's mean-field
        factor.  Rows are scrambled Sobol normals; Z comes from the same rows
        through the reference root with X_1's points first, R_1's coupled
        root, and one jackknife over the scrambles covers the three ratios.
        Where X_n tiles the box the rest is empty and the residual is exactly
        0.  Every root is factored once per call.  Returns (residual, stderr,
        coupled, stderr, cut, stderr).
        """
        tree, = enumerate_trees(n)  # f(eta; s) = 1 at orders 1 and 2
        nodes, weights = gauss_legendre_unit()
        grid = [(s + (1.0,), math.prod(w)) for s, w in zip(
            itertools.product(nodes, repeat=n - 1), itertools.product(weights, repeat=n - 1))]
        ends = []  # per sequence: X_n's blocks and size, the cut root and variance, per node
        for yseq in itertools.permutations(self.free_rod_ids, n - 1):
            blocks = self.blocks_for(yseq)
            rest = self.rod_points[[r for r in self.free_rod_ids if r not in yseq]].ravel()
            lead = sum(len(b) for b in blocks)
            cut = self.full_matrix[np.ix_(rest, rest)]
            roots = [np.linalg.cholesky(self.block_matrix(blocks + [rest], s)[1]) for s, _ in grid]
            ends.append((blocks, lead, (np.linalg.cholesky(cut), np.diag(cut).copy()),
                         [(c, np.sum(c[lead:, lead:] ** 2, axis=1), w)
                          for c, (_, w) in zip(roots, grid)]))
        ref_root = np.linalg.cholesky(self.block_matrix(self.first_step_blocks, (1.0,))[1])

        def rest_factor(phi, mean, var):  # e^{-V(rest)}, and that with its control
            weight, mean_field, _, control = self._gibbs_factors(phi, mean, var)
            return weight, weight + mean_field * control

        def work(z):
            out = np.zeros((len(z), 4))  # residual, coupled end, cut end, Z
            for blocks, lead, (cut_root, cut_var), roots in ends:
                end_cut = rest_factor(z[:, lead:] @ cut_root.T, 0.0, cut_var)[1]
                for chol, var, w in roots:
                    phi = z @ chol.T
                    (k,), weight = self._contract([tree], blocks, phi)
                    plain, end = rest_factor(phi[:, lead:], z[:, :lead] @ chol[lead:, :lead].T,
                                             var)
                    shared = w * (k * weight)
                    out[:, 0] += shared * (end - end_cut)
                    out[:, 1] += shared * end
                    out[:, 2] += shared * end_cut
            # at n = 1 the one coupled end is the reference kernel, and its weight Z's
            out[:, 3] = weight * plain if n == 1 else self.gibbs_weight(z @ ref_root.T, slice(None))
            return out

        # a row's normals and one field: smaller chunks, whose temporaries cost less
        source = map_rows(scrambled_normals(n_samples, self.grid.n_points, seed), work,
                          2 * self.grid.n_points)
        sums = accumulate(source, lambda v: v.sum(axis=0), n_samples)
        values, errors = jackknife(sums, lambda c: c[:3] / c[3])
        return tuple(float(x) for pair in zip(values, errors) for x in pair)


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

    R_1 and, when a later order follows, R_2 are the coupled less the cut
    end of one telescoped loop on common rows (``_telescoped_residual``).
    R_1 (``first_step_residual``, ``first_step_samples`` rows) cuts X_1
    from the rest, and the order-1 term is the cut end's own ratio, with its
    own jackknife error (direct and R_1 share the rows, so their errors are
    not independent).  R_2 (``second_step_residual``, ``order_samples[2]``
    rows) cuts each Y_2 from the rest, and the order-2 contribution is
    reported as R_1 - R_2.  The last residual always
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
    r1, dr1, direct, ddirect, term_one, dterm_one = instance.first_step_residual(
        first_step_samples, seed)
    done(1, 1)
    orders = [(term_one, dterm_one)]
    residuals = [(abs(r1), dr1)]
    partial = [(term_one, dterm_one)]
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


# -- interpolation-identity diagnostics ---------------------------------------------


@dataclass(frozen=True)
class SplitReport:
    direct: tuple
    term_one: tuple
    remainder: tuple       # R_1 = direct - term_one on common draws
    remainder_ibp: tuple   # the s integral of the two-point operator term, own draws


def newton_leibniz_report(instance: ClusterInstance, n_samples: int,
                          seed: int) -> SplitReport:
    """First-step identity: direct = (order-1 term) + integral of d/ds E_s / Z.

    Cutting X_1 from the rest of the box with blocks [X_1, rest], the
    derivative of the interpolated expectation is, by Gaussian integration
    by parts, E_s[D_{X_1,rest} A e^-V(T)].  ``first_step_residual`` gives
    direct, the order-1 term (the s = 0 end) and their difference R_1 on
    common draws; the remainder is computed independently by the two-point
    operator (``i_term``) at the Gauss-Legendre nodes on scrambled Sobol
    rows of its own (seed + 5), self-normalised by the weight of the same
    normals at the s = 1 end, which is the reference kernel.  The identity
    holds when R_1 and that remainder agree within their independent errors.
    """
    r1, dr1, direct, ddirect, term_one, dterm_one = instance.first_step_residual(
        n_samples, seed)
    tree = Tree(parent=(1,))
    blocks = instance.first_step_blocks
    nodes, weights = gauss_legendre_unit()

    def columns(z):
        ibp = sum(w * instance.i_term(tree, blocks, np.array([x]), z)
                  for x, w in zip(nodes, weights))
        coupled = instance.sample_block(blocks, np.array([1.0]), z)[1]
        return ibp.sum(), instance.gibbs_weight(coupled, slice(None)).sum()

    sums = accumulate(scrambled_normals(n_samples, instance.grid.n_points, seed + 5), columns,
                      n_samples)
    ibp, dibp = jackknife(sums, lambda c: c[0] / c[1])
    return SplitReport(direct=(direct, ddirect), term_one=(term_one, dterm_one),
                       remainder=(r1, dr1), remainder_ibp=(float(ibp), float(dibp)))
