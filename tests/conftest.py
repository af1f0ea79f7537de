"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from lagrangian_lab import (
    Coefficients,
    HypergraphError,
    SolverConfig,
    check_rational_feasible,
    closed_form_exact,
    eval_L,
    gen_random,
    validate,
)
from lagrangian_lab import compression, optimizer
from lagrangian_lab.hypergraph import _from_masks
from lagrangian_lab.objective import Objective


@pytest.fixture
def fast_cfg():
    """Small multistart budget; clique and prefix warm starts do the real work."""
    return SolverConfig(starts=8, seed=12345)


def brute_force_max_complete(h, types):
    """Subset enumeration oracle, independent of the branch-and-bound search."""
    levels = {r: frozenset(h.level_edges(r)) for r in sorted(set(types))}
    best = ()
    verts = range(1, h.n + 1)
    for size in range(h.n, 0, -1):
        for cand in itertools.combinations(verts, size):
            ok = True
            for r, es in levels.items():
                if r > size:
                    continue
                if any(tuple(c) not in es for c in itertools.combinations(cand, r)):
                    ok = False
                    break
            if ok:
                return size, cand
    return 0, best


def reference_link_table(h, r):
    """Level r's link table by a loop over the edges: the mask (bit v for
    vertex v) of each (r-1)-subset of an r-edge maps to the mask of the
    vertices that complete it to an r-edge."""
    table = {}
    for e in h.level_edges(r):
        edge = sum(bits := [1 << v for v in e])
        for bit in bits:
            table[edge ^ bit] = table.get(edge ^ bit, 0) | bit
    return table


def support_pair_cover(h, result):
    """Whether every pair of support vertices lies jointly inside some edge."""
    covered = {p for e in h.edges() for p in itertools.combinations(e, 2)}
    return all(p in covered for p in itertools.combinations(result.support, 2))


def fd_gradient(h, coeffs, x, step=1e-6):
    """Central finite differences of the objective in ambient coordinates."""
    base = np.asarray(x, dtype=float)
    out = np.zeros(base.size)
    for i in range(base.size):
        up = base.copy()
        dn = base.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (eval_L(h, coeffs, up) - eval_L(h, coeffs, dn)) / (2.0 * step)
    return out


TYPE_FAMILIES = ((2,), (1, 2), (2, 3), (1, 2, 3))


def random_instance(seed, n_max=7, families=TYPE_FAMILIES):
    """Seeded random hypergraph with at least one edge on its largest level."""
    rng = random.Random(seed)
    types = rng.choice(families)
    n = rng.randint(max(types), n_max)
    for attempt in range(50):
        h = gen_random(n, types, rng.uniform(0.3, 0.9), seed * 1000 + attempt)
        if h.edge_types == tuple(sorted(types)):
            return h
    raise AssertionError(f"could not build an instance for seed {seed}")


def coeffs_for(h):
    return Coefficients.ones(h.edge_types)


def random_simplex_point(rng, n):
    raws = [-np.log(rng.random()) for _ in range(n)]
    total = sum(raws)
    return np.array([v / total for v in raws])


def check_feasible(x, n=None, tol=1e-12):
    """Validate simplex membership: nonnegative entries summing to 1 within tol."""
    arr = np.asarray(x, dtype=float).ravel()
    if n is not None and arr.size != n:
        raise ValueError(f"weight vector has length {arr.size}, expected {n}")
    if arr.size == 0:
        raise ValueError("weight vector must be nonempty")
    if arr.min() < -tol:
        raise ValueError(f"negative weight {arr.min()}")
    if abs(arr.sum() - 1.0) > tol:
        raise ValueError(f"weights sum to {arr.sum()}, expected 1")
    return arr


def eval_lambda_prime(h, x):
    """Non-uniform Lagrangian: each level r weighted by r!, summed with fsum
    and sharing no code with the package's evaluator."""
    xs = [float(v) for v in x]
    if len(xs) != h.n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {h.n}")
    return math.fsum(
        math.factorial(r) * math.fsum(math.prod(xs[v - 1] for v in e) for e in es)
        for r, es in h.levels
    )


def lambda_prime_exact(h, x):
    """Exact non-uniform Lagrangian at a rational simplex point."""
    xs = check_rational_feasible(x, h.n)
    total = Fraction(0)
    for r, es in h.levels:
        total += math.factorial(r) * sum(math.prod(xs[v - 1] for v in e) for e in es)
    return total


def lambda_prime_complete(t, types):
    """Non-uniform Lagrangian of the complete T-pattern on t vertices at the
    uniform weighting: the sum of r! C(t, r) / t^r over r in ``types``."""
    return sum(
        (Fraction(math.factorial(r) * math.comb(t, r), t**r) for r in set(types)), Fraction(0)
    )


def gradient_exact(h, coeffs, x):
    """Exact gradient of L at a rational point, as a list of ``Fraction``s:
    entry j adds up, over the edges through j, the coefficient times the
    product of the edge's other weights. Each weight is k_v / d over the lcm
    d of the denominators, so a level's products are integers over d**(r-1)."""
    xs = [Fraction(v) for v in x]
    d = math.lcm(*(v.denominator for v in xs))
    k = [v.numerator * (d // v.denominator) for v in xs]
    out = [Fraction(0)] * h.n
    for r, es in h.levels:
        sums = [0] * h.n
        for e in es:
            for j in e:
                sums[j - 1] += math.prod(k[v - 1] for v in e if v != j)
        a = Fraction(coeffs.coefficient(r))
        out = [g + a * Fraction(s, d ** (r - 1)) for g, s in zip(out, sums)]
    return out


def hessian_exact(h, coeffs, x):
    """Exact Hessian of L at any point, as a list of ``Fraction`` rows:
    entry (i, j) sums, over the edges through both i and j, the coefficient
    times the product of the edge's other weights."""
    xs = [Fraction(v) for v in x]
    out = [[Fraction(0)] * h.n for _ in range(h.n)]
    for r, es in h.levels:
        a = Fraction(coeffs.coefficient(r))
        for e in es:
            for i, j in itertools.permutations(e, 2):
                out[i - 1][j - 1] += a * math.prod(
                    (xs[v - 1] for v in e if v not in (i, j)), start=Fraction(1))
    return out


class PairQuantities(NamedTuple):
    """Weighted link values for a vertex pair (i, j).

    ``e_ij``: edges through both, evaluated on the remaining vertices.
    ``e_i_not_j``: edges through i (j absent) whose j-swapped image is not
    an edge; symmetric for ``e_j_not_i``. These are the second-derivative
    and difference structures behind the equal-gradient optimality
    conditions: grad_i - grad_j = (x_j - x_i) * e_ij + e_i_not_j - e_j_not_i.
    """

    e_ij: float
    e_i_not_j: float
    e_j_not_i: float


def pair_quantities(h, coeffs, x, i, j):
    if i == j:
        raise ValueError("pair quantities need two distinct vertices")
    xs = [float(v) for v in x]
    if len(xs) != h.n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {h.n}")
    both, i_only, j_only = [], [], []
    for r, es in h.levels:
        a = float(coeffs.coefficient(r))
        existing = frozenset(h.level_edges(r))
        for e in es:
            has_i = i in e
            has_j = j in e
            if has_i and has_j:
                both.append(a * math.prod(xs[v - 1] for v in e if v != i and v != j))
            elif has_i:
                image = tuple(sorted([j] + [v for v in e if v != i]))
                if image not in existing:
                    i_only.append(a * math.prod(xs[v - 1] for v in e if v != i))
            elif has_j:
                image = tuple(sorted([i] + [v for v in e if v != j]))
                if image not in existing:
                    j_only.append(a * math.prod(xs[v - 1] for v in e if v != j))
    return PairQuantities(math.fsum(both), math.fsum(i_only), math.fsum(j_only))


def is_complete_on(h, vertices, types):
    """True iff every r-subset of ``vertices`` is an edge, for each r in ``types`` with r <= |vertices|."""
    s = sorted(set(vertices))
    if any(v < 1 or v > h.n for v in s):
        raise HypergraphError(f"vertex set {s} not within 1..{h.n}")
    for r in sorted(set(types)):
        if r > len(s):
            continue
        es = frozenset(h.level_edges(r))
        if any(c not in es for c in itertools.combinations(s, r)):
            return False
    return True


def compress_edge(e, i, j):
    """Image of one edge under the (i <- j) compression; identity when it does
    not apply. A tuple-level oracle for the package's bitmask pass."""
    if i >= j:
        raise ValueError(f"compression requires i < j, got i={i}, j={j}")
    if j in e and i not in e:
        return tuple(sorted([i] + [v for v in e if v != j]))
    return tuple(e)


def compress_hypergraph(h, i, j):
    """The (i <- j) compression of every level of ``h``: the pass that
    ``left_compress_fixpoint`` runs, on the one pair (i, j)."""
    return _from_masks(h.n, compression._compress(compression._masks(h), [(i, j)]))


def kkt_residual(h, coeffs, x):
    """The solver's first-order optimality defect at the point x: gradient
    spread across the support plus any off-support gradient exceeding it."""
    row = np.asarray(x, dtype=float).ravel()[None, :]
    return float(optimizer._residuals(row, Objective(h, coeffs).gradients(row))[0])


def compression_potential(h):
    """Sum of all vertex labels over all edges; strictly decreases on effective steps."""
    return sum(v for e in h.edges() for v in e)


def level(h, r):
    """The uniform sub-hypergraph of all r-edges, on the same vertex set."""
    return validate(h.n, h.level_edges(r))


def closed_form(theorem, params):
    """``closed_form_exact`` as a float."""
    return float(closed_form_exact(theorem, params))


def to_text(h):
    """The plain-text form ``from_text`` reads: n, then one edge per line."""
    lines = [str(h.n)]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges())
    return "\n".join(lines) + "\n"


def coeffs_to_json(coeffs):
    """The ``Coefficients.from_json`` document of ``coeffs``; a Fraction
    with denominator 1 is written as an int, any other as "p/q"."""

    def enc(a):
        if isinstance(a, Fraction):
            return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else a.numerator
        return a

    return json.dumps({"r0": coeffs.r0, "alpha": {str(r): enc(a) for r, a in coeffs.alpha}})
