"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from lagrangian_lab import Coefficients, SolverConfig, eval_L, gen_random


@pytest.fixture
def fast_cfg():
    """Small multistart budget; clique and prefix warm starts do the real work."""
    return SolverConfig(starts=8, seed=12345)


def brute_force_max_complete(h, types):
    """Subset enumeration oracle, independent of the branch-and-bound search."""
    ts = sorted(set(types))
    best = ()
    verts = range(1, h.n + 1)
    for size in range(h.n, 0, -1):
        for cand in itertools.combinations(verts, size):
            ok = True
            for r in ts:
                if r > size:
                    continue
                es = h.edge_set(r)
                if any(tuple(c) not in es for c in itertools.combinations(cand, r)):
                    ok = False
                    break
            if ok:
                return size, cand
    return 0, best


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
