"""Instance families for verification sweeps and property tests.

Each planted family targets one registered theorem's hypothesis shape and
is checked once after construction: its builder randomizes only parts that
the target hypotheses do not read, so a failed check means an infeasible
parameter window and raises rather than resampling; the error names each
failed condition with its detail. ``tpzz-free`` samples until it finds a
clique-free graph, with a bounded retry budget. Generation is a pure
function of (family, parameters, seed); a seed is a non-negative integer.

Parameters are read by ``theorems._read_params``, as the theorems read
them: ``t`` (default 4), ``r`` (3), ``n`` and ``m`` are ints, ``alpha_r``
is a positive rational, ``density`` and ``extra_density`` are numbers in
[0, 1], ``types`` is a list of positive ints, ``null`` means the default,
and an unknown key raises; ``gen_random`` reads ``density`` as they do.
``t6a``, ``t7a`` and ``ptz`` need r >= 3 and share one builder: it plants
a clique on [t] and adds the m - lo extra edges of one window through
vertex t+1. ``t6a`` and ``t7a`` plant every 2- and r-edge on [t] with extra
2-edges (``t6a`` is ``t7a`` with m at the floor C(t, 2) of its 2-level
window), and keep each other r-edge on [n] with probability
``extra_density`` (0.3). ``ptz`` plants the r-edges on [t] with extra
r-edges and n = t+1. Every builder checks its vertex count and levels
against the soft limits before it lists any edge.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping

from .cliques import contains_complete
from .compression import left_compress_fixpoint
from .hypergraph import Edge, Hypergraph, _check_limits, _read_int, _read_types, complete, validate
from .theorems import (
    _read_params,
    _read_real,
    check_hypotheses,
    pair_edge_window,
    strict_three_window,
    uniform_edge_window,
)

_MAX_RETRIES = 1000

FAMILIES = ("t6a", "t7a", "ptz", "tpzz-free", "random-lc")


class GenerationError(ValueError):
    """Infeasible parameter window or sampling budget exhausted."""


def gen_random(n: int, types: Iterable[int], density: float, seed: int) -> Hypergraph:
    """Independent per-edge sampling: each potential edge on a level of
    ``types`` kept with probability ``density``. Density 1 reproduces the
    complete T-pattern."""
    n, ts = _read_int("n", n), _read_types("types", types)
    p = _read_real("density", density)
    _check_limits(n)
    rng = random.Random(_read_int("seed", seed, 0))
    edges: list[Edge] = []
    for r in ts:
        for e in itertools.combinations(range(1, n + 1), r):
            if p >= 1.0 or (p > 0.0 and rng.random() < p):
                edges.append(e)
    return validate(n, edges)


def with_singletons(h: Hypergraph) -> Hypergraph:
    """Add every vertex's singleton edge (the {1,...}-wrapper of a graph)."""
    existing = set(h.edges())
    existing.update((v,) for v in range(1, h.n + 1))
    return validate(h.n, existing)


def _plant(rng: random.Random, t: int, n: int, levels: tuple[int, ...], window: int,
           bounds: tuple[int, int], m: int) -> list[Edge]:
    """Every edge of ``levels`` on [t], plus m - lo edges of level ``window``
    through vertex t+1, where [lo, hi] = ``bounds`` is the window of m.

    hi - lo is below the C(t, window-1) places for an extra, so vertex t+1
    never joins the clique."""
    lo, hi = bounds
    if not lo <= m <= hi:
        raise GenerationError(f"m={m} outside the {window}-level window [{lo}, {hi}] for t={t}")
    if n < t + 1 and m > lo:
        raise GenerationError(f"extra {window}-edges need an attachment vertex t+1; raise n")
    if n < t:
        raise GenerationError(f"need n >= t, got n={n}, t={t}")
    if t < max(levels):
        raise GenerationError(f"need t >= r, got t={t}, r={max(levels)}")
    edges = complete(t, levels).edges()
    pool = [c + (t + 1,) for c in itertools.combinations(range(1, t + 1), window - 1)]
    return edges + sorted(rng.sample(pool, m - lo))


def _gen_tpzz_free(rng: random.Random, t: int, m: int, n: int) -> Hypergraph:
    lo, hi = strict_three_window(t)
    if not lo <= m <= hi:
        raise GenerationError(f"m={m} outside the strict window [{lo}, {hi}] for t={t}")
    pool = list(itertools.combinations(range(1, n + 1), 3))
    if m > len(pool):
        raise GenerationError(f"m={m} exceeds the {len(pool)} possible 3-edges on n={n}")
    for _ in range(_MAX_RETRIES):
        h = validate(n, rng.sample(pool, m))
        if not contains_complete(h, t, (3,)):
            return h
    raise GenerationError(
        f"could not sample a clique-free 3-graph with m={m}, t={t}, n={n} "
        f"in {_MAX_RETRIES} attempts"
    )


def gen_planted(family: str, params: Mapping | None = None, seed: int = 0) -> Hypergraph:
    """Build one instance of a named family; deterministic in (family, params, seed)."""
    p = _read_params(params)
    rng = random.Random(_read_int("seed", seed, 0))
    t, r = p.get("t", 4), p.get("r", 3)
    if family not in FAMILIES:
        raise GenerationError(f"unknown family {family!r}; choose from {FAMILIES}")
    n, levels = {
        "t6a": (p.get("n", t + 2), (2, r)),
        "t7a": (p.get("n", t + 1), (2, r)),
        "ptz": (t + 1, (r,)),
        "tpzz-free": (p.get("n", t + 2), (3,)),
        "random-lc": (p.get("n", 6), p.get("types", (2, 3))),
    }[family]
    if family in ("t6a", "t7a", "ptz") and r < 3:
        # PTZ needs r >= 3, and t6a and t7a plant the 2-level on its own, so
        # r = 2 would plant it twice.
        raise GenerationError(f"family {family!r} needs r >= 3, got r={r}")
    _check_limits(n)

    if family in ("t6a", "t7a"):
        lo, hi = pair_edge_window(t)
        target, m = ("TWO_R_T6a", lo) if family == "t6a" else ("TWO_R_EDGES_T7a", p.get("m", hi))
        tparams = {"t": t, "r": r, "alpha_r": p.get("alpha_r")}
        edges = _plant(rng, t, n, (2, r), 2, (lo, hi), m)
        extra_density = p.get("extra_density", 0.3)
        rest = [e for e in complete(n, (r,)).edges()
                if e[-1] > t and rng.random() < extra_density]
        h = validate(n, edges + rest)
    elif family == "ptz":
        bounds = uniform_edge_window(t, r)
        if bounds[1] < bounds[0]:
            raise GenerationError(f"PTZ's {r}-level window {list(bounds)} is empty for t={t}")
        target, tparams = "PTZ", {"t": t, "r": r}
        h = validate(n, _plant(rng, t, n, (r,), r, bounds, p.get("m", bounds[0])))
    elif family == "tpzz-free":
        m = p.get("m", strict_three_window(t)[0])
        return _gen_tpzz_free(rng, t, m, n)  # clique-freeness is its own check
    else:
        density = p.get("density", 0.5)
        return left_compress_fixpoint(gen_random(n, levels, density, rng.randrange(2**63)))

    report = check_hypotheses(target, h, tparams)
    if not report.ok:
        failed = "; ".join(f"{c.name}: {c.detail}" for c in report.conditions if not c.ok)
        raise GenerationError(
            f"family {family!r} with params {dict(params or {})} failed its hypothesis check: {failed}"
        )
    return h
