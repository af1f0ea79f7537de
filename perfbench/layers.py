"""Per-layer measurements of the traced run.

Three kinds:

* microbenchmarks of cheap layer calls on the workload's own instances
  (largest or median by edge count), timed with tracing off;
* a fixed suite on standard seeded inputs for the expensive entry points
  (maximize, polish, grid oracle, compression fixpoint, verify, the CLI
  sweep); verify and the sweep are traced for their self times;
* the two pathological instances from the roadmap, run once each.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import time

import numpy as np

from tracer import Instrumented, Tracer
from workloads import complete_on, edge_levels


def _timed(fn, repeat: int, number: int = 1) -> float:
    """Median over ``repeat`` rounds of the mean time of ``number`` calls."""
    rounds = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        rounds.append((time.perf_counter() - t0) / number)
    return statistics.median(rounds)


def _non_edges(h, rng: random.Random, count: int) -> list[tuple]:
    out = []
    existing = set(h.edges())
    types = h.edge_types
    while len(out) < count:
        r = rng.choice(types)
        e = tuple(sorted(rng.sample(range(1, h.n + 1), r)))
        if e not in existing:
            out.append(e)
    return out


def microbenchmarks(lab, largest, median, seed: int) -> dict[str, float]:
    """Cheap layer calls on the workload's largest and median instances."""
    rng = random.Random(f"micro:{seed}")
    np_rng = np.random.default_rng(rng.randrange(2**31))
    h = largest
    edges = h.edges()
    queries = rng.sample(edges, min(64, len(edges))) + _non_edges(h, rng, 64)
    m = {}
    m["hypergraph.has_edge_us"] = 1e6 * _timed(
        lambda: [h.has_edge(q) for q in queries], repeat=5) / len(queries)
    m["hypergraph.hash_us"] = 1e6 * _timed(lambda: hash(h), repeat=5, number=50)
    m["hypergraph.validate_ms"] = 1e3 * _timed(lambda: lab.validate(h.n, edges), repeat=5)

    types = median.edge_types
    found = lab.max_complete_subgraph(median, types)
    m["cliques.max_complete_subgraph_s"] = _timed(
        lambda: lab.max_complete_subgraph(median, types), repeat=3)
    m["cliques.contains_complete_s"] = _timed(
        lambda: lab.contains_complete(median, found.order + 1, types), repeat=3)

    coeffs = lab.Coefficients.ones(h.edge_types)
    points = [np_rng.dirichlet(np.ones(h.n)) for _ in range(8)]
    m["objective.eval_L_us"] = 1e6 * _timed(
        lambda: [lab.eval_L(h, coeffs, x) for x in points], repeat=5) / len(points)
    m["objective.gradient_us"] = 1e6 * _timed(
        lambda: [lab.gradient(h, coeffs, x) for x in points], repeat=5) / len(points)
    exact_x = lab.rational_uniform(h.n)
    m["objective.eval_exact_ms"] = 1e3 * _timed(
        lambda: lab.eval_exact(h, coeffs, exact_x), repeat=3)
    vectors = [np_rng.normal(size=h.n) for _ in range(32)]
    m["optimizer.project_to_simplex_us"] = 1e6 * _timed(
        lambda: [lab.project_to_simplex(v) for v in vectors], repeat=5) / len(vectors)

    params = [(name, {"t": t, **extra}) for t in (4, 5, 6) for name, extra in (
        ("TWO_R_T6a", {"r": 3}), ("TWO_R_EDGES_T7a", {"r": 3}), ("PTZ", {"r": 3}),
        ("MIXED_T10b", {"types": (1, 3)}), ("TPZZ", {}), ("MIXED_T10c", {}))]
    m["theorems.closed_form_exact_us"] = 1e6 * _timed(
        lambda: [lab.closed_form_exact(name, p) for name, p in params],
        repeat=5, number=10) / len(params)
    return m


# Standard inputs of the suite: the same for every workload, drawn from the seed.
PLANTED = (("t6a", {"t": 5}), ("t7a", {"t": 5}), ("ptz", {"t": 5}), ("tpzz-free", {"t": 5}))


def suite(lab, seed: int) -> tuple[dict[str, float], list[tuple[bool, float]]]:
    """Expensive entry points on standard inputs. Returns the metrics and
    (converged, kkt_residual) of every maximize/polish result."""
    rng = random.Random(f"suite:{seed}")
    solve = lab.gen_random(8, (2, 3), 0.55, rng.randrange(2**31))
    solve_coeffs = lab.Coefficients.ones(solve.edge_types)
    start = lab.uniform_weights(solve.n)
    grid = lab.gen_random(6, (2, 3), 0.55, rng.randrange(2**31))
    grid_coeffs = lab.Coefficients.ones(grid.edge_types)
    grid_d = 20
    churn = lab.gen_random(10, (2, 3), 0.5, rng.randrange(2**31))
    planted_seeds = [rng.randrange(2**31) for _ in PLANTED]
    planted = lab.gen_planted("t6a", {"t": 5}, rng.randrange(2**31))
    cfg = lab.SolverConfig(starts=16, seed=rng.randrange(2**31))
    sweep_seed = rng.randrange(2**20)
    results = []

    def sweep():
        argv = ["sweep", "--family", "t6a", "--theorem", "TWO_R_T6a",
                "--seeds", f"{sweep_seed}..{sweep_seed + 2}", "--params", '{"t": 5}',
                "--starts", "16", "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = lab.cli.run(argv)
        if code != 0:
            raise RuntimeError(f"cli sweep exited {code}")

    m = {
        "optimizer.maximize_s": _timed(
            lambda: results.append(lab.maximize(solve, solve_coeffs, cfg)), repeat=3),
        "optimizer.polish_s": _timed(
            lambda: results.append(lab.polish(solve, solve_coeffs, start, cfg)), repeat=3),
        "optimizer.grid_oracle_s": _timed(
            lambda: lab.grid_oracle(grid, grid_coeffs, grid_d), repeat=3),
        "compression.fixpoint_s": _timed(lambda: lab.left_compress_fixpoint(churn), repeat=3),
        "generators.gen_planted_s": _timed(
            lambda: [lab.gen_planted(f, p, s) for (f, p), s in zip(PLANTED, planted_seeds)],
            repeat=3),
    }
    m["optimizer.grid_points_per_s"] = math.comb(grid_d + grid.n - 1, grid.n - 1) / m[
        "optimizer.grid_oracle_s"]
    verify = _spans_of(lambda: [lab.verify("TWO_R_T6a", planted, {"t": 5}, cfg) for _ in range(3)])
    m["theorems.verify_self_s"] = verify["theorems.verify"]["self_s"] / 3
    m["theorems.check_hypotheses_s"] = verify["theorems.check_hypotheses"]["total_s"] / 3
    cli = _spans_of(sweep)["cli.run"]
    m["cli.sweep_s"] = cli["total_s"]
    m["cli.self_s"] = cli["self_s"]
    return m, [(bool(r.converged), float(r.kkt_residual)) for r in results]


def _spans_of(fn) -> dict[str, dict]:
    """Span summary of one traced call of ``fn``."""
    tracer = Tracer()
    with Instrumented(tracer):
        fn()
    return tracer.summary()


def probes(lab) -> tuple[dict[str, float], list[str]]:
    """The roadmap's two pathological instances, once each, tracing off."""
    failures = []
    h = lab.gen_random(7, (2, 3), 0.6, 3)
    coeffs = lab.Coefficients.ones(h.edge_types)
    t0 = time.perf_counter()
    res = lab.maximize(h, coeffs)
    solve_s = time.perf_counter() - t0
    if not res.converged or res.kkt_residual > 1e-6:
        failures.append("probe maximize: not converged")

    g = lab.gen_random(24, (2, 3, 4), 0.9, 1)
    t0 = time.perf_counter()
    clique = lab.max_complete_subgraph(g, g.edge_types)
    clique_s = time.perf_counter() - t0
    levels, found = edge_levels(g), clique.vertices
    if not complete_on(levels, found, g.edge_types) or any(
            complete_on(levels, found + (v,), g.edge_types)
            for v in range(1, g.n + 1) if v not in found):
        failures.append("probe clique: result is not a maximal complete set")
    return {"probe.maximize_s": solve_s, "probe.clique_s": clique_s}, failures
