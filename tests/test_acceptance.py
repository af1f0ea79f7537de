"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here exactly as stated; nothing is deferred
to later calibration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from lagrangian_lab import (
    Coefficients,
    SolverConfig,
    closed_form_exact,
    complete,
    eval_L,
    flavour_coefficients,
    gen_planted,
    gen_random,
    grid_oracle,
    gradient,
    maximize,
    polish,
    rational_uniform,
    relabel,
    validate,
    verify,
    with_singletons,
)
from lagrangian_lab.theorems import pair_edge_window, threshold_one_r

from conftest import (
    TYPE_FAMILIES,
    brute_force_max_complete,
    closed_form,
    compress_hypergraph,
    fd_gradient,
    lambda_prime_complete,
    lambda_prime_exact,
    pair_quantities,
    random_simplex_point,
)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def _cfg(seed=1, starts=6):
    return SolverConfig(starts=starts, seed=seed)


def test_criterion_01_motzkin_straus():
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for t in range(2, 9):
        res = maximize(complete(t, (2,)), Coefficients(2, {}), _cfg(t))
        err = abs(res.value - 0.5 * (1 - 1 / t))
        worst = max(worst, err)
        ok &= err <= 1e-6

    rng = random.Random(20_240)
    for _ in range(20):
        n = rng.randint(4, 10)
        planted = rng.sample(range(1, n + 1), rng.randint(2, n))
        edges = {(min(a, b), max(a, b)) for a in planted for b in planted if a < b}
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.3:
                    edges.add((i, j))
        h = validate(n, sorted(edges))
        t_true, _ = brute_force_max_complete(h, (2,))
        res = maximize(h, Coefficients(2, {}), _cfg(rng.randrange(10**6)))
        err = abs(res.value - 0.5 * (1 - 1 / t_true))
        worst = max(worst, err)
        ok &= err <= 1e-6
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _criterion(1, "pair-graph closed form (1/2)(1 - 1/t)", ok, f"worst err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_one_two_graphs():
    rng = random.Random(7_177)
    ok = True
    worst = 0.0
    for _ in range(20):
        n = rng.randint(3, 10)
        edges = [[v] for v in range(1, n + 1)]
        a, b = rng.sample(range(1, n + 1), 2)
        edges.append([a, b])
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.4 and sorted((i, j)) != sorted((a, b)):
                    edges.append([i, j])
        h = validate(n, edges)
        t, _ = brute_force_max_complete(h, (1, 2))
        res = maximize(h, flavour_coefficients("lambda'", (1, 2))[0], _cfg(rng.randrange(10**6)))
        value = math.factorial(1) * res.value
        err = abs(value - (2 - 1 / t))
        worst = max(worst, err)
        ok &= err <= 1e-6
    _criterion(2, "factorial-weighted {1,2} closed form 2 - 1/t", ok, f"worst err {worst:.2e}")


def test_criterion_03_one_r_family():
    ok = closed_form("ONE_R_T4", {"t": 5, "r": 3, "alpha_r": 6}) == 1.48
    ok &= closed_form_exact("ONE_R_T4", {"t": 5, "r": 3, "alpha_r": 6}) == Fraction(37, 25)
    ok &= threshold_one_r(3, Fraction(6)) == 5

    rng = random.Random(99)
    worst = 0.0
    for seed in range(5):
        n = 7
        edges = [[v] for v in range(1, 6)]  # singletons exactly on [5]
        edges += [list(c) for c in itertools.combinations(range(1, 6), 3)]
        for c in itertools.combinations(range(1, n + 1), 3):
            if max(c) > 5 and rng.random() < 0.3:
                edges.append(list(c))
        h = validate(n, edges)
        verdict = verify("ONE_R_T4", h, {"alpha_r": 6}, _cfg(seed))
        ok &= verdict.passed and verdict.t == 5
        worst = max(worst, abs(verdict.numerical - 1.48))
    _criterion(3, "{1,r} closed form 1.48 and threshold 5", ok, f"worst err {worst:.2e}")


def test_criterion_04_one_two_three_family():
    h = complete(3, (1, 2, 3))
    verdict = verify("ONE_TWO_THREE_T5", h, {"alpha_2": 1, "alpha_3": 1}, _cfg(4))
    ok = verdict.passed
    ok &= verdict.uniform_on_clique_exact == Fraction(37, 27)
    ok &= verdict.closed_form_exact == Fraction(37, 27)
    ok &= abs(verdict.numerical - 37 / 27) <= 1e-6
    _criterion(4, "{1,2,3} value 37/27 exact and numerical", ok)


def test_criterion_05_two_r_sweep():
    started = time.perf_counter()
    ok = closed_form("TWO_R_T6a", {"t": 4, "r": 3, "alpha_r": 1}) == 0.4375
    failures = []
    for seed in range(1, 26):
        n = 5 + (seed % 3)  # n in {5, 6, 7}
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": n}, seed=seed)
        verdict = verify("TWO_R_T6a", h, {"alpha_r": 1}, _cfg(seed, starts=4))
        if not verdict.passed:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    ok &= not failures and elapsed < 60.0
    _criterion(5, "{2,3} planted sweep, 25 seeds", ok, f"failures={failures}, {elapsed:.1f}s")


def test_criterion_06_edge_window_sweep():
    failures = []
    for t in (4, 5, 6):
        lo, hi = pair_edge_window(t)
        for m in range(lo, hi + 1):
            for seed in range(1, 6):
                h = gen_planted("t7a", {"t": t, "m": m, "r": 3}, seed=seed)
                verdict = verify("TWO_R_EDGES_T7a", h, {"alpha_r": 1}, _cfg(seed, starts=4))
                if not verdict.passed:
                    failures.append((t, m, seed))
    _criterion(6, "2-level edge-window sweep t=4..6, full windows, 5 seeds", not failures,
               f"failures={failures}")


def test_criterion_07_factorial_weight_values_and_wrappers():
    ok = lambda_prime_complete(4, (2, 3)) == Fraction(9, 8)
    ok &= lambda_prime_complete(4, (1, 3)) == Fraction(11, 8)
    ok &= lambda_prime_exact(complete(4, (2, 3)), rational_uniform(4)) == Fraction(9, 8)
    ok &= lambda_prime_exact(complete(4, (1, 3)), rational_uniform(4)) == Fraction(11, 8)
    worst = 0.0
    for m in range(4, 8):
        for seed in (1, 2):
            g = gen_planted("ptz", {"t": 4, "r": 3, "m": m}, seed=seed)
            h = with_singletons(g)
            verdict = verify("MIXED_T10b", h, cfg=_cfg(seed))
            ok &= verdict.passed
            worst = max(worst, abs(verdict.numerical - 1.375))
    _criterion(7, "9/8 and 11/8 exact; {1,3}-wrapped window instances", ok, f"worst err {worst:.2e}")


def test_criterion_08_strict_branch():
    margins = []
    ok = True
    for seed in range(1, 11):
        g = gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=seed)
        h = with_singletons(g)
        verdict = verify("MIXED_T10c", h, {"t": 4}, _cfg(seed))
        ok &= verdict.passed
        ok &= verdict.margin is not None and verdict.margin > 0
        ok &= verdict.numerical <= 1.375 - verdict.margin + 1e-12
        margins.append(verdict.margin)
    _criterion(8, "clique-free strict gap below 11/8", ok,
               f"min margin {min(margins):.4f}")


def test_criterion_09_compression_monotone_at_solutions():
    rng = random.Random(3_141)
    checked = 0
    ok = True
    while checked < 200:
        h = None
        types = TYPE_FAMILIES[rng.randrange(len(TYPE_FAMILIES))]
        n = rng.randint(max(max(types), 3), 7)
        h = gen_random(n, types, rng.uniform(0.35, 0.85), rng.randrange(10**6))
        if not h.edge_types:
            continue
        coeffs = Coefficients.ones(h.edge_types)
        res = maximize(h, coeffs, _cfg(rng.randrange(10**6), starts=4))
        mapping = {v: k + 1 for k, v in enumerate(res.sort_permutation)}
        hs = relabel(h, mapping)
        xs = res.x[np.array(res.sort_permutation) - 1]
        before = eval_L(hs, coeffs, xs)
        for _ in range(5):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            after = eval_L(compress_hypergraph(hs, i, j), coeffs, xs)
            ok &= after >= before - 1e-9
            checked += 1
    _criterion(9, "compression never lowers the objective at solutions (200 steps)", ok)


def test_criterion_10_first_order_structure():
    rng = random.Random(2_718)
    worst_kkt = 0.0
    worst_pair = 0.0
    ok = True
    for _ in range(30):
        types = TYPE_FAMILIES[rng.randrange(len(TYPE_FAMILIES))]
        n = rng.randint(max(max(types), 3), 7)
        h = gen_planted(
            "random-lc",
            {"n": n, "types": types, "density": rng.uniform(0.4, 0.8)},
            seed=rng.randrange(10**6),
        )
        if not h.edge_types:
            continue
        coeffs = Coefficients.ones(h.edge_types)
        res = maximize(h, coeffs, _cfg(rng.randrange(10**6), starts=4))
        worst_kkt = max(worst_kkt, res.kkt_residual)
        ok &= res.kkt_residual <= 1e-5
        support = res.support
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                i, j = support[a], support[b]
                q = pair_quantities(h, coeffs, res.x, i, j)
                gap = abs((res.x[i - 1] - res.x[j - 1]) * q.e_ij - q.e_i_not_j)
                worst_pair = max(worst_pair, gap)
                ok &= gap <= 1e-5
    _criterion(10, "KKT residual and compressed pair identity within 1e-5", ok,
               f"worst kkt {worst_kkt:.2e}, worst pair gap {worst_pair:.2e}")


def test_criterion_11_grid_oracle_equivalence():
    rng = random.Random(1_618)
    worst = 0.0
    ok = True
    for types in TYPE_FAMILIES:
        for _ in range(50):
            n = rng.randint(max(max(types), 2), 5)
            h = gen_random(n, types, rng.uniform(0.4, 1.0), rng.randrange(10**6))
            if not h.edge_types:
                continue
            coeffs = Coefficients.ones(h.edge_types)
            res = maximize(h, coeffs, _cfg(rng.randrange(10**6), starts=4))
            gval, gx = grid_oracle(h, coeffs, 30)
            polished = polish(h, coeffs, gx, _cfg(1, starts=4), method="grid")
            gap = abs(res.value - max(gval, polished.value))
            worst = max(worst, gap)
            ok &= gap <= 1e-6
            ok &= res.value >= gval - 1e-6
    _criterion(11, "multistart vs grid-plus-polish within 1e-6 (200 instances)", ok,
               f"worst gap {worst:.2e}")


def test_criterion_12_gradient_finite_differences():
    rng = random.Random(6_022)
    ok = True
    worst = 0.0
    for _ in range(100):
        types = TYPE_FAMILIES[rng.randrange(len(TYPE_FAMILIES))]
        n = rng.randint(max(max(types), 2), 8)
        h = gen_random(n, types, rng.uniform(0.3, 0.9), rng.randrange(10**6))
        if not h.edge_types:
            continue
        coeffs = Coefficients.ones(h.edge_types)
        x = random_simplex_point(rng, n)
        g = gradient(h, coeffs, x)
        fd = fd_gradient(h, coeffs, x)
        rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))
        worst = max(worst, rel)
        ok &= bool(np.allclose(fd, g, rtol=1e-6, atol=1e-6))
    _criterion(12, "analytic gradient vs central differences (100 instances)", ok,
               f"worst rel err {worst:.2e}")
