import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import (
    Coefficients,
    GridTooLargeError,
    OptimizationResult,
    SolverConfig,
    complete,
    eval_L,
    flavour_coefficients,
    gen_planted,
    gen_random,
    grid_oracle,
    max_complete_subgraph,
    maximize,
    polish,
    project_to_simplex,
    relabel,
    uniform_weights,
    validate,
)

from lagrangian_lab import objective, optimizer

from conftest import (
    TYPE_FAMILIES,
    kkt_residual,
    random_instance,
    random_simplex_point,
    support_pair_cover,
)


class TestProjection:
    def test_member_is_fixed(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(x), x)

    def test_two_zero(self):
        assert np.allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_negative_coordinate_clipped(self):
        assert np.allclose(project_to_simplex([0.5, 0.5, -1.0]), [0.5, 0.5, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_to_simplex([])

    @pytest.mark.parametrize("v", [[1e300, 1.0], [math.nan, 1.0], [math.inf, 0.0]])
    def test_non_finite_or_overflowing_rejected(self, v):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            project_to_simplex(v)

    @settings(max_examples=80, deadline=None)
    @given(
        vals=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        seed=st.integers(0, 10_000),
    )
    def test_projection_is_nearest_feasible(self, vals, seed):
        v = np.array(vals)
        x = project_to_simplex(v)
        assert x.min() >= 0 and abs(x.sum() - 1) < 1e-9
        rng = random.Random(seed)
        y = random_simplex_point(rng, v.size)
        assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-9


class TestMaximize:
    def test_complete_pair_graph(self, fast_cfg):
        res = maximize(complete(5, (2,)), Coefficients.ones((2,)), fast_cfg)
        assert res.value == pytest.approx(0.4, abs=1e-6)
        assert len(res.support) == 5
        assert res.converged

    def test_lambda_prime_one_two(self, fast_cfg):
        h = complete(3, (1, 2))
        res = maximize(h, flavour_coefficients("lambda'", (1, 2))[0], fast_cfg)
        assert math.factorial(1) * res.value == pytest.approx(5 / 3, abs=1e-6)

    def test_value_matches_eval(self, fast_cfg):
        h = gen_random(6, (2, 3), 0.6, seed=4)
        coeffs = Coefficients.ones(h.edge_types)
        res = maximize(h, coeffs, fast_cfg)
        assert res.value == pytest.approx(eval_L(h, coeffs, res.x), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_deterministic_under_seed(self, seed):
        h = random_instance(seed, n_max=7)
        coeffs = Coefficients.ones(h.edge_types)
        cfg = SolverConfig(starts=6, seed=seed)
        a, b = maximize(h, coeffs, cfg), maximize(h, coeffs, cfg)
        assert np.array_equal(a.x, b.x)
        assert {**vars(a), "x": None} == {**vars(b), "x": None}

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["t6a", "t7a", "ptz"]), t=st.sampled_from([4, 5]),
           seed=st.integers(0, 1000), perm=st.randoms(use_true_random=False))
    def test_value_invariant_under_relabel(self, family, t, seed, perm):
        """A relabelling moves the prefix and random starts, and a multistart
        can then miss a maximum it found before: on one random 6-vertex
        (2,4)-graph it does under 26 of 300 relabellings at ``starts=8``.
        On a planted instance the clique start attains the maximum, so the
        value holds."""
        h = gen_planted(family, {"t": t}, seed)
        labels = list(range(1, h.n + 1))
        perm.shuffle(labels)
        g = relabel(h, dict(zip(range(1, h.n + 1), labels)))
        coeffs, cfg = Coefficients.ones(h.edge_types), SolverConfig(starts=8, seed=seed)
        assert maximize(g, coeffs, cfg).value == pytest.approx(
            maximize(h, coeffs, cfg).value, rel=1e-12, abs=1e-12)

    def test_minimal_support_tie_break(self, fast_cfg):
        # all-singleton graph: every weighting gives 1, minimal support must win
        h = validate(3, [[1], [2], [3]])
        res = maximize(h, Coefficients.ones((1,)), fast_cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.support == (1,)

    def test_edgeless_graph(self, fast_cfg):
        empty = validate(3, [])
        res = maximize(empty, Coefficients(2, {}), fast_cfg)
        assert res.value == 0.0

    def test_sorted_view_metadata(self, fast_cfg):
        h = validate(4, [[3, 4]])
        res = maximize(h, Coefficients.ones((2,)), fast_cfg)
        assert sorted(res.sort_permutation) == [1, 2, 3, 4]
        sorted_x = res.x[np.array(res.sort_permutation) - 1]
        assert np.all(np.diff(sorted_x) <= 1e-15)

    def test_feasibility_of_result(self, fast_cfg):
        h = gen_random(7, (1, 2, 3), 0.5, seed=21)
        res = maximize(h, Coefficients.ones(h.edge_types), fast_cfg)
        assert res.x.min() >= 0 and abs(res.x.sum() - 1) <= 1e-12

    def test_warm_start_dominates_clique_value(self, fast_cfg):
        for seed in range(5):
            h = random_instance(seed, n_max=6)
            coeffs = Coefficients.ones(h.edge_types)
            res = maximize(h, coeffs, fast_cfg)
            clique = max_complete_subgraph(h, h.edge_types)
            if clique.order:
                base = eval_L(h, coeffs, uniform_weights(h.n, clique.vertices))
                assert res.value >= base - 1e-12


class TestGridOracle:
    def test_tiny_grid(self):
        val, x = grid_oracle(complete(2, (2,)), Coefficients(2, {}), 2)
        assert val == pytest.approx(0.25)
        assert np.allclose(x, [0.5, 0.5])

    def test_one_vertex(self):
        # No cuts at n=1: the grid is the one point x = (1,).
        val, x = grid_oracle(validate(1, [[1]]), Coefficients.ones((1,)), 5)
        assert val == 1.0
        assert np.array_equal(x, [1.0])

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_uniform_point_on_grid(self, t):
        h = complete(t, (2,))
        val, _ = grid_oracle(h, Coefficients(2, {}), 2 * t)
        assert val == pytest.approx(0.5 * (1 - 1 / t), abs=1e-12)

    def test_grid_plus_polish_matches_maximize(self, fast_cfg):
        h = gen_random(4, (2, 3), 0.7, seed=3)
        coeffs = Coefficients.ones(h.edge_types)
        res = maximize(h, coeffs, fast_cfg)
        gval, gx = grid_oracle(h, coeffs, 20)
        assert res.value >= gval - 1e-6
        polished = polish(h, coeffs, gx, fast_cfg, method="grid")
        assert abs(polished.value - res.value) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_is_eval_L_at_argmax(self, seed):
        # The grid's batches and eval_L share one evaluator, so the reported
        # value is exactly the objective at the reported point.
        h = gen_random(10, (2, 3), 0.7, seed)
        coeffs = Coefficients.ones(h.edge_types)
        val, x = grid_oracle(h, coeffs, 6)
        assert val == eval_L(h, coeffs, x)

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_rejected(self, resolution):
        with pytest.raises(ValueError, match="grid resolution"):
            grid_oracle(complete(3, (2,)), Coefficients(2, {}), resolution)

    @pytest.mark.parametrize("types", [(2,), (1, 2), (2, 3)])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference_enumeration(self, types, n):
        """Value and argmax equal a point-by-point scan of the compositions in
        ``itertools.combinations`` cut order, where the first maximum wins."""
        coeffs = Coefficients.ones(types)
        for density in (1.0, 0.5):
            h = gen_random(n, types, density, seed=10 * n + len(types))
            for d in range(1, 9):
                best_val, best_x = -math.inf, None
                for cuts in itertools.combinations(range(d + n - 1), n - 1):
                    bounds = (-1,) + cuts + (d + n - 1,)
                    x = np.array([b - a - 1 for a, b in zip(bounds, bounds[1:])]) / d
                    val = eval_L(h, coeffs, x)
                    if val > best_val:
                        best_val, best_x = val, x
                val, x = grid_oracle(h, coeffs, d)
                assert val == best_val
                assert np.array_equal(x, best_x)

    @pytest.mark.parametrize("n, d", [(3, 8), (5, 7)])
    def test_result_independent_of_block_size(self, n, d, monkeypatch):
        # Blocks of 7 rows: several blocks and a partial last one.
        h = gen_random(n, (2, 3), 1.0, seed=n)
        coeffs = Coefficients.ones((2, 3))
        val, x = grid_oracle(h, coeffs, d)
        monkeypatch.setattr(optimizer, "_GRID_ROWS", 7)
        assert math.comb(d + n - 1, n - 1) % 7
        val7, x7 = grid_oracle(h, coeffs, d)
        assert val7 == val
        assert np.array_equal(x7, x)

    def test_budget_guard(self):
        h = complete(12, (2,))
        with pytest.raises(GridTooLargeError):
            grid_oracle(h, Coefficients(2, {}), 100)


class TestKKTResidual:
    def test_uniform_on_complete_graph(self):
        h = complete(4, (2,))
        assert kkt_residual(h, Coefficients(2, {}), uniform_weights(4)) <= 1e-12

    def test_vertex_point_on_single_edge(self):
        h = validate(2, [[1, 2]])
        res = kkt_residual(h, Coefficients(2, {}), np.array([1.0, 0.0]))
        assert res == pytest.approx(1.0)

    def test_solver_outputs_are_near_critical(self, fast_cfg):
        for seed in range(20):
            h = random_instance(seed, n_max=6)
            coeffs = Coefficients.ones(h.edge_types)
            res = maximize(h, coeffs, fast_cfg)
            assert res.kkt_residual <= 1e-5


class TestSupportPairCover:
    def test_triangle_optimum(self, fast_cfg):
        h = complete(3, (2,))
        res = maximize(h, Coefficients(2, {}), fast_cfg)
        assert support_pair_cover(h, res)

    def test_disjoint_edges_flagged(self):
        h = validate(4, [[1, 2], [3, 4]])
        x = np.full(4, 0.25)
        forced = OptimizationResult(
            value=eval_L(h, Coefficients(2, {}), x),
            x=x,
            support=(1, 2, 3, 4),
            kkt_residual=0.0,
            method="multistart",
            iterations=0,
            converged=True,
        )
        assert not support_pair_cover(h, forced)

    def test_single_vertex_vacuous(self):
        h = validate(2, [[1, 2]])
        res = OptimizationResult(
            value=0.0,
            x=np.array([1.0, 0.0]),
            support=(1,),
            kkt_residual=1.0,
            method="multistart",
            iterations=0,
            converged=True,
        )
        assert support_pair_cover(h, res)


@pytest.mark.parametrize("solve", ["maximize", "polish"])
def test_one_objective_per_solve(solve, monkeypatch, fast_cfg):
    built = []

    class Counted(optimizer.Objective):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    for module in (objective, optimizer):
        monkeypatch.setattr(module, "Objective", Counted)
    h = gen_random(6, (2, 3), 0.6, seed=4)
    coeffs = Coefficients.ones(h.edge_types)
    if solve == "maximize":
        res = maximize(h, coeffs, fast_cfg)
    else:
        res = polish(h, coeffs, uniform_weights(h.n), fast_cfg)
    assert len(built) == 1
    monkeypatch.undo()
    assert res.value == eval_L(h, coeffs, res.x)
    assert res.kkt_residual == kkt_residual(h, coeffs, res.x)


@pytest.mark.parametrize("solve", ["maximize", "polish"])
def test_one_ascent_batch_per_solve(solve, monkeypatch, fast_cfg):
    """Each start is one run of one batched ascent, also where runs end with
    stray weights below 1e-6, as on this planted PTZ instance."""
    batches = []
    ascend = optimizer._ascend_batch

    def spy(obj, x0, cfg):
        batches.append(len(x0))
        return ascend(obj, x0, cfg)

    monkeypatch.setattr(optimizer, "_ascend_batch", spy)
    h = gen_planted("ptz", {"t": 4, "r": 3, "m": 7}, seed=9)
    if solve == "maximize":
        res = maximize(h, Coefficients.ones((3,)), fast_cfg)
        assert batches == [1 + h.n + fast_cfg.starts]  # clique, prefixes, random
    else:
        res = polish(h, Coefficients.ones((3,)), uniform_weights(h.n), fast_cfg)
        assert batches == [1]
    assert res.value == pytest.approx(1 / 16, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(2, 6))
def test_ascent_rows_do_not_depend_on_the_batch(seed, rows):
    """A row's point, value, iterations and flag are those of its start
    ascended alone, Newton steps and singular face systems included."""
    h = random_instance(seed, n_max=8, families=TYPE_FAMILIES + ((1,), (3,), (2, 4)))
    obj = optimizer.Objective(h, flavour_coefficients("lambda'", h.edge_types)[0])
    x0 = np.random.default_rng(seed).dirichlet(np.ones(h.n), size=rows)
    cfg = SolverConfig(starts=1, max_iters=300)
    batch = optimizer._ascend_batch(obj, x0, cfg)
    for i in range(rows):
        alone = optimizer._ascend_batch(obj, x0[i:i + 1], cfg)
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(alone, batch))


def _path_face():
    """The objective of edges {1,4}, {2,3}, {3,4}, a point on the face
    {2,3,4}, and the bordered Newton system ``_newton`` builds there (an
    identity row off the face). L = x3 (x2 + x4) is constant along e2 - e4,
    so the system is singular."""
    h = gen_random(4, (2,), 0.5, 0)
    assert h.edges() == [(1, 4), (2, 3), (3, 4)]
    obj, x = optimizer.Objective(h, Coefficients.ones((2,))), np.array([[0.0, 7 / 27, 13 / 27, 7 / 27]])
    kkt = np.zeros((5, 5))
    kkt[0, 0] = 1.0
    kkt[1:4, 1:4] = obj.hessians(x)[0][1:, 1:]
    kkt[1:4, 4], kkt[4, 1:4] = -1.0, 1.0
    return obj, x, kkt


def test_singular_face_takes_the_least_squares_newton_step():
    obj, x, kkt = _path_face()
    assert np.linalg.slogdet(kkt)[0] == 0
    val, g = obj.values(x), obj.gradients(x)
    res = optimizer._residuals(x, g)
    # _newton writes the accepted row's residual and gradient in place.
    assert optimizer._newton(obj, x, val, res.copy(), g, np.array([0])).tolist() == [True]
    assert optimizer._residuals(x, obj.gradients(x))[0] < 1e-12 < res[0]
    assert x[0, 1:] == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)


def test_batched_systems_solve_as_one_at_a_time():
    """Singular systems mixed into a batch: every row's solution is that of
    ``np.linalg.solve`` on the row alone, or, where that raises, of
    ``np.linalg.lstsq``, bit for bit."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 5, 5))
    a[0] = _path_face()[2]
    a[3, 2] = a[3, 4]          # a repeated row
    a[5] = rng.integers(-3, 4, (5, 2)) @ rng.integers(-3, 4, (2, 5))   # rank 2
    a[7, :, 1] = 0.0           # a zero column
    b = rng.standard_normal((9, 5, 1))

    def alone(ai, bi):
        try:
            return np.linalg.solve(ai, bi), False
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(ai, bi, rcond=None)[0], True

    want, singular = zip(*(alone(ai, bi) for ai, bi in zip(a, b)))
    assert singular[0] and not all(singular)
    assert np.array_equal(optimizer._solve_systems(a, b), np.array(want))


@pytest.mark.parametrize("h, starts", [
    (gen_planted("ptz", {"t": 4}, 16), 16),
    (validate(4, [[1, 4], [2, 3], [3, 4]]), 4),   # the path face of _path_face
])
def test_ascent_differentiates_each_point_once_and_factors_each_system_once(
        h, starts, monkeypatch):
    """No start's ascent sends a point (row bytes) to the gradient kernel
    twice, and ``slogdet`` runs only on a stack for which the batched
    ``solve`` raised (both instances meet a singular face system). Distinct
    starts may meet at one point (others reach a prefix start), so each
    start is also ascended alone, with the arithmetic it has in the batch."""
    points, recording, raised, split = [], [], [], []
    partials, solve, slogdet = optimizer.Objective._partials, np.linalg.solve, np.linalg.slogdet
    ascend = optimizer._ascend_batch

    def spy_partials(self, x, k, *rest):
        if k == 1 and recording:
            points[-1].extend(row.tobytes() for row in np.asarray(x))
        return partials(self, x, k, *rest)

    def spy_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raised.append(a.tobytes())
            raise

    def spy_slogdet(a):
        split.append(a.tobytes())
        return slogdet(a)

    def spy_ascend(obj, x0, cfg):
        recording.append(True)
        for start in x0:
            points.append([])
            ascend(obj, start[None], cfg)
        recording.clear()
        return ascend(obj, x0, cfg)

    monkeypatch.setattr(optimizer.Objective, "_partials", spy_partials)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "slogdet", spy_slogdet)
    monkeypatch.setattr(optimizer, "_ascend_batch", spy_ascend)
    res = maximize(h, Coefficients.ones(h.edge_types), SolverConfig(starts=starts, seed=16))
    monkeypatch.undo()
    assert res.converged and len(points) == 1 + h.n + starts
    assert all(p and len(set(p)) == len(p) for p in points)
    assert split and set(split) <= set(raised)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), rows=st.integers(1, 10))
def test_best_row_is_the_smallest_support_then_the_first_start(data, n, rows):
    """``_best`` on arrays picks the row the tuple rule picks among the rows
    whose values tie the maximum within ``_TOL_VALUE``: smallest support,
    then the lexicographically smallest support, then start order."""
    pattern = st.lists(st.booleans(), min_size=n, max_size=n)
    sup = np.array(data.draw(st.lists(pattern, min_size=rows, max_size=rows)), dtype=bool)
    # Forced ties: values within _TOL_VALUE of each other, and some below.
    levels = st.sampled_from([1.0, 1.0 - 1e-13, 1.0 - 1e-12, 1.0 - 1e-11, 0.5])
    val = np.array(data.draw(st.lists(levels, min_size=rows, max_size=rows)))
    # Off the support a weight is at most _SUPPORT_EPS, on it above.
    x = np.where(sup, 0.25, data.draw(st.sampled_from([0.0, optimizer._SUPPORT_EPS])))
    support = [tuple(int(v) + 1 for v in np.flatnonzero(row)) for row in sup]
    tied = [i for i in range(rows) if val[i] >= val.max() - optimizer._TOL_VALUE]
    assert optimizer._best(x, val) == min(tied, key=lambda i: (len(support[i]), support[i]))


@pytest.mark.parametrize("seed", range(10))
def test_planted_clique_start_wins_its_ties(seed):
    """On a planted t6a instance the maximum is uniform on the clique, and
    random starts that reach it tie the clique start to rounding; ties go by
    start order, so the clique start is reported."""
    h = gen_planted("t6a", {"t": 5}, seed)
    res = maximize(h, Coefficients.ones(h.edge_types), SolverConfig(starts=16, seed=seed))
    clique = max_complete_subgraph(h, h.edge_types).vertices
    assert (res.method, res.support, res.iterations) == ("warmstart", tuple(clique), 1)


@pytest.mark.parametrize("seed", [16, 19, 61])
def test_no_planted_ptz_start_runs_out_of_budget(seed, monkeypatch):
    """Projected gradient alone runs some start on each of these instances
    to the 5000-iteration budget, though the winning start converges in
    about ten; with the face-Newton finish every start stops well inside
    it."""
    ends = []
    ascend = optimizer._ascend_batch

    def spy(obj, x0, cfg):
        out = ascend(obj, x0, cfg)
        ends.append((out[2], out[3]))
        return out

    monkeypatch.setattr(optimizer, "_ascend_batch", spy)
    h = gen_planted("ptz", {"t": 4}, seed)
    cfg = SolverConfig(starts=16, seed=seed)
    maximize(h, Coefficients.ones((3,)), cfg)
    [(iters, converged)] = ends
    assert converged.all() and iters.max() < cfg.max_iters


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(starts=0)
