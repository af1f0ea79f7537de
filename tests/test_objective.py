import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import (
    Coefficients,
    MissingCoefficientError,
    SolverConfig,
    check_rational_feasible,
    complete,
    eval_exact,
    eval_L,
    flavour_coefficients,
    gen_planted,
    gen_random,
    gradient,
    grid_oracle,
    maximize,
    rational_uniform,
    uniform_weights,
    validate,
)

from lagrangian_lab import objective as objective_module
from lagrangian_lab.objective import Objective

from conftest import (
    TYPE_FAMILIES,
    check_feasible,
    coeffs_to_json,
    eval_lambda_prime,
    fd_gradient,
    hessian_exact,
    lambda_prime_exact,
    level,
    pair_quantities,
    random_instance,
    random_simplex_point,
)


class TestCoefficients:
    def test_base_coefficient_is_one(self):
        c = Coefficients(2, {3: 1.5})
        assert c.coefficient(2) == 1
        assert c.coefficient(3) == 1.5

    def test_missing_level_raises(self):
        c = Coefficients(2, {})
        with pytest.raises(MissingCoefficientError):
            c.coefficient(3)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Coefficients(2, {3: 0})
        with pytest.raises(ValueError):
            Coefficients(2, {3: -1})

    def test_keys_must_exceed_base(self):
        with pytest.raises(ValueError):
            Coefficients(2, {2: 1})
        with pytest.raises(ValueError):
            Coefficients(2, {1: 1})

    @pytest.mark.parametrize(
        "doc", ['{"alpha": {}}', "[1, 2]", '{"r0": null}', '{"r0": 2, "alpha": {"3": "1/0"}}',
                '{"r0": 2, "alpha": {"3": true}}', '{"r0": 2, "alpha": {"3": "1e400"}}',
                '{"r0": 2, "alpha": {"3": 1, "4": 1}, "alpha_3": 5}'])
    def test_malformed_json_raises_value_error(self, doc):
        with pytest.raises(ValueError):
            Coefficients.from_json(doc)

    @pytest.mark.parametrize(
        "doc", ['{"r0": 2.7, "alpha": {"3": 1}}', '{"r0": true, "alpha": {"3": 1}}',
                '{"r0": false}', '{"r0": "2", "alpha": {"3": 1}}'])
    def test_non_integral_r0_rejected(self, doc):
        with pytest.raises(ValueError, match="r0 must be an integer"):
            Coefficients.from_json(doc)

    @pytest.mark.parametrize("key", ["x", "0", "3.0", "03", "\u0663"])
    def test_alpha_keys_read_as_levels(self, key):
        doc = json.dumps({"r0": 2, "alpha": {key: 1}})
        with pytest.raises(ValueError, match=f"alpha keys must be positive integer levels, got {key!r}"):
            Coefficients.from_json(doc)

    def test_ones_is_the_lambda_flavour(self):
        for types in ((), (2,), (1, 3), [3, 2, 4, 2]):
            assert Coefficients.ones(types) == flavour_coefficients("lambda", types)[0]
        assert Coefficients.ones(iter((2, 3))) == Coefficients(2, {3: 1})

    def test_integral_float_r0_accepted(self):
        c = Coefficients.from_json('{"r0": 2.0, "alpha": {"3": 1}}')
        assert c.r0 == 2 and type(c.r0) is int and c == Coefficients(2, {3: 1})

    def test_lambda_prime_weights(self):
        c = flavour_coefficients("lambda'", (1, 2, 3))[0]
        assert c.r0 == 1 and c.coefficient(2) == 2 and c.coefficient(3) == 6
        c2 = flavour_coefficients("lambda'", (2, 3))[0]
        assert c2.r0 == 2 and c2.coefficient(3) == 3

    def test_flavour_coefficients(self):
        assert flavour_coefficients("lambda", (1, 3)) == (Coefficients(1, {3: 1}), 1)
        got = flavour_coefficients("lambda'", (2, 3, 4))
        assert got == (Coefficients(2, {3: 3, 4: 12}), 2)
        got = flavour_coefficients("L", (2, 3), {2: 5, 3: Fraction(1, 2), 4: 7})
        assert got == (Coefficients(2, {3: Fraction(1, 2), 4: 7}), 1)
        for flavour in ("lambda", "lambda'", "L"):
            assert flavour_coefficients(flavour, ()) == (Coefficients(1), 1)
        with pytest.raises(ValueError, match="unknown objective flavour"):
            flavour_coefficients("mu", (2,))

    def test_json_roundtrip_with_rationals(self):
        c = Coefficients(2, {3: Fraction(1, 3), 4: 2})
        back = Coefficients.from_json(coeffs_to_json(c))
        assert back == c
        parsed = Coefficients.from_json('{"r0": 2, "alpha": {"3": "1/3"}}')
        assert parsed.coefficient(3) == Fraction(1, 3)

    def test_levels_need_coefficients(self):
        """A solve's one coverage check is building its ``Objective``; the
        grid oracle builds it before checking the resolution."""
        h = complete(4, (2, 3))
        Objective(h, Coefficients(2, {3: 1}))
        for call in (Objective, maximize, lambda h, c: grid_oracle(h, c, 0)):
            with pytest.raises(MissingCoefficientError, match="cardinality 3"):
                call(h, Coefficients(2, {}))


# Each number a constructor or generator keeps is read where it is stored,
# by the package's rule for its kind: each of these was once kept as given.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Coefficients(2, {3: float("nan")}),
                 "alpha_3 must be a positive number, got nan", id="alpha-nan"),
    pytest.param(lambda: Coefficients(2, {3: float("inf")}),
                 "alpha_3 must be a positive number, got inf", id="alpha-inf"),
    pytest.param(lambda: Coefficients(2, {3: True}),
                 "alpha_3 must be a positive number, got True", id="alpha-bool"),
    pytest.param(lambda: flavour_coefficients("L", (2, 3), {3: float("nan")}),
                 "alpha_3 must be a positive number, got nan", id="flavour-L-nan"),
    pytest.param(lambda: Coefficients(2, {3.5: 1}),
                 "alpha keys must be positive integer levels, got 3.5", id="key-fractional"),
    pytest.param(lambda: Coefficients(2, {3.0: 1}),
                 "alpha keys must be positive integer levels, got 3.0", id="key-float"),
    pytest.param(lambda: SolverConfig(seed=-1),
                 "seed must be a non-negative integer, got -1", id="SolverConfig-seed"),
    pytest.param(lambda: gen_random(8, (2, 3), 0.5, -7),
                 "seed must be a non-negative integer, got -7", id="gen_random-seed"),
    pytest.param(lambda: gen_planted("t6a", {"t": 4}, -3),
                 "seed must be a non-negative integer, got -3", id="gen_planted-seed"),
])
def test_stored_number_rejected_where_kept(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestCoefficientsReadTheirWeights:
    """``Coefficients`` reads each alpha key by ``_read_level`` and each value
    by ``_read_positive``, as theorem parameters are read, and keeps the
    values as ``Fraction``s."""

    @pytest.mark.parametrize("alpha, expected", [
        ({3: "3/2"}, {3: Fraction(3, 2)}),
        ({"3": 1}, {3: 1}),
        ({"4": "1/3", 3: 2.5}, {3: Fraction(5, 2), 4: Fraction(1, 3)}),
    ])
    def test_text_keys_and_values_accepted(self, alpha, expected):
        assert Coefficients(2, alpha) == Coefficients(2, expected)

    def test_values_kept_as_fractions(self):
        c = Coefficients(2, {3: 0.5})
        assert c.alpha == ((3, Fraction(1, 2)),)
        assert type(c.alpha[0][1]) is Fraction

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
    def test_float_values_reach_the_solver_unchanged(self, a):
        c = Coefficients(2, {3: a})
        assert float(c.coefficient(3)) == a
        assert Objective(complete(3, (2, 3)), c)._levels[1][0] == a


class TestFeasibility:
    def test_accepts_uniform(self):
        check_feasible(uniform_weights(4), 4)

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            check_feasible([0.5, 0.6], 2)
        with pytest.raises(ValueError):
            check_feasible([1.5, -0.5], 2)

    def test_rational_exactness(self):
        check_rational_feasible(rational_uniform(3))
        with pytest.raises(ValueError):
            check_rational_feasible((Fraction(1, 3), Fraction(1, 3)))


class TestEvalL:
    def test_triangle_uniform(self):
        h = complete(3, (2,))
        v = eval_L(h, Coefficients.ones((2,)), uniform_weights(3))
        assert v == pytest.approx(1 / 3, abs=1e-15)

    def test_three_level_uniform(self):
        h = complete(3, (1, 2, 3))
        v = eval_L(h, Coefficients.ones((1, 2, 3)), uniform_weights(3))
        assert v == pytest.approx(37 / 27, abs=1e-14)

    def test_single_singleton(self):
        h = validate(3, [[1]])
        x = np.array([1.0, 0.0, 0.0])
        assert eval_L(h, Coefficients.ones((1,)), x) == 1.0

    def test_missing_coefficient_raises(self):
        h = complete(3, (2, 3))
        with pytest.raises(MissingCoefficientError):
            eval_L(h, Coefficients(2, {}), uniform_weights(3))


class TestLambdaPrime:
    def test_k3_one_two(self):
        h = complete(3, (1, 2))
        assert eval_lambda_prime(h, uniform_weights(3)) == pytest.approx(5 / 3, abs=1e-14)

    def test_k4_two_three(self):
        h = complete(4, (2, 3))
        assert eval_lambda_prime(h, uniform_weights(4)) == pytest.approx(9 / 8, abs=1e-14)

    def test_empty(self):
        h = validate(3, [[1, 2]])
        empty = level(h, 3)
        assert eval_lambda_prime(empty, uniform_weights(3)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_factorial_weight_identity(self, seed):
        """r0! * L with alpha_r = r!/r0! must reproduce the factorial-weighted sum."""
        rng = random.Random(seed)
        h = gen_random(6, (1, 2, 3), 0.5, seed)
        if not h.edge_types:
            return
        x = random_simplex_point(rng, 6)
        r0 = h.edge_types[0]
        weights = flavour_coefficients("lambda'", h.edge_types)[0]
        lhs = math.factorial(r0) * eval_L(h, weights, x)
        assert abs(lhs - eval_lambda_prime(h, x)) <= 1e-12


class TestGradient:
    def test_triangle_uniform(self):
        h = complete(3, (2,))
        g = gradient(h, Coefficients.ones((2,)), uniform_weights(3))
        assert np.allclose(g, 2 / 3, atol=1e-15)

    def test_singleton_graph(self):
        h = validate(3, [[1]])
        g = gradient(h, Coefficients.ones((1,)), np.array([0.2, 0.3, 0.5]))
        assert np.allclose(g, [1.0, 0.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_finite_differences(self, seed):
        rng = random.Random(seed)
        h = gen_random(5, (2, 3), 0.6, seed)
        if not h.edge_types:
            return
        coeffs = Coefficients.ones(h.edge_types)
        x = random_simplex_point(rng, 5)
        g = gradient(h, coeffs, x)
        fd = fd_gradient(h, coeffs, x)
        assert np.allclose(g, fd, rtol=1e-6, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_euler_relation_per_level(self, seed):
        """Each degree-r homogeneous level satisfies sum_i x_i dL/dx_i = r L."""
        rng = random.Random(seed)
        h = gen_random(6, (1, 2, 3), 0.5, seed)
        x = random_simplex_point(rng, 6)
        for r in h.edge_types:
            lvl = level(h, r)
            c = Coefficients(r, {})
            lhs = float(np.dot(x, gradient(lvl, c, x)))
            assert lhs == pytest.approx(r * eval_L(lvl, c, x), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_euler_relation_hessian_per_level(self, seed):
        """Each degree-r level's gradient is homogeneous of degree r - 1:
        H(x) x = (r - 1) grad L(x)."""
        rng = random.Random(seed)
        h = gen_random(6, (1, 2, 3, 4), 0.5, seed)
        x = random_simplex_point(rng, 6)
        for r in h.edge_types:
            lvl = level(h, r)
            c = Coefficients(r, {})
            lhs = Objective(lvl, c).hessians(x[None, :])[0] @ x
            assert np.allclose(lhs, (r - 1) * gradient(lvl, c, x), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 9), budget=st.sampled_from([1, 40, 1 << 16]))
def test_batch_rows_match_one_point_evaluation(seed, rows, budget):
    """A row's value, gradient and Hessian do not depend on the batch around
    it or on how the batch is split into blocks."""
    h = random_instance(seed, n_max=8, families=TYPE_FAMILIES + ((3,), (2, 4)))
    coeffs = flavour_coefficients("lambda'", h.edge_types)[0]
    x = np.random.default_rng(seed).dirichlet(np.ones(h.n), size=rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objective_module, "_BLOCK_ELEMENTS", budget)
        obj = Objective(h, coeffs)
        values, grads, hessians = obj.values(x), obj.gradients(x), obj.hessians(x)
    one = Objective(h, coeffs)
    for i in range(rows):
        assert values[i] == eval_L(h, coeffs, x[i])
        assert np.array_equal(grads[i], gradient(h, coeffs, x[i]))
        assert np.array_equal(hessians[i], one.hessians(x[i:i + 1])[0])


@pytest.mark.parametrize("method", ["values", "gradients", "hessians"])
@pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,)], ids=["n-1", "n+1", "vector"])
def test_batch_shape_checked(method, shape):
    obj = Objective(complete(4, (2, 3)), Coefficients.ones((2, 3)))
    with pytest.raises(ValueError, match=r"points must have shape \(B, 4\)"):
        getattr(obj, method)(np.full(shape, 0.25))


@pytest.mark.parametrize("fn", [eval_L, gradient])
@pytest.mark.parametrize("x", [[0.5, 0.5], [0.2] * 5, 0.25, [[0.25] * 4]],
                         ids=["n-1", "n+1", "scalar", "batch"])
def test_one_point_shape_checked(fn, x):
    with pytest.raises(ValueError, match=r"points must have shape \(B, 4\)"):
        fn(complete(4, (2,)), Coefficients.ones((2,)), x)


class TestHessian:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_exact_oracle(self, seed):
        h = random_instance(seed, n_max=7, families=TYPE_FAMILIES + ((3,), (2, 4)))
        coeffs = flavour_coefficients("lambda'", h.edge_types)[0]
        x = np.random.default_rng(seed).dirichlet(np.ones(h.n))
        got = Objective(h, coeffs).hessians(x[None, :])[0]
        want = np.array([[float(v) for v in row] for row in hessian_exact(h, coeffs, x)])
        assert np.array_equal(got, got.T)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_triangle_uniform(self):
        # L = x1 x2 + x1 x3 + x2 x3: every off-diagonal entry is 1.
        h = complete(3, (2,))
        got = Objective(h, Coefficients.ones((2,))).hessians(uniform_weights(3)[None, :])[0]
        assert np.array_equal(got, 1.0 - np.eye(3))

    def test_edgeless(self):
        got = Objective(validate(3, []), Coefficients(2)).hessians(np.full((2, 3), 1 / 3))
        assert np.array_equal(got, np.zeros((2, 3, 3)))


class TestPairQuantities:
    def test_triangle_values(self):
        # On the complete triangle the pair link is the constant coefficient and
        # both one-sided links are empty: every swapped image is already an edge.
        h = complete(3, (2,))
        q = pair_quantities(h, Coefficients.ones((2,)), uniform_weights(3), 1, 2)
        assert q.e_ij == pytest.approx(1.0)
        assert q.e_i_not_j == 0.0
        assert q.e_j_not_i == 0.0

    def test_one_sided_link(self):
        h = validate(3, [[1, 3]])
        q = pair_quantities(h, Coefficients.ones((2,)), np.array([0.2, 0.3, 0.5]), 1, 2)
        assert q.e_ij == 0.0
        assert q.e_i_not_j == pytest.approx(0.5)  # edge 13, image 23 absent
        assert q.e_j_not_i == 0.0

    def test_singleton_contributions(self):
        h = validate(3, [[1], [1, 2]])
        q = pair_quantities(h, Coefficients.ones((1, 2)), uniform_weights(3), 1, 2)
        # singleton {1} counts because {2} is not an edge; the 2-edge 12 feeds e_ij
        assert q.e_ij == pytest.approx(1.0)
        assert q.e_i_not_j == pytest.approx(1.0)

    def test_no_common_edge(self):
        h = validate(4, [[1, 3], [2, 4]])
        q = pair_quantities(h, Coefficients.ones((2,)), uniform_weights(4), 1, 2)
        assert q.e_ij == 0.0

    def test_same_vertex_rejected(self):
        h = complete(3, (2,))
        with pytest.raises(ValueError):
            pair_quantities(h, Coefficients.ones((2,)), uniform_weights(3), 2, 2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gradient_difference_identity(self, seed):
        """grad_i - grad_j = (x_j - x_i) e_ij + e_{i not j} - e_{j not i}."""
        rng = random.Random(seed)
        h = gen_random(6, (1, 2, 3), 0.5, seed)
        if not h.edge_types:
            return
        coeffs = Coefficients.ones(h.edge_types)
        x = random_simplex_point(rng, 6)
        g = gradient(h, coeffs, x)
        i = rng.randint(1, 5)
        j = rng.randint(i + 1, 6)
        q = pair_quantities(h, coeffs, x, i, j)
        lhs = g[i - 1] - g[j - 1]
        rhs = (x[j - 1] - x[i - 1]) * q.e_ij + q.e_i_not_j - q.e_j_not_i
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEvalExact:
    def test_lambda_prime_k4(self):
        h = complete(4, (2, 3))
        assert lambda_prime_exact(h, rational_uniform(4)) == Fraction(9, 8)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_uniform_pair_value(self, t):
        h = complete(t, (2,))
        got = eval_exact(h, Coefficients(2, {}), rational_uniform(t))
        assert got == Fraction(t - 1, 2 * t)

    def test_zero_weight_locality(self):
        h = complete(4, (2, 3))
        sub = complete(3, (2, 3))
        x_full = rational_uniform(4, support=(1, 2, 3))
        x_sub = rational_uniform(3)
        c_full = Coefficients(2, {3: Fraction(1)})
        assert eval_exact(h, c_full, x_full) == eval_exact(sub, c_full, x_sub)

    @pytest.mark.parametrize("seed", range(12))
    def test_lambda_prime_off_uniform_points(self, seed):
        """Against the independent oracle at a point whose first n - 1
        weights have distinct prime denominators; the last weight takes the
        remainder, so the common denominator is the product of the primes."""
        h = random_instance(seed)
        rng = random.Random(seed)
        primes = rng.sample([11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53], h.n - 1)
        x = [Fraction(rng.randint(1, p // h.n), p) for p in primes]
        x.append(1 - sum(x))
        coeffs, scale = flavour_coefficients("lambda'", h.edge_types)
        assert scale * eval_exact(h, coeffs, x) == lambda_prime_exact(h, x)

    def test_rejects_inexact_simplex(self):
        h = complete(3, (2,))
        with pytest.raises(ValueError):
            eval_exact(h, Coefficients(2, {}), (Fraction(1, 3),) * 2 + (Fraction(1, 4),))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adding_edge_never_decreases(seed):
    rng = random.Random(seed)
    h = gen_random(5, (2,), 0.4, seed)
    missing = [
        (i, j)
        for i in range(1, 5)
        for j in range(i + 1, 6)
        if not h.has_edge((i, j))
    ]
    if not missing or not h.edge_types:
        return
    coeffs = Coefficients.ones((2,))
    x = np.abs(random_simplex_point(rng, 5)) + 1e-3
    x = x / x.sum()
    bigger = validate(5, h.edges() + [list(rng.choice(missing))])
    assert eval_L(bigger, coeffs, x) >= eval_L(h, coeffs, x)


def test_zero_weight_vertex_deletion_invariance():
    h = validate(4, [[1, 2], [2, 3], [3, 4], [1, 2, 3]])
    coeffs = Coefficients.ones((2, 3))
    x = np.array([0.5, 0.3, 0.2, 0.0])
    pruned = validate(4, [e for e in h.edges() if 4 not in e])
    assert eval_L(h, coeffs, x) == pytest.approx(eval_L(pruned, coeffs, x), abs=1e-15)


@pytest.mark.parametrize("build,message", [
    # r0 is read by _read_int's floor; the id is the one the case had before.
    pytest.param(lambda: Coefficients(r0=0), "r0 must be a positive integer, got 0",
                 id="<lambda>-base cardinality must be >= 1, got 0"),
    # The message now names 1..n; the id is the one the case had before.
    pytest.param(lambda: rational_uniform(3, []), r"support must be a nonempty subset of 1\.\.3",
                 id="<lambda>-support must be nonempty"),
    (lambda: check_rational_feasible((Fraction(1, 2),) * 2, 3),
     "weight vector has length 2, expected 3"),
    (lambda: check_rational_feasible((Fraction(3, 2), Fraction(-1, 2))),
     "negative rational weight"),
])
def test_input_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()
