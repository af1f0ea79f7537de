import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import (
    Coefficients,
    SolverConfig,
    check_hypotheses,
    closed_form_exact,
    complete,
    eval_exact,
    flavour_coefficients,
    gen_planted,
    gen_random,
    maximize,
    rational_uniform,
    theorem_ids,
    validate,
    verify,
    with_singletons,
)
from lagrangian_lab import theorems as theorems_module
from lagrangian_lab.theorems import (
    _read_params,
    pair_edge_window,
    strict_three_window,
    threshold_general,
    threshold_one_r,
    threshold_one_two_three,
    uniform_edge_window,
)

from conftest import closed_form, gradient_exact, is_complete_on, lambda_prime_complete


def complete_value(t, levels):
    """The monomial sum of the complete pattern on t vertices at the uniform
    weighting, by the exact evaluator rather than the closed-form sum."""
    coeffs, scale = flavour_coefficients("lambda", levels)
    return scale * eval_exact(complete(t, levels), coeffs, rational_uniform(t))


class TestClosedForms:
    @pytest.mark.parametrize("t", range(1, 9))
    def test_pair_graph_value(self, t):
        assert closed_form_exact("MS_T1", {"t": t}) == Fraction(t - 1, 2 * t)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_one_two_value(self, t):
        assert closed_form_exact("NONUNIF_T3", {"t": t}) == 2 - Fraction(1, t)

    def test_one_r_example(self):
        assert closed_form("ONE_R_T4", {"t": 5, "r": 3, "alpha_r": 6}) == pytest.approx(1.48)

    def test_one_two_three_example(self):
        got = closed_form_exact("ONE_TWO_THREE_T5", {"t": 3, "alpha_2": 1, "alpha_3": 1})
        assert got == Fraction(37, 27)

    def test_two_r_example(self):
        assert closed_form("TWO_R_T6a", {"t": 4, "r": 3, "alpha_r": 1}) == pytest.approx(0.4375)

    def test_factorial_weight_values(self):
        assert closed_form_exact("COR2a", {"t": 4, "r": 3}) == Fraction(9, 8)
        assert closed_form_exact("COR2b", {"t": 4, "r": 3}) == 1 + Fraction(9, 8)

    def test_uniform_level_values(self):
        assert closed_form_exact("PZ", {"t": 4}) == Fraction(4, 64)
        assert closed_form_exact("PTZ", {"t": 5, "r": 4}) == Fraction(5, 625)

    def test_six_and_seven_share_formulas(self):
        p = {"t": 6, "r": 4, "alpha_r": 2, "alpha_2": 3}
        assert closed_form_exact("TWO_R_T6a", p) == closed_form_exact("TWO_R_EDGES_T7a", p)
        assert closed_form_exact("ONE_TWO_R_T6b", p) == closed_form_exact(
            "ONE_TWO_R_EDGES_T7b", p
        )

    @pytest.mark.parametrize("t", range(3, 13))
    @pytest.mark.parametrize("r", range(3, 6))
    def test_adding_base_level_adds_one(self, t, r):
        a = closed_form_exact("TWO_R_T6a", {"t": t, "r": r, "alpha_r": 1})
        b = closed_form_exact("ONE_TWO_R_T6b", {"t": t, "r": r, "alpha_2": 1, "alpha_r": 1})
        assert a + 1 == b

    @pytest.mark.parametrize("t", range(3, 10))
    @pytest.mark.parametrize("r", (3, 4))
    def test_formulas_agree_with_complete_pattern_value(self, t, r):
        if t < r:
            return
        explicit = closed_form_exact("TWO_R_T6a", {"t": t, "r": r, "alpha_r": 1})
        assert explicit == complete_value(t, (2, r))
        assert closed_form_exact("COR1a", {"t": t, "r": r}) == lambda_prime_complete(t, (2, r))

    def test_general_family_value(self):
        got = closed_form_exact("GENERAL_T9a", {"t": 5, "types": (2, 3, 4)})
        expected = Fraction(4, 10) + Fraction(10, 125) + Fraction(5, 625)
        assert got == expected

    def test_levels_outside_the_pattern_are_never_summed(self):
        # MIXED_T10c is about {1,3}-graphs and GENERAL_T9a about {2,3+}-graphs.
        t10c = closed_form_exact("MIXED_T10c", {"t": 4, "types": [2, 5]})
        assert t10c == closed_form_exact("MIXED_T10c", {"t": 4}) == Fraction(11, 8)
        t9a = closed_form_exact("GENERAL_T9a", {"t": 4, "types": [1, 2, 3]})
        assert t9a == closed_form_exact("GENERAL_T9a", {"t": 4, "types": [2, 3]}) == Fraction(7, 16)

    @pytest.mark.parametrize("types", [(1, 2, 4), (2, 4), (2, 3, 4)])
    def test_rank_read_from_types(self, types):
        got = closed_form_exact("MIXED_T10a", {"t": 5, "types": types})
        assert got == closed_form_exact("MIXED_T10a", {"t": 5, "r": 4, "types": types})
        assert got == lambda_prime_complete(5, [v for v in types if v != 3])

    def test_bad_params(self):
        with pytest.raises(ValueError):
            closed_form("MS_T1", {})
        with pytest.raises(ValueError):
            closed_form("ONE_R_T4", {"t": 4, "r": 2})
        with pytest.raises(ValueError):
            closed_form("GENERAL_T9a", {"t": 4})


class TestReadParams:
    @pytest.mark.parametrize("key", ["density", "extra_density"])
    @pytest.mark.parametrize("value", [0, 1, 0.25, Fraction(1, 2)])
    def test_real_values_read_as_float(self, key, value):
        got = _read_params({key: value})[key]
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("key", ["density", "extra_density"])
    @pytest.mark.parametrize("value", [5, -0.1, math.nan, [1], {"2": 0.5}, "0.5", True])
    def test_density_outside_unit_interval_rejected(self, key, value):
        with pytest.raises(ValueError, match=rf"{key} must be a number in \[0, 1\]"):
            _read_params({key: value})

    def test_alpha_keys_read_as_levels(self):
        got = _read_params({"alpha": {"3": 2, 4: "1/2"}})["alpha"]
        assert got == {3: 2, 4: Fraction(1, 2)} and all(type(k) is int for k in got)

    @pytest.mark.parametrize("key", [pytest.param(2.0, id="key-float"),
                                     pytest.param(np.int64(2), id="key-int64")])
    def test_integral_alpha_keys_read_as_levels(self, key):
        got = _read_params({"alpha": {key: 1}})["alpha"]
        assert got == {2: 1} and all(type(k) is int for k in got)

    @pytest.mark.parametrize("key", ["x", "0", 0, -1, "-1", "1.5", "", True, None, "03",
                                     "\u0663"])
    def test_bad_alpha_keys_rejected(self, key):
        with pytest.raises(ValueError, match=r"alpha keys must be positive integer levels, got "):
            _read_params({"alpha": {key: 1}})

    def test_types_read_as_tuple_of_ints(self):
        assert _read_params({"types": [3, 2.0]})["types"] == (2, 3)
        assert _read_params({"types": (1, 3)})["types"] == (1, 3)

    @pytest.mark.parametrize("value", ["ab", "23", [], [0, 2], [2, "3"], [True], 2, {"2": 1}])
    def test_bad_types_rejected(self, value):
        with pytest.raises(ValueError, match="types must be"):
            _read_params({"types": value})

    @pytest.mark.parametrize("params, named", [
        ({"alpha-r": 2, "T": 9}, "'alpha-r', 'T'"),
        ({"t": 4, "tt": 9, "extra_densty": 0.9}, "'tt', 'extra_densty'"),
        ({"alpha-r": None}, "'alpha-r'"),
        ({3: 1}, "3"),
        ({"alpha_R": 2, "alpha_0": 1}, "'alpha_R', 'alpha_0'"),
        ({"alpha_x": 2, "alpha_": 1, "alpha_03": 1}, "'alpha_x', 'alpha_', 'alpha_03'"),
        # What the checks write into ``derived`` is not a parameter.
        ({"clique": [9, 9], "clique_present": "no"}, "'clique', 'clique_present'"),
    ])
    def test_unknown_keys_rejected_by_name(self, params, named, fast_cfg):
        h = gen_planted("t7a", {"t": 4}, seed=1)
        calls = (lambda: _read_params(params), lambda: verify("TWO_R_EDGES_T7a", h, params, fast_cfg),
                 lambda: gen_planted("t6a", params), lambda: closed_form_exact("MS_T1", params))
        message = f"unknown parameters: {named} .*, alpha_r and alpha_<level>\\)$"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("theorem, h, params, named, closed", [
        # alpha_4 on an open pattern: level 4 reads the alpha map.
        ("GENERAL_T9a", complete(5, (2, 3, 4)), {"t": 5, "alpha_4": 5}, "'alpha_4'", Fraction(61, 125)),
        # T5 names its levels 2 and 3, so it has no rank to read alpha_r for.
        ("ONE_TWO_THREE_T5", complete(4, (1, 2, 3)), {"t": 4, "alpha_r": 5}, "'alpha_r'",
         Fraction(23, 16)),
        # A lambda' row reads no alpha key.
        ("COR1a", complete(4, (2, 3)), {"t": 4, "alpha_r": 5, "alpha": {"3": 2}},
         "'alpha_r', alpha\\[3\\]", Fraction(9, 8)),
    ])
    def test_unread_alpha_keys_rejected_by_name(self, theorem, h, params, named, closed, fast_cfg):
        """verify names every alpha key and map entry the row does not read;
        closed_form_exact, which the registry grid feeds one dict for every
        row, ignores them."""
        with pytest.raises(ValueError, match=f"^{theorem} does not read {named} on edge types"):
            verify(theorem, h, params, fast_cfg)
        assert closed_form_exact(theorem, {**params, "types": h.edge_types}) == closed
        without = {k: v for k, v in params.items() if k == "t"}
        assert verify(theorem, h, without, fast_cfg).closed_form_exact == closed

    def test_rankless_rows_check_alpha_keys_by_flavour(self, fast_cfg):
        """Without a level above 2 an "r" row has no rank. Its lambda' form
        still reads no alpha key; its L form may read alpha_r, so the
        r-range check fails instead of the key check."""
        h, params = complete(4, (2,)), {"t": 4, "alpha_r": 5}
        with pytest.raises(ValueError, match="^COR1a does not read 'alpha_r' on edge types"):
            verify("COR1a", h, params, fast_cfg)
        verdict = verify("TWO_R_T6a", h, params, fast_cfg)
        assert [(c.name, c.ok) for c in verdict.conditions] == [("r-range", False)]
        assert not verdict.passed and verdict.closed_form is None

    @pytest.mark.parametrize("r", [7, 4000000])
    def test_rank_above_soft_limit_rejected(self, r, fast_cfg):
        """r is an edge type, so it is held to the soft limit before any
        factorial or power of it is taken."""
        p, h = {"t": 4, "r": r}, complete(4, (2, 3))
        message = f"edge type {r} exceeds the soft limit 6"
        for call in (lambda: verify("TWO_R_T6a", h, p, fast_cfg),
                     lambda: check_hypotheses("ONE_R_T4", h, p),
                     lambda: closed_form_exact("ONE_R_T4", p), lambda: gen_planted("t6a", p)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("key", ["alpha_r", "alpha_2", "alpha_13"])
    def test_level_keys_are_read(self, key):
        assert _read_params({key: "3/2"}) == {key: Fraction(3, 2)}

    def test_closed_form_types_string_is_a_value_error(self):
        with pytest.raises(ValueError, match="types must be a nonempty list"):
            closed_form_exact("GENERAL_T9a", {"t": 4, "types": "23"})


class TestLambdaPrimeClosed:
    def test_values(self):
        assert closed_form_exact("COR1a", {"t": 4, "r": 3}) == Fraction(9, 8)
        assert closed_form_exact("MIXED_T10b", {"t": 4, "types": (1, 3)}) == Fraction(11, 8)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_one_two_family(self, t):
        assert lambda_prime_complete(t, (1, 2)) == 2 - Fraction(1, t)


class TestThresholds:
    def test_one_r_threshold_example(self):
        # r=3, alpha=6: ceil(5^1 / (1 * 6^0)) = 5
        assert threshold_one_r(3, Fraction(6)) == 5

    def test_one_r_degenerate_exponent(self):
        # r=3 keeps a unit denominator exponent; small alpha gives threshold <= 0
        assert threshold_one_r(3, Fraction(1, 2)) <= 0

    def test_one_two_three_threshold(self):
        assert threshold_one_two_three(Fraction(1), Fraction(1)) == 2

    def test_two_r_threshold(self):
        assert threshold_general(1, 3, Fraction(1)) == 2
        assert threshold_general(1, 4, Fraction(4), Fraction(2)) == 2

    def test_pair_window(self):
        assert pair_edge_window(4) == (6, 8)

    def test_uniform_window_r3_matches_three_level_window(self):
        for t in range(3, 8):
            lo, hi = uniform_edge_window(t, 3)
            assert lo == math.comb(t, 3)
            assert hi == math.comb(t, 3) + math.comb(t - 1, 2)

    @pytest.mark.parametrize("theorem", ["COR1a", "COR1b", "COR2a", "COR2b"])
    @pytest.mark.parametrize("r", [3, 4])
    def test_corollary_order_threshold(self, theorem, r):
        """The corollaries need t >= r(r-1)/2 + 1: the general rule under
        lambda' coefficients."""
        levels = (1, 2, r) if theorem.endswith("b") else (2, r)
        bound = r * (r - 1) // 2 + 1
        for t, ok in ((bound - 1, False), (bound, True)):
            report = check_hypotheses(theorem, complete(t, levels), {"t": t})
            (cond,) = [c for c in report.conditions if c.name == "order-threshold"]
            assert cond.ok is ok and f"t={t} must be >= {bound} " in cond.detail

    def test_strict_window_halves(self):
        lo, hi = strict_three_window(4)
        assert lo == 4 and hi == Fraction(5)
        lo5, hi5 = strict_three_window(5)
        assert hi5 == Fraction(10 + 6) - Fraction(5, 2)


class TestCheckHypotheses:
    def test_t6a_generated_instance(self):
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=1)
        report = check_hypotheses("TWO_R_T6a", h, {"alpha_r": 1})
        assert report.ok
        assert report.derived["t"] == 4
        assert report.derived["clique"] == (1, 2, 3, 4)

    def test_window_arithmetic_boundary(self):
        h8 = gen_planted("t7a", {"t": 4, "m": 8}, seed=1)
        assert check_hypotheses("TWO_R_EDGES_T7a", h8, {"t": 4}).ok
        # push one extra 2-edge beyond the window
        bumped = validate(6, h8.edges() + [[5, 6]])
        report = check_hypotheses("TWO_R_EDGES_T7a", bumped, {"t": 4})
        assert not report.ok
        names = {c.name: c.ok for c in report.conditions}
        assert names["edge-window"] is False

    def test_cor2_rejects_large_r(self):
        h = complete(6, (2, 5))
        report = check_hypotheses("COR2a", h, {})
        assert not report.ok
        assert any(c.name == "r-range-upper" and not c.ok for c in report.conditions)

    def test_shape_mismatch_reported(self):
        h = complete(4, (2, 3))
        report = check_hypotheses("NONUNIF_T3", h)
        assert not report.ok

    def test_explicit_t_disagreement(self):
        h = complete(4, (2, 3))
        report = check_hypotheses("TWO_R_T6a", h, {"t": 3})
        assert not report.ok

    @pytest.mark.parametrize("theorem", ["PTZ", "MIXED_T10a", "MIXED_T10b", "TPZZ", "MIXED_T10c"])
    @pytest.mark.parametrize("t", [0, -2])
    def test_supplied_t_below_one_rejected(self, theorem, t, fast_cfg):
        h = complete(5, (1, 2, 3))
        with pytest.raises(ValueError, match="t must be a positive integer"):
            check_hypotheses(theorem, h, {"t": t})
        with pytest.raises(ValueError, match="t must be a positive integer"):
            verify(theorem, h, {"t": t}, fast_cfg)
        with pytest.raises(ValueError, match="t must be a positive integer"):
            closed_form_exact(theorem, {"t": t, "r": 3, "types": (1, 2, 3)})

    @pytest.mark.parametrize("t", [True, 4.7, "4"])
    def test_supplied_t_must_be_an_integer(self, t, fast_cfg):
        with pytest.raises(ValueError, match="t must be an integer"):
            closed_form_exact("MS_T1", {"t": t})
        with pytest.raises(ValueError, match="t must be an integer"):
            verify("MS_T1", complete(4, (2,)), {"t": t}, fast_cfg)

    @pytest.mark.parametrize("alpha_r", [-1, 0, "-1/2", "1/0", "x", float("nan"), True, [1], "1e400"])
    def test_alpha_must_be_positive(self, alpha_r):
        p = {"t": 4, "r": 3, "alpha_r": alpha_r}
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=1)
        with pytest.raises(ValueError, match="alpha_r must be a positive number"):
            check_hypotheses("TWO_R_T6a", h, p)
        with pytest.raises(ValueError, match="alpha_r must be a positive number"):
            closed_form_exact("TWO_R_T6a", p)
        with pytest.raises(ValueError, match="alpha_r must be a positive number"):
            gen_planted("t6a", p, seed=1)

    @pytest.mark.parametrize("alpha", [{"3": 0}, {"3": "1/0"}, [2]])
    def test_alpha_map_entries_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            closed_form_exact("GENERAL_T9a", {"t": 5, "types": (2, 3), "alpha": alpha})
        with pytest.raises(ValueError, match="alpha"):
            check_hypotheses("GENERAL_T9a", complete(5, (2, 3)), {"alpha": alpha})

    def test_order_zero_clique_fails_the_window(self, fast_cfg):
        # A {3}-graph without singletons has no (1,3)-clique, so t = 0.
        h = validate(5, [[1, 2, 3], [1, 2, 4], [2, 3, 4]])
        report = check_hypotheses("MIXED_T10b", h)
        assert not report.ok
        assert report.derived["t"] == 0
        window = [c for c in report.conditions if c.name == "edge-window"]
        assert len(window) == 1 and not window[0].ok
        verdict = verify("MIXED_T10b", h, None, fast_cfg)
        assert not verdict.applicable and not verdict.passed


class TestVerify:
    def test_one_two_graph(self, fast_cfg):
        h = complete(3, (1, 2))
        verdict = verify("NONUNIF_T3", h, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.numerical == pytest.approx(5 / 3, abs=1e-6)
        assert verdict.uniform_on_clique_exact == Fraction(5, 3)

    def test_two_r_instance(self, fast_cfg):
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=2)
        verdict = verify("TWO_R_T6a", h, {"alpha_r": 1}, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.numerical == pytest.approx(0.4375, abs=1e-6)
        assert verdict.kkt_residual <= 1e-5

    def test_edgeless_instance(self, fast_cfg):
        verdict = verify("MS_T1", validate(3, []), cfg=fast_cfg)
        assert verdict.passed and verdict.t == 1 and verdict.m == 0
        assert verdict.numerical == 0.0 and verdict.kkt_residual == 0.0
        assert verdict.closed_form_exact == verdict.uniform_on_clique_exact == 0

    def test_budget_exhausted_note(self):
        h = gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=2)
        verdict = verify("TPZZ", h, {"t": 4}, SolverConfig(starts=2, max_iters=1))
        assert not verdict.solver.converged and not verdict.passed
        assert "solver budget exhausted before convergence" in verdict.notes

    def test_unconverged_equality_fails(self, fast_cfg, monkeypatch):
        """The equality branch also needs a converged solve, even at the
        closed form's value."""
        solve = theorems_module.maximize
        monkeypatch.setattr(theorems_module, "maximize",
                            lambda *args: dataclasses.replace(solve(*args), converged=False))
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=2)
        verdict = verify("TWO_R_T6a", h, {"alpha_r": 1}, cfg=fast_cfg)
        assert abs(verdict.numerical - verdict.closed_form) <= 1e-6
        assert verdict.uniform_on_clique_exact == verdict.closed_form_exact
        assert not verdict.passed

    def test_closed_form_from_instance_types_only(self, fast_cfg):
        """The verdict resolves its row on the instance's edge types, never
        on a ``types`` parameter: on a graph with no level above 2 the open
        row stops at its shape check, with no t and no closed form."""
        verdict = verify("GENERAL_T9a", complete(4, (2,)), {"t": 4, "types": [2, 3]}, fast_cfg)
        assert verdict.conditions[-1].name == "type-shape" and not verdict.conditions[-1].ok
        assert verdict.closed_form is None and verdict.closed_form_exact is None

    def test_not_applicable_short_circuit(self, fast_cfg):
        h = complete(4, (2, 3))
        verdict = verify("NONUNIF_T3", h, cfg=fast_cfg)
        assert not verdict.applicable and not verdict.passed
        assert verdict.numerical is None

    def test_strict_branch(self, fast_cfg):
        g = gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=5)
        h = with_singletons(g)
        verdict = verify("MIXED_T10c", h, {"t": 4}, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.margin is not None and verdict.margin > 0
        assert verdict.numerical < 1.375

    def test_equality_branch_of_strict_window(self, fast_cfg):
        # clique present inside the strict window: the closed value is attained
        g = gen_planted("ptz", {"t": 4, "r": 3, "m": 5}, seed=3)
        h = with_singletons(g)
        verdict = verify("MIXED_T10c", h, {"t": 4}, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.uniform_on_clique_exact == Fraction(11, 8)

    def test_mixed_wrapper(self, fast_cfg):
        g = gen_planted("ptz", {"t": 4, "r": 3, "m": 6}, seed=4)
        h = with_singletons(g)
        verdict = verify("MIXED_T10b", h, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.numerical == pytest.approx(1.375, abs=1e-6)

    def test_pure_uniform_level_theorem(self, fast_cfg):
        g = gen_planted("ptz", {"t": 4, "r": 3, "m": 7}, seed=9)
        verdict = verify("PZ", g, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.closed_form == pytest.approx(1 / 16)

    def test_general_family(self, fast_cfg):
        h = complete(5, (2, 3, 4))
        verdict = verify("GENERAL_T9a", h, cfg=fast_cfg)
        assert verdict.passed
        assert verdict.numerical == pytest.approx(float(complete_value(5, (2, 3, 4))), abs=1e-6)
        assert any("largest cardinality" in note for note in verdict.notes)

    def test_general_alpha_map_never_sets_a_named_level(self, fast_cfg):
        """GENERAL_T9b names level 2, so alpha_2 is 1 when absent, even with a
        2 in the alpha map: the closed form ignores the entry, and verify
        rejects it by name."""
        p = {"t": 5, "types": [1, 2, 3, 4], "alpha": {"2": 3}}
        assert closed_form_exact("GENERAL_T9b", p) == complete_value(5, (1, 2, 3, 4))
        with pytest.raises(ValueError, match=r"does not read alpha\[2\] .*reads alpha_2, alpha\[3\]"):
            verify("GENERAL_T9b", complete(5, (1, 2, 3, 4)), p, cfg=fast_cfg)

    def test_factorial_weight_bridge(self, fast_cfg):
        """A factorial-weighted verdict equals 2! times the plain weighted
        optimum with alpha_r = r!/2 on the same instance."""
        from lagrangian_lab import Coefficients

        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 5}, seed=7)
        verdict = verify("COR1a", h, cfg=fast_cfg)
        assert verdict.passed
        res = maximize(h, Coefficients(2, {3: 3}), fast_cfg)
        assert verdict.numerical == pytest.approx(2 * res.value, abs=1e-9)

    @pytest.mark.parametrize("t", [12, 13])
    def test_excess_above_the_closed_form_fails(self, t):
        """The solver's point on the pair-window graph beats the closed form
        by less than the tolerance; the upper side is relative, not _TOL."""
        verdict = verify("TWO_R_EDGES_T7a", pair_window_graph(t), {"alpha_r": "11/10"},
                         SolverConfig(starts=16, seed=1))
        assert verdict.hypotheses_ok and verdict.solver.converged
        assert 0 < verdict.numerical - verdict.closed_form < 1e-6
        assert verdict.uniform_on_clique_exact == verdict.closed_form_exact
        assert not verdict.passed
        assert any(n.startswith("numerical exceeds the closed form by") for n in verdict.notes)

    def test_pass_a_few_ulps_above_the_closed_form(self):
        h = gen_planted("t6a", {"t": 5}, seed=0)
        verdict = verify("TWO_R_T6a", h, {"t": 5}, SolverConfig())
        assert 0 < verdict.numerical - verdict.closed_form < 1e-15
        assert verdict.passed
        assert not any("exceeds" in n for n in verdict.notes)

    def test_verdict_serialization(self, fast_cfg):
        h = complete(3, (1, 2))
        verdict = verify("NONUNIF_T3", h, cfg=fast_cfg)
        doc = verdict.to_dict()
        assert doc["pass"] is True
        # Both sides of the equality test, just before the verdict.
        keys = list(doc)
        assert keys[keys.index("tolerance"):keys.index("pass") + 1] == [
            "tolerance", "rel_excess", "pass"]
        assert (doc["tolerance"], doc["rel_excess"]) == (1e-6, 1e-12)
        assert doc["closed_form_exact"] == "5/3"
        assert doc["theorem"] == "NONUNIF_T3"

    def test_seven_b_requires_stronger_ratio(self, fast_cfg):
        h = with_singletons(gen_planted("t7a", {"t": 4, "m": 7}, seed=2))
        ok = check_hypotheses("ONE_TWO_R_EDGES_T7b", h, {"alpha_2": 1, "alpha_r": 1})
        assert ok.ok
        weak_only = check_hypotheses(
            "ONE_TWO_R_EDGES_T7b", h, {"alpha_2": Fraction(3, 4), "alpha_r": 1}
        )
        names = {c.name: c.ok for c in weak_only.conditions}
        assert names["coefficient-ratio"] is True
        assert names["coefficient-ratio-strong"] is False
        assert not weak_only.ok


def test_mixed_t10a_instance(fast_cfg):
    edges = complete(4, (2,)).edges() + complete(4, (3,)).edges() + [(1, 2, 5), (1, 3, 5)]
    h = validate(5, edges)
    verdict = verify("MIXED_T10a", h, cfg=fast_cfg)
    assert verdict.passed
    assert verdict.uniform_on_clique_exact == Fraction(9, 8)
    assert verdict.m == 6


def test_registry_is_closed():
    assert len(theorem_ids()) == 20 and theorem_ids()[0] == "MS_T1"
    h = complete(3, (2,))
    for call in (lambda: check_hypotheses("NOPE", h), lambda: closed_form_exact("NOPE", {"t": 3}),
                 lambda: verify("NOPE", h)):
        with pytest.raises(ValueError, match="unknown theorem 'NOPE'"):
            call()


@settings(max_examples=60, deadline=None)
@given(types=st.sets(st.sampled_from((1, 2, 3, 4)), min_size=1), n=st.integers(1, 7),
       density=st.floats(0.3, 1.0), seed=st.integers(0, 10_000))
def test_reports_read_the_rows_levels(types, n, density, seed):
    # The levels a report states, and the levels its clique is complete on,
    # are the row's: the ones its closed form sums. On the "3+" rows these
    # differ from the instance's edge types whenever the type shape fails.
    h = gen_random(n, sorted(types), density, seed)
    for theorem in theorem_ids():
        row = theorems_module._row(theorem, _read_params({}), h.edge_types)
        derived = check_hypotheses(theorem, h, {}).derived
        if "types" in derived:
            assert derived["types"] == row.levels, theorem
        if "clique" in derived:
            assert is_complete_on(h, derived["clique"], row.levels), theorem


def pair_window_graph(t, r=3):
    """The pair-window family F_{t,r}: on [t+1], every r-set and every pair
    but {t-1, t+1} and {t, t+1}. Its largest {2,r}-clique is [t]."""
    n, missing = t + 1, {(t - 1, t + 1), (t, t + 1)}
    return validate(n, [e for k in (2, r) for e in itertools.combinations(range(1, n + 1), k)
                        if e not in missing])


def _weights(counts, total):
    """(multiplicity, numerator) pairs over one denominator."""
    return tuple(Fraction(k, total) for times, k in counts for _ in range(times))


# (theorem, instance, parameters, point, closed form, value at the point)
KNOWN_REFUTATIONS = [
    ("TWO_R_EDGES_T7a", validate(4, [(1, 2), (1, 3), (1, 4), (2, 3)] + complete(4, (3,)).edges()),
     {"alpha_r": 2}, _weights([(1, 10), (2, 9), (1, 3)], 31),
     Fraction(11, 27), Fraction(12207, 29791)),
    ("TWO_R_EDGES_T7a", pair_window_graph(12), {"alpha_r": "11/10"},
     _weights([(10, 833), (2, 830), (1, 7)], 9997),
     Fraction(517, 864), Fraction(1195682939595, 1998200539946)),
    ("TWO_R_EDGES_T7a", pair_window_graph(13), {"alpha_r": "11/10"},
     _weights([(11, 77), (2, 76), (1, 1)], 1000),
     Fraction(511, 845), Fraction(755917499, 1250000000)),
    ("COR2a", pair_window_graph(4), {"r": 3}, _weights([(2, 243), (2, 204), (1, 105)], 999),
     Fraction(9, 8), Fraction(14240872, 12308679)),
]


@pytest.mark.parametrize("theorem, h, params, x, closed, value", KNOWN_REFUTATIONS,
                         ids=["t7a-n4", "t7a-F12", "t7a-F13", "cor2a-F4"])
def test_known_refutations_are_exact(theorem, h, params, x, closed, value):
    """Instances meeting every hypothesis where an exact rational point
    beats the closed form: the registry's reading of these rows is refuted
    without a solver or a tolerance. The pair-window points are roundings
    of a solver maximum."""
    report = check_hypotheses(theorem, h, params)
    assert report.ok
    assert closed_form_exact(theorem, {**params, "t": report.derived["t"],
                                       "types": h.edge_types}) == closed
    coeffs, scale = flavour_coefficients(theorems_module.SPECS[theorem].flavour, h.edge_types,
                                         report.derived.get("alpha"))
    assert scale * eval_exact(h, coeffs, x) == value
    assert value > closed


def _frontier_gap(t, r, alpha_r):
    """g_{t+1} - lambda on F_{t,r} at x* = uniform on [t], with alpha_2 = 1,
    from the exact gradient, after checking g_i = lambda on [t], where
    lambda = (t-1)/t + alpha_r C(t-1, r-1) / t^(r-1)."""
    h = pair_window_graph(t, r)
    g = gradient_exact(h, Coefficients(2, {r: alpha_r}), rational_uniform(h.n, range(1, t + 1)))
    lam = Fraction(t - 1, t) + alpha_r * Fraction(math.comb(t - 1, r - 1), t ** (r - 1))
    assert g[:t] == [lam] * t
    return g[t] - lam


def test_pair_window_frontier_is_exact():
    """The T7a frontier on F_{t,r}, exactly and with no solver:
    g_{t+1} - lambda = (alpha_r C(t-1, r-2) - t^(r-2)) / t^(r-1), negative
    for every t at alpha_r = (r-2)!. The sign's factor C(t-1, r-2) / t^(r-2)
    rises with t, so a sign change from t-1 to t is the first. At alpha_r =
    3/2, verify fails F_{4,3} (sign positive) and passes F_{3,3} (sign 0)."""
    for r in range(3, 7):
        for alpha_r in {1, Fraction(11, 10), Fraction(3, 2), 2, 12, math.factorial(r - 2)}:
            for t in range(r, 13):
                gap = _frontier_gap(t, r, alpha_r)
                assert gap == Fraction(alpha_r * math.comb(t - 1, r - 2) - t ** (r - 2),
                                       t ** (r - 1))
                assert gap < 0 or alpha_r != math.factorial(r - 2)
    for r, alpha_r, first in [(3, Fraction(3, 2), 4), (3, Fraction(11, 10), 12),
                              (3, Fraction(21, 20), 22), (4, 3, 9), (4, Fraction(5, 2), 15),
                              (5, 12, 10)]:
        assert _frontier_gap(first - 1, r, alpha_r) <= 0 < _frontier_gap(first, r, alpha_r)
    cfg = SolverConfig(starts=16, seed=1)
    for t, passed in [(4, False), (3, True)]:
        verdict = verify("TWO_R_EDGES_T7a", pair_window_graph(t), {"alpha_r": "3/2"}, cfg)
        assert verdict.hypotheses_ok and verdict.passed is passed
