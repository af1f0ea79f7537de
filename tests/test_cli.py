import csv
import hashlib
import json
from types import SimpleNamespace

import pytest

from lagrangian_lab import complete, dump, gen_planted, load, to_json, validate, with_singletons
from lagrangian_lab import cli, generators
from lagrangian_lab.cli import run


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "K5_2.json"
    dump(complete(5, (2,)), path)
    return str(path)


@pytest.fixture
def edgeless_file(tmp_path):
    path = tmp_path / "empty.json"
    dump(validate(3, []), path)
    return str(path)


@pytest.fixture
def one_two_file(tmp_path):
    path = tmp_path / "h.json"
    dump(complete(3, (1, 2)), path)
    return str(path)


class TestCompute:
    def test_lambda_value_formatting(self, k5_file, capsys):
        code = run(["compute", k5_file, "--objective", "lambda", "--starts", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.400000000000"

    def test_lambda_prime(self, one_two_file, capsys):
        code = run(["compute", one_two_file, "--objective", "lambda-prime", "--starts", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.666666666667"

    def test_weighted_needs_coeffs(self, k5_file, capsys):
        assert run(["compute", k5_file, "--objective", "weighted"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [["--grid", "--grid-d", "0"], ["--objective", "weighted"], ["--starts", "0"]],
        ids=["grid-d-0", "weighted-no-coeffs", "starts-0"],
    )
    def test_bad_flags_fail_on_edgeless_input(self, edgeless_file, capsys, flags):
        assert run(["compute", edgeless_file] + flags) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_edgeless_output(self, edgeless_file, capsys):
        for objective in ("lambda", "lambda-prime"):
            assert run(["compute", edgeless_file, "--objective", objective, "--grid", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_weighted_with_coeffs(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        dump(complete(4, (2, 3)), h)
        cfile = tmp_path / "coeffs.json"
        cfile.write_text('{"r0": 2, "alpha": {"3": 1.0}}')
        code = run(["compute", str(h), "--objective", "weighted", "--coeffs", str(cfile), "--starts", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.437500000000"

    def test_json_output(self, k5_file, capsys):
        code = run(["compute", k5_file, "--json", "--starts", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(0.4, abs=1e-6)
        assert sorted(doc["support"]) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("flags", [[], ["--grid", "--grid-d", "6"]], ids=["solve", "grid"])
    def test_json_keys_in_field_order(self, k5_file, capsys, flags):
        assert run(["compute", k5_file, "--json", "--starts", "4"] + flags) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["value", "x", "support", "kkt_residual", "method", "iterations",
                             "converged", "sort_permutation"]
        # Random starts that reach the uniform point tie the clique start up
        # to rounding; ties go by start order, so the clique start wins.
        assert (doc["method"], doc["iterations"]) == ("warmstart", 1)
        assert all(type(v) is float and v == 0.2 for v in doc["x"])
        assert doc["sort_permutation"] == [1, 2, 3, 4, 5]

    def test_edgeless_json_has_every_key(self, edgeless_file, capsys):
        # The zero objective is at a KKT point from the start: one iteration.
        assert run(["compute", edgeless_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["value", "x", "support", "kkt_residual", "method", "iterations",
                             "converged", "sort_permutation"]
        assert (doc["value"], doc["iterations"]) == (0.0, 1)

    @pytest.mark.parametrize("key", ["x", "0", "03", "\u0663"])
    def test_bad_alpha_key_exits_one(self, k5_file, tmp_path, capsys, key):
        cfile = tmp_path / "coeffs.json"
        cfile.write_text(json.dumps({"r0": 2, "alpha": {key: 1}}))
        assert run(["compute", k5_file, "--objective", "weighted", "--coeffs", str(cfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --coeffs must hold a JSON object")
        assert f"alpha keys must be positive integer levels, got {key!r}" in err

    def test_unknown_coeffs_key_exits_one(self, tmp_path, capsys):
        """A key other than r0 and alpha is named, not dropped."""
        path, cfile = tmp_path / "g.json", tmp_path / "coeffs.json"
        dump(complete(5, (2, 3, 4)), path)
        cfile.write_text(json.dumps({"r0": 2, "alpha": {"3": 1, "4": 1}, "alpha_3": 5}))
        assert run(["compute", str(path), "--objective", "weighted", "--coeffs", str(cfile)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "'alpha_3'" in lines[0]

    def test_grid_flag(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        dump(complete(3, (2,)), h)
        code = run(["compute", str(h), "--grid", "--grid-d", "12", "--starts", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.333333333333"

    def test_grid_resolution_below_one_exits_one(self, tmp_path, capsys):
        h = tmp_path / "h.json"
        dump(complete(3, (2,)), h)
        assert run(["compute", str(h), "--grid", "--grid-d", "0", "--starts", "2"]) == 1
        assert "grid resolution" in capsys.readouterr().err

    def test_grid_resolution_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("maximize ran before the grid resolution was checked")

        h = tmp_path / "h.json"
        dump(complete(3, (2,)), h)
        monkeypatch.setattr(cli, "maximize", no_solve)
        assert run(["compute", str(h), "--grid", "--grid-d", "0", "--starts", "2"]) == 1
        assert "grid resolution must be a positive integer" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["compute", "/nonexistent/x.json"]) == 1

    @pytest.mark.parametrize(
        "doc", ['{"alpha": {"3": 1}}', "[1, 2]", '{"r0": null}', '{"r0": 2, "alpha": {"3": "1/0"}}',
                '{"r0": 2.7, "alpha": {"3": 1}}'])
    def test_malformed_coeffs_exit_one(self, k5_file, tmp_path, capsys, doc):
        cfile = tmp_path / "coeffs.json"
        cfile.write_text(doc)
        assert run(["compute", k5_file, "--objective", "weighted", "--coeffs", str(cfile)]) == 1
        assert "--coeffs must hold a JSON object" in capsys.readouterr().err

    def test_tol_flag_removed(self, k5_file, capsys):
        assert run(["compute", k5_file, "--tol", "1e-6"]) == 1

    @pytest.mark.parametrize(
        "doc,message",
        [('{"n": "5", "edges": [[1, 2]]}', "n must be an integer, got '5'"),
         ('{"n": 5.5, "edges": [[1, 2]]}', "n must be an integer, got 5.5"),
         ('{"n": 5, "edges": 3}', 'hypergraph JSON must be {"n": int, "edges": [[...], ...]}'),
         ('{"n": 5, "edges": [3]}', "edge must be a list of vertices, got 3"),
         ('{"n": 5, "edges": [["a", 2]]}', "vertex must be an integer, got 'a'"),
         ('{"n": 5, "edges": [[true, 2]]}', "vertex must be an integer, got True")],
        ids=["n-string", "n-fraction", "edges-int", "edge-int", "vertex-string", "vertex-bool"],
    )
    @pytest.mark.parametrize("command", ["compute", "clique"])
    def test_malformed_hypergraph_exits_one(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "h.json"
        path.write_text(doc)
        assert run([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_float_vertices_are_ints(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text('{"n": 5.0, "edges": [[1.0, 2.0]]}')
        assert run(["clique", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["vertices"] == [1, 2]

    @pytest.mark.parametrize(
        "flags,message",
        [(["--coeffs", "c.json"], "--coeffs needs --objective weighted"),
         (["--objective", "lambda-prime", "--coeffs", "c.json"], "--coeffs needs --objective weighted"),
         (["--grid-d", "0"], "--grid-d needs --grid"),
         (["--grid-d", "12"], "--grid-d needs --grid")],
        ids=["coeffs", "coeffs-lambda-prime", "grid-d-0", "grid-d-12"],
    )
    def test_ignored_flags_exit_one(self, k5_file, capsys, flags, message):
        assert run(["compute", k5_file] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_polished_grid_point_wins_under_a_tight_budget(self, tmp_path, capsys):
        """With one iteration per ascent the grid's argmax is the nearest
        start to the optimum, so its polished point replaces the solve."""
        path = tmp_path / "h.json"
        dump(validate(5, [[1, 4], [1, 5], [2, 4], [3, 4], [3, 5], [1, 2, 5], [1, 4, 5]]), path)
        budget = ["--starts", "1", "--max-iters", "1", "--json"]
        assert run(["compute", str(path)] + budget) == 0
        solved = json.loads(capsys.readouterr().out)
        assert run(["compute", str(path), "--grid", "--grid-d", "12"] + budget) == 0
        gridded = json.loads(capsys.readouterr().out)
        assert solved["method"] != "grid" and not solved["converged"]
        assert gridded["method"] == "grid"
        assert gridded["value"] > solved["value"] + 1e-4


class TestClique:
    def test_json_shape(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump(complete(4, (2, 3)), path)
        assert run(["clique", str(path), "--types", "2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 4
        assert doc["vertices"] == [1, 2, 3, 4]

    def test_edgeless_input_needs_types(self, edgeless_file, capsys):
        assert run(["clique", edgeless_file]) == 1
        assert capsys.readouterr().err == "error: hypergraph has no edges; pass --types explicitly\n"
        assert run(["clique", edgeless_file, "--types", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 1

    @pytest.mark.parametrize("types", ["", "a", "2,,3", "2,", "0", "2,-3", "2.5", "03", "٢"])
    def test_bad_types_exit_one(self, edgeless_file, one_two_file, capsys, types):
        # An empty value is rejected, not read as "use the file's edge types".
        for path in (edgeless_file, one_two_file):
            assert run(["clique", path, "--types", types]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: argument --types: must be comma-separated positive ints, got {types!r}\n")

    def test_types_with_spaces(self, one_two_file, capsys):
        assert run(["clique", one_two_file, "--types", " 1, 2"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 3


class TestCompress:
    def test_check(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path), "--check"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_fixpoint_to_file(self, tmp_path):
        path = tmp_path / "h.json"
        out = tmp_path / "out.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path), "--fixpoint", "-o", str(out)]) == 0
        assert load(out).edges() == [(1, 2)]

    def test_fixpoint_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path), "--fixpoint"]) == 0
        assert capsys.readouterr().out == '{"n": 3, "edges": [[1, 2]]}\n'

    def test_check_with_output_exits_one(self, tmp_path, capsys):
        path, out = tmp_path / "h.json", tmp_path / "out.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path), "--check", "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: -o/--output needs --fixpoint\n")
        assert not out.exists()

    def test_fixpoint_with_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path), "--fixpoint", "--json"]) == 1
        assert capsys.readouterr() == ("", "error: --json needs --check\n")

    def test_flags_required(self, tmp_path):
        path = tmp_path / "h.json"
        dump(validate(3, [[2, 3]]), path)
        assert run(["compress", str(path)]) == 1


class TestVerify:
    def test_pass_exit_zero(self, one_two_file, capsys):
        code = run(["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--starts", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "closed_form 1.666666666667" in out
        assert "pass true" in out

    def test_fail_exit_two(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        dump(complete(4, (2, 3)), path)  # wrong shape for NONUNIF_T3
        code = run(["verify", "--theorem", "NONUNIF_T3", "--input", str(path), "--starts", "4"])
        assert code == 2

    def test_json_verdict(self, one_two_file, capsys):
        code = run(
            ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--json", "--starts", "4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and doc["theorem"] == "NONUNIF_T3"

    VERDICT_KEYS = ["theorem", "hypotheses_ok", "conditions", "applicable", "closed_form",
                    "closed_form_exact", "numerical", "uniform_on_clique", "uniform_on_clique_exact",
                    "kkt_residual", "tolerance", "rel_excess", "pass", "margin", "t", "r", "m", "notes"]

    @pytest.mark.parametrize("theorem, family, params, applicable, uniform", [
        ("TWO_R_T6a", "t6a", {"t": 4}, True, "7/16"),
        ("PTZ", "t6a", {"t": 4}, False, None),
        ("TPZZ", "tpzz-free", {"t": 4, "m": 5, "n": 6}, True, None),
        ("TPZZ", "t6a", {}, False, None),
    ], ids=["applicable", "not-applicable", "strict", "no-closed-form"])
    def test_json_keys_in_field_order(self, tmp_path, capsys, theorem, family, params, applicable,
                                      uniform):
        def strict_json(constant):
            raise ValueError(f"{constant} is not JSON")

        path = tmp_path / "g.json"
        dump(gen_planted(family, params, seed=3), path)
        args = ["verify", "--theorem", theorem, "--input", str(path), "--params", json.dumps(params),
                "--json", "--starts", "4"]
        assert run(args) == (0 if applicable else 2)
        doc = json.loads(capsys.readouterr().out, parse_constant=strict_json)
        assert list(doc) == self.VERDICT_KEYS
        assert doc["applicable"] is applicable and doc["pass"] is applicable
        assert doc["uniform_on_clique_exact"] == uniform
        assert (doc["numerical"] is None) is (not applicable)
        assert all(list(c) == ["name", "ok", "detail"] for c in doc["conditions"])

    @pytest.mark.parametrize("theorem, family, params, shown", [
        ("TWO_R_T6a", "t6a", {"t": 4}, ["closed_form", "numerical", "uniform_on_clique",
                                        "kkt_residual", "margin"]),
        ("PTZ", "t6a", {"t": 4}, ["closed_form"]),
        ("TPZZ", "tpzz-free", {"t": 4, "m": 5, "n": 6}, ["closed_form", "numerical",
                                                        "kkt_residual", "margin"]),
        ("TPZZ", "t6a", {}, []),
    ], ids=["applicable", "not-applicable", "strict", "no-closed-form"])
    def test_text_report_prints_only_set_values(self, tmp_path, capsys, theorem, family, params,
                                                shown):
        path = tmp_path / "g.json"
        dump(gen_planted(family, params, seed=3), path)
        run(["verify", "--theorem", theorem, "--input", str(path), "--params", json.dumps(params),
             "--starts", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.endswith(" ") for line in lines)
        values = [line.split()[0] for line in lines if line.split()[0] in self.VERDICT_KEYS]
        assert values == ["theorem", "hypotheses_ok"] + shown + ["pass"]

    def test_margin_that_rounds_to_zero_prints_unsigned(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        assert run(["generate", "--family", "t6a", "--params", '{"t": 5}', "--seed", "0",
                    "-o", path]) == 0
        args = ["verify", "--theorem", "TWO_R_T6a", "--input", path, "--params", '{"t": 5}']
        assert run(args + ["--json"]) == 0
        assert -1e-12 < json.loads(capsys.readouterr().out)["margin"] < 0
        assert run(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "margin 0.000000000000" in lines
        assert not any("-0.000000000000" in line for line in lines)
        assert cli._cell("numerical", -1e-16) == "0.000000000000"

    def test_params_inline(self, tmp_path, capsys):
        g = with_singletons(gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=3))
        path = tmp_path / "g.json"
        dump(g, path)
        code = run(
            [
                "verify",
                "--theorem",
                "MIXED_T10c",
                "--input",
                str(path),
                "--params",
                '{"t": 4}',
                "--starts",
                "6",
            ]
        )
        assert code == 0

    def test_bad_theorem_name(self, one_two_file):
        assert run(["verify", "--theorem", "BOGUS", "--input", one_two_file]) == 1

    def test_inline_params_longer_than_a_file_name(self, one_two_file, capsys):
        params = '{"t": 3' + " " * 300 + "}"
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--starts", "4"]
        assert run(args + ["--params", params]) == 0

    @pytest.mark.parametrize("params", ['{"t": "4"}', '{"r": 3.5}'])
    def test_non_integer_order_exits_one(self, one_two_file, capsys, params):
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--params", params]
        assert run(args) == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_order_below_one_exits_one(self, one_two_file, capsys):
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--params", '{"t": 0}']
        assert run(args) == 1
        assert "t must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("params", ["[1]", '"t"', "4"])
    def test_params_must_be_an_object(self, one_two_file, capsys, params):
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--params", params]
        assert run(args) == 1
        assert capsys.readouterr().err == "error: --params must be a JSON object\n"

    @pytest.mark.parametrize("key", ["x", "0", "03", "\u0663"])
    def test_bad_alpha_key_exits_one(self, tmp_path, capsys, key):
        path = tmp_path / "g.json"
        dump(complete(5, (2, 3)), path)
        params = json.dumps({"alpha": {key: 1}})
        assert run(["verify", "--theorem", "GENERAL_T9a", "--input", str(path), "--params", params]) == 1
        err = capsys.readouterr().err
        assert err == f"error: alpha keys must be positive integer levels, got {key!r}\n"

    @pytest.mark.parametrize("params, named", [('{"alpha-r": 2, "T": 9}', "'alpha-r', 'T'"),
                                               ('{"tt": 9}', "'tt'"),
                                               ('{"alpha_R": 2}', "'alpha_R'")])
    def test_unknown_param_key_exits_one(self, tmp_path, capsys, params, named):
        path = tmp_path / "g.json"
        dump(gen_planted("t7a", {"t": 4}, seed=1), path)
        args = ["verify", "--theorem", "TWO_R_EDGES_T7a", "--input", str(path), "--starts", "4"]
        assert run(args + ["--params", params]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown parameters: {named} ")

    def test_grid_d_flag_removed(self, one_two_file, capsys):
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--grid-d", "12"]
        assert run(args) == 1

    def test_tol_flag_removed(self, one_two_file, capsys):
        args = ["verify", "--theorem", "NONUNIF_T3", "--input", one_two_file, "--tol", "1e-3"]
        assert run(args) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --tol 1e-3\n"

    def test_unreadable_coefficient_exits_one(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        dump(gen_planted("t6a", {"t": 4}, seed=1), path)
        args = ["verify", "--theorem", "TWO_R_T6a", "--input", str(path)]
        # "1e400" is a positive Fraction that no float can hold.
        for alpha_r in ("1/0", "1e400"):
            assert run(args + ["--params", f'{{"t": 4, "alpha_r": "{alpha_r}"}}']) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: alpha_r must be a positive number") and "Traceback" not in err


class TestGenerate:
    def test_roundtrip_hash_stable(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        args = [
            "generate",
            "--family",
            "t6a",
            "--params",
            '{"t": 4, "r": 3, "n": 6}',
            "--seed",
            "5",
            "-o",
            str(out),
        ]
        assert run(args) == 0
        h = load(out)
        digest = hashlib.sha256(to_json(h).encode()).hexdigest()
        out2 = tmp_path / "g2.json"
        assert run(args[:-1] + [str(out2)]) == 0
        assert hashlib.sha256(to_json(load(out2)).encode()).hexdigest() == digest

    def test_infeasible_window(self, capsys):
        assert run(["generate", "--family", "t7a", "--params", '{"t": 4, "m": 99}']) == 1

    @pytest.mark.parametrize("t", ["4.7", '"4"', "true"])
    def test_non_integer_order_exits_one(self, capsys, t):
        assert run(["generate", "--family", "t6a", "--params", f'{{"t": {t}}}']) == 1
        assert capsys.readouterr().err.startswith("error: t must be an integer")

    @pytest.mark.parametrize(
        "family,params,message",
        [("t6a", '{"extra_density": [1]}', "extra_density must be a number in [0, 1]"),
         ("t6a", '{"extra_density": 5}', "extra_density must be a number in [0, 1]"),
         ("random-lc", '{"types": "ab"}', "types must be a nonempty list of positive integers"),
         ("random-lc", '{"types": [0, 2]}', "types must be a nonempty list of positive integers"),
         ("random-lc", '{"density": {"2": 0.5, "3": 0.5}}', "density must be a number in [0, 1]"),
         ("random-lc", '{"density": 5}', "density must be a number in [0, 1]")],
        ids=["extra-density-list", "extra-density-5", "types-string", "types-zero",
             "density-map", "density-5"],
    )
    def test_bad_family_params_exit_one(self, capsys, family, params, message):
        assert run(["generate", "--family", family, "--params", params]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}, got ") and "Traceback" not in err

    @pytest.mark.parametrize("family, params, named", [
        ("t6a", '{"tt": 9, "extra_densty": 0.9}', "'tt', 'extra_densty'"),
        ("t7a", '{"alpha-r": 2}', "'alpha-r'"),
        ("t7a", '{"alpha_R": 2}', "'alpha_R'"),
    ])
    def test_unknown_param_key_exits_one(self, capsys, family, params, named):
        assert run(["generate", "--family", family, "--params", params]) == 1
        assert capsys.readouterr().err.startswith(f"error: unknown parameters: {named} ")

    @pytest.mark.parametrize("family,params", [("random-lc", '{"n": 100000}'), ("t6a", '{"t": 100000}')])
    def test_oversized_exits_one_before_listing_edges(self, monkeypatch, capsys, family, params):
        def combinations(*args):
            raise AssertionError("an edge enumeration ran before the soft-limit check")
        monkeypatch.setattr(generators, "itertools", SimpleNamespace(combinations=combinations))
        assert run(["generate", "--family", family, "--params", params]) == 1
        assert capsys.readouterr().err.startswith("error: n=100")

    def test_null_order_is_the_default(self, capsys):
        outputs = []
        for params in ('{"t": null}', '{"t": 4}'):
            assert run(["generate", "--family", "t6a", "--params", params]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestSweep:
    def test_csv_shape_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "--family",
                "t7a",
                "--theorem",
                "TWO_R_EDGES_T7a",
                "--seeds",
                "1..3",
                "--params",
                '{"t": 4, "m": 7}',
                "--jobs",
                "1",
                "--starts",
                "6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0].keys()) == [
            "family",
            "seed",
            "theorem",
            "t",
            "r",
            "m",
            "hypotheses_ok",
            "closed_form",
            "numerical",
            "uniform_on_clique",
            "kkt_residual",
            "pass",
            "wall_ms",
        ]
        assert all(row["pass"] == "True" for row in rows)
        assert [row["seed"] for row in rows] == ["1", "2", "3"]

    def test_parallel_matches_serial_order(self, tmp_path):
        serial = tmp_path / "serial.csv"
        par = tmp_path / "par.csv"
        base = [
            "sweep",
            "--family",
            "ptz",
            "--theorem",
            "PTZ",
            "--seeds",
            "1..4",
            "--params",
            '{"t": 4, "r": 3, "m": 6}',
            "--starts",
            "4",
        ]
        assert run(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert run(base + ["--jobs", "2", "--out", str(par)]) == 0

        def strip(path):
            with path.open() as fh:
                return [
                    {k: v for k, v in row.items() if k != "wall_ms"}
                    for row in csv.DictReader(fh)
                ]

        assert strip(serial) == strip(par)


class TestSweepSeedsAndFailures:
    BASE = ["sweep", "--family", "ptz", "--params", '{"t": 4, "r": 3, "m": 6}', "--jobs", "1",
            "--starts", "2"]

    def test_comma_seed_list(self, capsys):
        assert run(self.BASE + ["--theorem", "PTZ", "--seeds", "3,1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["seed"] for row in rows] == ["3", "1"]

    @pytest.mark.parametrize("flags", [["--theorem", "PTZ,NOPE"], ["--theorem", "PTZ", "--tol", "1e-3"]],
                             ids=["unknown-theorem", "tol"])
    def test_bad_input_exits_one_before_any_row(self, capsys, flags):
        assert run(self.BASE + ["--seeds", "1"] + flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_bad_starts_exits_one_before_any_instance(self, tmp_path, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("an instance was generated before --starts was checked")

        monkeypatch.setattr(cli, "gen_planted", never)
        out = tmp_path / "y.csv"
        args = ["--theorem", "PTZ", "--seeds", "1..2", "--starts", "0", "--out", str(out)]
        assert run(self.BASE + args) == 1
        assert capsys.readouterr().err == "error: starts must be a positive integer, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,,2", "a..3", "5..3", "", "٢..٣"],
                             ids=["empty-token", "non-int", "empty-range", "empty", "non-ascii"])
    def test_bad_seeds_exit_one_with_one_error_line(self, capsys, seeds):
        assert run(self.BASE + ["--theorem", "PTZ", "--seeds", seeds]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_out_opened_before_any_task(self, tmp_path, monkeypatch, capsys):
        def never(task):
            raise AssertionError("a task ran before --out was opened")

        monkeypatch.setattr(cli, "_sweep_task", never)
        out = tmp_path / "missing" / "x.csv"
        assert run(self.BASE + ["--theorem", "PTZ", "--seeds", "1..6", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_task_keeps_existing_out(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "keep.csv"
        out.write_bytes(b"twelve bytes")

        def fail(task):
            raise ValueError("task failed")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_sweep_task", fail)
            assert run(self.BASE + ["--theorem", "PTZ", "--seeds", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"twelve bytes"
        # Once every row is ready, the rows replace the old contents.
        assert run(self.BASE + ["--theorem", "PTZ", "--seeds", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["seed"] for row in rows] == ["1"]

    def test_unread_alpha_key_exits_one_before_any_solve(self, monkeypatch, capsys):
        """Every listed theorem is checked on every seed's instance before
        any task runs, so COR1a's unread alpha_r costs no verify, and neither
        does alpha[3] on random-lc's seed 5, the first of seeds 2..5 without
        a 3-edge."""
        real, calls = cli.verify, []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "verify", spy)
        cases = [
            (["--family", "t6a", "--theorem", "TWO_R_T6a,COR1a", "--params",
              '{"t": 4, "alpha_r": 2}', "--seeds", "1..2"], "COR1a does not read 'alpha_r'"),
            (["--family", "random-lc", "--theorem", "GENERAL_T9a", "--params",
              '{"n": 5, "types": [2, 3], "density": 0.1, "t": 3, "alpha": {"3": 2}}',
              "--seeds", "2..5"], "GENERAL_T9a does not read alpha[3] on edge types (2,)"),
        ]
        for args, message in cases:
            assert run(["sweep", *args, "--jobs", "1"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {message}")
        assert calls == []

    def test_no_closed_form_is_an_empty_cell(self, capsys):
        args = ["sweep", "--family", "t6a", "--theorem", "TPZZ", "--seeds", "1", "--jobs", "1"]
        assert run(args) == 2
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(row["closed_form"], row["numerical"]) for row in rows] == [("", "")]

    def test_failed_rows_exit_two(self, capsys):
        assert run(self.BASE + ["--theorem", "PTZ,NONUNIF_T3", "--seeds", "1..2"]) == 2
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(out.splitlines()))
        assert [row["pass"] for row in rows] == ["True", "False", "True", "False"]
        assert err == "2/4 sweep rows failed\n"


@pytest.mark.parametrize("args", [
    ["compute", "{dir}"],
    ["compute", "{k5}", "--objective", "weighted", "--coeffs", "{dir}"],
    ["clique", "{dir}"],
    ["verify", "--theorem", "MS_T1", "--input", "{dir}"],
    ["generate", "--family", "t6a", "-o", "{dir}"],
    ["compress", "{k5}", "--fixpoint", "-o", "{dir}"],
    ["sweep", "--family", "ptz", "--theorem", "PTZ", "--seeds", "1", "--jobs", "1", "--starts", "2",
     "--out", "{dir}"],
], ids=["compute", "coeffs", "clique", "verify", "generate", "compress", "sweep"])
def test_directory_path_exits_one(tmp_path, k5_file, capsys, args):
    """A directory where a file is read or written is an input error."""
    argv = [a.format(dir=tmp_path, k5=k5_file) for a in args]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


class TestSweepWorkers:
    """``--jobs`` sizes the pool, which a stand-in records; it maps in this
    process, so no worker is started."""

    BASE = ["sweep", "--family", "ptz", "--theorem", "PTZ", "--params", '{"t": 4, "r": 3, "m": 6}',
            "--starts", "2"]

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class Pool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        return made

    @pytest.mark.parametrize("jobs,seeds,workers", [
        ("64", "1,2", [2]), ("0", "1,2,3", [3]), ("2", "1,2,3", [2]), ("1", "1,2,3", []),
        ("64", "1", []),
    ])
    def test_no_more_workers_than_tasks(self, pools, capsys, jobs, seeds, workers):
        assert run(self.BASE + ["--seeds", seeds, "--jobs", jobs]) == 0
        assert pools == workers
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["seed"] for row in rows] == seeds.split(",")

    def test_negative_jobs_exit_one(self, pools, capsys):
        assert run(self.BASE + ["--seeds", "1..2", "--jobs", "-1"]) == 1
        out, err = capsys.readouterr()
        # argparse rejects the value, so the message names the flag.
        assert pools == [] and out == ""
        assert err.startswith("error: argument --jobs: must be a non-negative int")


def test_usage_error_exit_one():
    assert run(["compute"]) == 1
    assert run(["not-a-command"]) == 1
