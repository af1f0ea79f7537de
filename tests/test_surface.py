"""The settable surface: a result depends on the instance, the theorem and
its parameters, and the solver's ``starts``, ``max_iters`` and ``seed``; a
verdict's tolerance is fixed."""

import dataclasses
import inspect

import lagrangian_lab
from lagrangian_lab import (
    SolverConfig,
    complete,
    from_json,
    from_text,
    load,
    loads,
    validate,
    verify,
)
from lagrangian_lab.cli import run


def test_settable_surface(monkeypatch, capsys):
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["starts", "max_iters", "seed"]
    assert list(inspect.signature(verify).parameters) == ["theorem", "h", "params", "cfg"]
    for fn in (validate, complete, from_json, from_text, loads, load):
        kinds = {p.kind for p in inspect.signature(fn).parameters.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, fn.__name__

    generate = ["generate", "--family", "t6a", "--params", '{"t": 4, "r": 3, "n": 6}']
    outputs = {}
    for seed in ("0", "5"):
        assert run(generate + ["--seed", seed]) == 0
        outputs[seed] = capsys.readouterr().out
    assert outputs["0"] != outputs["5"]
    monkeypatch.setenv("LAGRANGIAN_LAB_SEED", "5")
    assert run(generate) == 0
    assert capsys.readouterr().out == outputs["0"]


def test_public_names():
    """The package's exports, submodules aside: a new export is a deliberate
    edit here, and the retired test-only helpers stay out."""
    names = sorted(k for k, v in vars(lagrangian_lab).items()
                   if not k.startswith("_") and not inspect.ismodule(v))
    assert names == [
        "CliqueResult", "Coefficients", "ConditionCheck", "FAMILIES", "GenerationError",
        "GridTooLargeError", "Hypergraph", "HypergraphError", "HypothesisReport",
        "MissingCoefficientError", "OptimizationResult", "SolverConfig", "TheoremVerdict",
        "check_hypotheses", "check_rational_feasible", "closed_form_exact", "complete",
        "contains_complete", "dump", "eval_L", "eval_exact", "flavour_coefficients",
        "from_json", "from_text", "gen_planted", "gen_random", "gradient", "grid_oracle",
        "is_left_compressed", "left_compress_fixpoint", "load", "loads",
        "max_complete_subgraph", "maximize", "polish", "project_to_simplex",
        "rational_uniform", "relabel", "theorem_ids", "to_json", "uniform_weights",
        "validate", "verify", "vertex_support", "with_singletons",
    ]
