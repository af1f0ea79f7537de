"""The settable surface: a result depends on the instance, the theorem and
its parameters, and the solver's ``starts``, ``max_iters`` and ``seed``; a
verdict's tolerance is fixed."""

import dataclasses
import inspect

from lagrangian_lab import (
    SolverConfig,
    complete,
    from_json,
    from_text,
    kkt_residual,
    load,
    loads,
    validate,
    verify,
)
from lagrangian_lab.cli import run


def test_settable_surface(monkeypatch, capsys):
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["starts", "max_iters", "seed"]
    assert list(inspect.signature(kkt_residual).parameters) == ["h", "coeffs", "x"]
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
