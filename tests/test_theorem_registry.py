"""Golden expectations for the theorem registry.

``tests/data/theorem_registry.json`` pins, for every registered theorem:

* ``closed_form_exact`` on a grid of clique orders, ranks and coefficient
  settings (values, or the exception type raised);
* ``check_hypotheses`` on stored instances: the verdict, the ordered
  conditions with their detail text, ``derived``, and the clique searches
  the check ran;
* ``verify(...).to_dict()`` on the same instances with a fixed solver seed.

Regenerate the data file (only when a change of behaviour is intended) with::

    PYTHONPATH=src python tests/test_theorem_registry.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from lagrangian_lab import (
    SolverConfig,
    check_hypotheses,
    closed_form_exact,
    complete,
    gen_planted,
    theorem_ids,
    validate,
    verify,
    with_singletons,
)
from lagrangian_lab import theorems

DATA = Path(__file__).parent / "data" / "theorem_registry.json"
T_RANGE = range(3, 9)
R_RANGE = range(3, 7)
SETTINGS = ("defaults", "ints", "fractions")
SOLVER = dict(starts=8, seed=12345)  # the ``fast_cfg`` fixture's budget


def grid_params(setting: str, t: int, r: int) -> dict:
    """Closed-form parameters of one grid cell; every id reads the same dict."""
    if setting == "defaults":
        return {"t": t, "r": r}
    if setting == "ints":
        return {
            "t": t,
            "r": r,
            "alpha_2": 3,
            "alpha_3": 2,
            "alpha_r": 5,
            "types": (1, 2, r),
            "alpha": {r: 7, 2: 4},
        }
    return {
        "t": t,
        "r": r,
        "alpha_2": Fraction(1, 2),
        "alpha_3": "3/4",
        "alpha_r": Fraction(5, 3),
        "types": (2, 3, r),
        "alpha": {"2": 6, "3": "2/3", str(r): Fraction(9, 4)},
    }


def grid_key(theorem: str, setting: str, t: int, r: int) -> str:
    return f"{theorem}|{setting}|t={t}|r={r}"


def canon(value):
    """JSON-stable form of a report value (Fractions as "p/q", tuples as lists)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    return value


def _closed_form_cell(theorem: str, params: dict) -> dict:
    try:
        value = closed_form_exact(theorem, params)
    except Exception as exc:  # the exception type is part of the contract
        return {"error": type(exc).__name__}
    return {"value": canon(value)}


def _instance_cases() -> list[dict]:
    """One instance meeting the hypotheses and at least one missing them,
    per theorem. Only used to (re)generate the data file: the stored edge
    lists are the test's inputs, so generator changes cannot move them."""
    t6a = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=1)
    t7a = gen_planted("t7a", {"t": 4, "m": 7}, seed=2)
    ptz6 = gen_planted("ptz", {"t": 4, "r": 3, "m": 6}, seed=4)
    ptz5 = gen_planted("ptz", {"t": 4, "r": 3, "m": 5}, seed=3)
    ptz7 = gen_planted("ptz", {"t": 4, "r": 3, "m": 7}, seed=9)
    ptz4 = gen_planted("ptz", {"t": 6, "r": 4, "m": 16}, seed=2)
    free = gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=5)
    k4_2 = complete(4, (2,)).edges()
    k4_3 = complete(4, (3,)).edges()
    t10a = validate(5, k4_2 + k4_3 + [(1, 2, 5), (1, 3, 5)])
    one_r = validate(5, [(v,) for v in range(1, 5)] + k4_3 + [(1, 2, 5)])
    t7a_top = gen_planted("t7a", {"t": 4, "m": 8}, seed=1)
    t7a_bumped = validate(6, t7a_top.edges() + [(5, 6)])
    one_two_three = validate(5, [(v,) for v in range(1, 5)] + k4_2 + k4_3 + [(4, 5)])
    pairs_only = validate(6, k4_2 + [(4, 5), (5, 6)])
    cases = [
        ("MS_T1", pairs_only, {}),
        ("MS_T1", complete(4, (2, 3)), {}),
        ("NONUNIF_T3", with_singletons(validate(5, k4_2 + [(4, 5)])), {}),
        ("NONUNIF_T3", validate(3, [(1,), (2,), (2, 3)]), {}),
        ("NONUNIF_T3", complete(4, (2, 3)), {}),
        ("ONE_R_T4", one_r, {"alpha_r": "3/2"}),
        ("ONE_R_T4", one_r, {"alpha_r": 6}),
        ("ONE_R_T4", complete(4, (2,)), {}),
        ("ONE_TWO_THREE_T5", one_two_three, {"alpha_2": 1, "alpha_3": 1}),
        ("ONE_TWO_THREE_T5", one_two_three, {"alpha_2": 5, "alpha_3": "9/2"}),
        ("ONE_TWO_THREE_T5", with_singletons(t6a), {}),
        ("TWO_R_T6a", t6a, {"alpha_r": 1}),
        ("TWO_R_T6a", complete(4, (2, 3)), {"t": 3}),
        ("TWO_R_T6a", t6a, {"r": 4}),
        ("ONE_TWO_R_T6b", with_singletons(t6a), {"alpha_2": 2, "alpha_r": 3}),
        ("ONE_TWO_R_T6b", with_singletons(t6a), {"alpha_2": 1, "alpha_r": 100}),
        ("TWO_R_EDGES_T7a", t7a, {"t": 4}),
        ("TWO_R_EDGES_T7a", t7a_bumped, {"t": 4}),
        ("ONE_TWO_R_EDGES_T7b", with_singletons(t7a), {"alpha_2": 1, "alpha_r": 1}),
        ("ONE_TWO_R_EDGES_T7b", with_singletons(t7a), {"alpha_2": "3/4", "alpha_r": 1}),
        ("COR1a", t6a, {}),
        ("COR1a", complete(6, (2, 5)), {}),
        ("COR1b", with_singletons(t6a), {"r": 3}),
        ("COR1b", t6a, {}),
        ("COR2a", t7a, {}),
        ("COR2a", complete(6, (2, 5)), {}),
        ("COR2b", with_singletons(t7a), {}),
        ("COR2b", complete(6, (1, 2, 5)), {}),
        ("GENERAL_T9a", complete(5, (2, 3, 4)), {"alpha": {"3": 2}}),
        ("GENERAL_T9a", complete(4, (1, 2, 3)), {"alpha_2": 2}),
        ("GENERAL_T9a", complete(4, (2,)), {}),
        ("GENERAL_T9b", complete(5, (1, 2, 3, 4)), {"alpha_2": 2, "alpha": {"3": 1, "4": "1/2"}}),
        ("GENERAL_T9b", complete(5, (1, 2, 3, 4)), {"alpha": {"2": 3, "3": 2}}),
        ("GENERAL_T9b", complete(5, (2, 3)), {}),
        ("MIXED_T10a", t10a, {}),
        ("MIXED_T10a", with_singletons(t10a), {}),
        ("MIXED_T10a", complete(5, (2, 3)), {"t": 4}),
        ("MIXED_T10a", complete(5, (2, 3, 4)), {}),
        ("MIXED_T10b", with_singletons(ptz6), {}),
        ("MIXED_T10b", with_singletons(validate(ptz6.n, ptz6.edges() + k4_2)), {}),
        ("MIXED_T10b", with_singletons(ptz6), {"t": 5}),
        ("MIXED_T10b", ptz6, {}),
        ("MIXED_T10c", with_singletons(free), {"t": 4}),
        ("MIXED_T10c", with_singletons(ptz5), {"t": 4}),
        ("MIXED_T10c", validate(ptz5.n, ptz5.edges() + [(1,)]), {"t": 4}),
        ("MIXED_T10c", with_singletons(free), {}),
        ("PZ", ptz7, {}),
        ("PZ", ptz7, {"t": 3}),
        ("PZ", complete(4, (2, 3)), {}),
        ("TPZZ", free, {"t": 4}),
        ("TPZZ", ptz5, {"t": 4}),
        ("TPZZ", free, {}),
        ("PTZ", ptz6, {}),
        ("PTZ", ptz4, {"r": 4}),
        ("PTZ", validate(7, ptz6.edges() + [(5, 6, 7)]), {}),
    ]
    return [
        {"theorem": name, "n": h.n, "edges": [list(e) for e in h.edges()], "params": params}
        for name, h, params in cases
    ]


def _instance(case: dict):
    return validate(case["n"], case["edges"])


def _searches(monkeypatch) -> list:
    """Record every clique search ``theorems`` runs, with its arguments."""
    calls: list = []
    real_max, real_contains = theorems.max_complete_subgraph, theorems.contains_complete

    def spy_max(h, types):
        calls.append(["max_complete_subgraph", list(types)])
        return real_max(h, types)

    def spy_contains(h, t, types):
        calls.append(["contains_complete", t, list(types)])
        return real_contains(h, t, types)

    monkeypatch.setattr(theorems, "max_complete_subgraph", spy_max)
    monkeypatch.setattr(theorems, "contains_complete", spy_contains)
    return calls


def _hypothesis_record(case: dict, calls: list) -> dict:
    try:
        report = check_hypotheses(case["theorem"], _instance(case), case["params"])
    except Exception as exc:  # pinned like any other outcome
        return {"error": type(exc).__name__, "searches": list(calls)}
    return {
        "ok": report.ok,
        "conditions": [[c.name, c.ok, c.detail] for c in report.conditions],
        "derived": canon(report.derived),
        "searches": list(calls),
    }


def _verify_record(case: dict) -> dict:
    try:
        verdict = verify(case["theorem"], _instance(case), case["params"], SolverConfig(**SOLVER))
    except Exception as exc:
        return {"error": type(exc).__name__}
    return verdict.to_dict()


def _load() -> dict:
    return json.loads(DATA.read_text())


def _cases():
    # A missing data file fails test_grid_covers_every_theorem, not collection.
    cases = _load()["cases"] if DATA.exists() else []
    return [pytest.param(i, case, id=f"{i:02d}-{case['theorem']}") for i, case in enumerate(cases)]


def test_grid_covers_every_theorem():
    data = _load()
    assert data["theorems"] == list(theorem_ids())
    assert len(data["closed_form"]) == len(theorem_ids()) * len(T_RANGE) * len(R_RANGE) * len(SETTINGS)
    assert {c["theorem"] for c in data["cases"]} == set(theorem_ids())


@pytest.mark.parametrize("setting", SETTINGS)
def test_closed_form_grid(setting):
    expected = _load()["closed_form"]
    got, want = {}, {}
    for name in theorem_ids():
        for t in T_RANGE:
            for r in R_RANGE:
                key = grid_key(name, setting, t, r)
                got[key] = _closed_form_cell(name, grid_params(setting, t, r))
                want[key] = expected[key]
    assert got == want


@pytest.mark.parametrize("i, case", _cases())
def test_check_hypotheses_golden(i, case, monkeypatch):
    calls = _searches(monkeypatch)
    assert _hypothesis_record(case, calls) == case["hypotheses"]


def _same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=1e-9, abs=1e-12)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(a, b) for a, b in zip(got, want))
    return got == want


@pytest.mark.parametrize("i, case", _cases())
def test_verify_golden(i, case):
    # Floats compare to 1e-9 relative so the file holds across numpy builds.
    got = json.loads(json.dumps(_verify_record(case)))
    assert _same(got, case["verify"]), (got, case["verify"])


@pytest.mark.parametrize("i, case", [c for c in _cases() if c.values[1]["hypotheses"].get("ok")
                                     and "error" not in c.values[1]["verify"]])
def test_verdict_closed_form_from_instance_types(i, case):
    """Where the hypotheses hold (and verify reads every parameter), the
    verdict's closed form is the one the instance's own edge types give at
    the derived clique order."""
    h = _instance(case)
    verdict = verify(case["theorem"], h, case["params"], SolverConfig(starts=1, seed=0))
    params = {**case["params"], "t": verdict.t, "types": h.edge_types}
    assert verdict.closed_form_exact == closed_form_exact(case["theorem"], params)


def test_registry_rejects_missing_or_short_params():
    with pytest.raises(ValueError):
        closed_form_exact("MS_T1", {})
    with pytest.raises(ValueError):
        closed_form_exact("ONE_R_T4", {"t": 4, "r": 2})
    with pytest.raises(ValueError):
        closed_form_exact("GENERAL_T9a", {"t": 4})


def _regenerate() -> None:
    import _pytest.monkeypatch

    closed = {}
    for name in theorem_ids():
        for setting in SETTINGS:
            for t in T_RANGE:
                for r in R_RANGE:
                    closed[grid_key(name, setting, t, r)] = _closed_form_cell(
                        name, grid_params(setting, t, r)
                    )
    cases = []
    for case in _instance_cases():
        with _pytest.monkeypatch.MonkeyPatch.context() as mp:
            case["hypotheses"] = _hypothesis_record(case, _searches(mp))
        case["verify"] = json.loads(json.dumps(_verify_record(case)))
        cases.append(case)
    DATA.parent.mkdir(exist_ok=True)
    doc = {"theorems": list(theorem_ids()), "closed_form": closed, "cases": cases}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}: {len(closed)} closed forms, {len(cases)} instances")


if __name__ == "__main__":
    _regenerate()
