"""Golden expectations for the solver.

``tests/data/solver_golden.json`` pins the whole result of ``maximize`` and
``polish`` on stored instances: ``value``, ``x`` (as ``float.hex``),
``iterations``, ``converged``, ``method``, ``support``, ``sort_permutation``
and ``kkt_residual``. It also pins ``grid_oracle`` on the cases that polish
from a grid point. Integers, tuples and strings compare exactly; floats
compare to 1e-12 relative and 1e-15 absolute.

The cases cover every exit of an ascent and both outcomes of a Newton step.
``exercises`` records, per case, which of them a one-start-at-a-time
reference run (``_reference_exits``, written from the public objective,
gradient and projection and the exact Hessian oracle) took: ``grad-tol``
(KKT residual within ``tol_grad``), ``stall`` (no ascending step above the
minimum step), ``budget`` (``max_iters`` ran out), ``newton`` (a face-Newton
step was accepted) and ``newton-fallback`` (a Newton step was rejected: it
left the face, lowered the value or did not lower the residual, so
projected gradient resumed). A case's stored ``cfg``
may also set ``tol_grad``; the harness applies it by patching the solver's
constant ``_TOL_GRAD`` for that case.
Regenerate the data file (only when a change
of behaviour is intended) with::

    PYTHONPATH=src python tests/test_solver_golden.py
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lagrangian_lab import (
    Coefficients,
    SolverConfig,
    complete,
    eval_L,
    flavour_coefficients,
    gen_planted,
    gen_random,
    gradient,
    grid_oracle,
    max_complete_subgraph,
    maximize,
    polish,
    project_to_simplex,
    uniform_weights,
    validate,
    with_singletons,
)
from lagrangian_lab import optimizer

from conftest import coeffs_to_json, hessian_exact, kkt_residual

DATA = Path(__file__).parent / "data" / "solver_golden.json"
EXITS = ("grad-tol", "stall", "budget", "newton", "newton-fallback")
REL, ABS = 1e-12, 1e-15


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _unhex(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def _record(res) -> dict:
    return {
        "value": float(res.value).hex(),
        "x": _hex(res.x),
        "iterations": res.iterations,
        "converged": res.converged,
        "method": res.method,
        "support": list(res.support),
        "sort_permutation": list(res.sort_permutation),
        "kkt_residual": float(res.kkt_residual).hex(),
    }


def _instance_cases() -> list[tuple]:
    """(name, hypergraph, coefficients, solver settings, call). A call is
    ``("maximize",)``, ``("polish", x0, method)`` or ``("grid", D, method)``
    (polish from the grid oracle's argmax). Only used to (re)generate the
    data file: the stored edge lists and starts are the test's inputs."""
    cases = []
    base = dict(starts=6, max_iters=1500)
    families = (
        ((1,), (2, 5)),
        ((2,), (2, 4, 6, 9)),
        ((3,), (3, 5, 7)),
        ((1, 2), (3, 6, 8)),
        ((2, 3), (4, 6, 7, 9)),
        ((1, 2, 3), (4, 6, 8)),
        ((2, 4), (5, 7, 9)),
    )
    for types, ns in families:
        for k, n in enumerate(ns):
            seed = 100 * n + len(types) * 10 + k
            h = gen_random(n, types, 0.6, seed)
            if k % 3 == 0:
                coeffs = Coefficients.ones(h.edge_types)
            elif k % 3 == 1:
                coeffs = flavour_coefficients("lambda'", h.edge_types)[0]
            else:
                ts = h.edge_types
                coeffs = Coefficients(ts[0], {r: Fraction(2 * i + 3, i + 2) for i, r in enumerate(ts[1:])})
            cases.append((f"random-{''.join(map(str, types))}-n{n}", h, coeffs,
                          dict(base, seed=seed), ("maximize",)))
    t6a = gen_planted("t6a", {"t": 4}, seed=3)
    free = gen_planted("tpzz-free", {"t": 4}, seed=7)
    ptz = with_singletons(gen_planted("ptz", {"t": 4}, seed=5))
    for name, h in (("planted-t6a", t6a), ("planted-tpzz-free", free), ("planted-ptz-1", ptz)):
        cases.append((name, h, Coefficients.ones(h.edge_types), dict(starts=8, seed=11), ("maximize",)))
    cases.append(("complete-23-n5", complete(5, (2, 3)), Coefficients.ones((2, 3)),
                  dict(starts=4, seed=1), ("maximize",)))
    cases.append(("singletons-tie", validate(4, [[1], [2], [3], [4]]), Coefficients.ones((1,)),
                  dict(starts=4, seed=2), ("maximize",)))
    empty = validate(4, [])
    cases.append(("edgeless", empty, Coefficients(2), dict(starts=3, seed=0), ("maximize",)))
    cases.append(("edgeless-polish", empty, Coefficients(2), dict(starts=3, seed=0),
                  ("polish", [0.5, 0.25, 0.25, 0.0], "warmstart")))
    h = gen_random(6, (2, 3), 0.55, 44)
    cases.append(("grid-polish-23-n6", h, Coefficients.ones(h.edge_types), dict(starts=4, seed=0),
                  ("grid", 12, "grid")))
    h = gen_random(5, (1, 2, 3), 0.6, 45)
    cases.append(("grid-polish-123-n5", h, flavour_coefficients("lambda'", h.edge_types)[0],
                  dict(starts=4, seed=0), ("grid", 10, "grid")))
    h = gen_random(8, (2, 3), 0.5, 46)
    rng = np.random.default_rng(46)
    cases.append(("polish-dirichlet-23-n8", h, Coefficients.ones(h.edge_types),
                  dict(starts=4, seed=0), ("polish", list(rng.dirichlet(np.ones(8))), "multistart")))
    h = gen_random(7, (2, 3), 0.6, 3)
    cases.append(("budget-23-n7", h, Coefficients.ones(h.edge_types),
                  dict(starts=8, seed=5, max_iters=4), ("maximize",)))
    cases.append(("budget-polish-23-n7", h, Coefficients.ones(h.edge_types),
                  dict(starts=8, seed=5, max_iters=5), ("polish", uniform_weights(7), "warmstart")))
    for name, types, n, seed in (("many-starts-2-n7", (2,), 7, 49), ("dense-3-n9", (3,), 9, 50),
                                 ("dense-123-n9", (1, 2, 3), 9, 51)):
        h = gen_random(n, types, 0.8, seed)
        cases.append((name, h, Coefficients.ones(h.edge_types), dict(starts=12, seed=seed),
                      ("maximize",)))
    h = gen_random(6, (2, 3), 0.6, 47)
    cases.append(("stall-23-n6", h, Coefficients.ones(h.edge_types),
                  dict(starts=4, seed=6, tol_grad=1e-300, max_iters=4000), ("maximize",)))
    # Under tol_grad=1e-6 the winning start stops after 7 iterations at a
    # KKT residual of about 4e-7; under the default it takes 8 and ends
    # below 1e-12 (test_tol_grad_changes_the_result).
    h = gen_random(6, (2, 3), 0.6, 309)
    cases.append(("loose-tol-grad-23-n6", h, Coefficients.ones(h.edge_types),
                  dict(starts=5, seed=8, tol_grad=1e-6), ("maximize",)))
    return cases


@contextmanager
def _config(settings: dict):
    """The case's ``SolverConfig``, with its ``tol_grad`` (the solver's
    default when absent) patched in for the duration."""
    settings = dict(settings)
    with mock.patch.object(optimizer, "_TOL_GRAD", settings.pop("tol_grad", optimizer._TOL_GRAD)):
        yield SolverConfig(**settings)


def _reference_exits(h, coeffs, cfg: SolverConfig, starts) -> set[str]:
    """How each start's ascent ends, and whether it took or rejected a
    Newton step, in a plain one-start-at-a-time loop."""
    exits: set[str] = set()
    eps = optimizer._SUPPORT_EPS

    def newton_point(x, g, sup):
        s = np.flatnonzero(sup)
        hess = np.array(hessian_exact(h, coeffs, x), dtype=float)[np.ix_(s, s)]
        ones = np.ones((len(s), 1))
        kkt = np.block([[hess, -ones], [ones.T, np.zeros((1, 1))]])
        rhs = np.append(-g[s], 0.0)
        try:
            d = np.linalg.solve(kkt, rhs)[:-1]
        except np.linalg.LinAlgError:
            d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:-1]
        y = x.copy()
        y[s] += d
        return project_to_simplex(y) if ((y > eps) == sup).all() and (y <= 1).all() else None

    def ascend(x):
        x = project_to_simplex(x)
        val = eval_L(h, coeffs, x)
        step, newton_from = 1.0, 1
        for it in range(1, cfg.max_iters + 1):
            g = gradient(h, coeffs, x)
            res = kkt_residual(h, coeffs, x)
            if res <= optimizer._TOL_GRAD:
                exits.add("grad-tol")
                return
            sup = x > eps
            if sup.sum() > 1 and it >= newton_from:
                y = newton_point(x, g, sup)
                slack = optimizer._NEWTON_ULPS * np.spacing(val)
                if (y is not None and np.array_equal(y > eps, sup)
                        and eval_L(h, coeffs, y) >= val - slack
                        and kkt_residual(h, coeffs, y) < res):
                    exits.add("newton")
                    x, val = y, eval_L(h, coeffs, y)
                    continue
                exits.add("newton-fallback")
                newton_from = it + 1 + optimizer._NEWTON_WAIT
            s = step
            while s > optimizer._MIN_STEP:
                y = project_to_simplex(x + s * g)
                vy = eval_L(h, coeffs, y)
                if vy > val:
                    x, val, step = y, vy, min(2.0 * s, 1e3)
                    break
                s *= 0.5
            else:
                exits.add("stall")
                return
        exits.add("budget")

    for x0 in starts:
        ascend(np.asarray(x0, dtype=float))
    return exits


def _maximize_starts(h, cfg: SolverConfig) -> list[np.ndarray]:
    """The start points ``maximize`` documents: clique, prefixes, Dirichlet."""
    starts = []
    clique = max_complete_subgraph(h, h.edge_types)
    if clique.order > 0:
        starts.append(uniform_weights(h.n, clique.vertices))
    starts.extend(uniform_weights(h.n, range(1, k + 1)) for k in range(1, h.n + 1))
    rng = np.random.default_rng(cfg.seed)
    starts.extend(rng.dirichlet(np.ones(h.n)) for _ in range(cfg.starts))
    return starts


def _instance(case: dict):
    return validate(case["n"], case["edges"])


def _solve(case: dict):
    h = _instance(case)
    coeffs = Coefficients.from_json(case["coeffs"])
    with _config(case["cfg"]) as cfg:
        if case["call"] == "maximize":
            return maximize(h, coeffs, cfg)
        return polish(h, coeffs, _unhex(case["x0"]), cfg, method=case["method"])


def _load() -> dict:
    return json.loads(DATA.read_text())


def _cases():
    # A missing data file fails test_cases_cover_every_exit, not collection.
    cases = _load()["cases"] if DATA.exists() else []
    return [pytest.param(case, id=case["name"]) for case in cases]


def _close(got: str, want: str) -> bool:
    return float.fromhex(got) == pytest.approx(float.fromhex(want), rel=REL, abs=ABS)


def test_cases_cover_every_exit():
    cases = _load()["cases"]
    assert set().union(*(c["exercises"] for c in cases)) == set(EXITS)
    assert any(not c["expected"]["converged"] for c in cases)
    assert {c["call"] for c in cases} == {"maximize", "polish"}
    assert any("grid" in c for c in cases)
    assert any(not c["edges"] for c in cases)


@pytest.mark.parametrize("case", _cases())
def test_solver_golden(case):
    got, want = _record(_solve(case)), case["expected"]
    exact = ("iterations", "converged", "method", "support", "sort_permutation")
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
    assert _close(got["value"], want["value"]), (got["value"], want["value"])
    assert _close(got["kkt_residual"], want["kkt_residual"]), (got["kkt_residual"], want["kkt_residual"])
    assert len(got["x"]) == len(want["x"])
    assert all(_close(a, b) for a, b in zip(got["x"], want["x"])), (got["x"], want["x"])


@pytest.mark.parametrize("case", [c for c in _cases() if "tol_grad" in c.values[0]["cfg"]])
def test_tol_grad_changes_the_result(case):
    """A case that sets ``tol_grad`` solves otherwise under the default, or
    it would test nothing the other cases do not."""
    default = dict(case, cfg={k: v for k, v in case["cfg"].items() if k != "tol_grad"})
    got, want = _record(_solve(default)), case["expected"]
    assert (got["iterations"] != want["iterations"]
            or not _close(got["kkt_residual"], want["kkt_residual"]))


@pytest.mark.parametrize("case", [c for c in _cases() if "grid" in c.values[0]])
def test_grid_oracle_golden(case):
    h = _instance(case)
    value, x = grid_oracle(h, Coefficients.from_json(case["coeffs"]), case["grid"]["resolution"])
    assert _close(float(value).hex(), case["grid"]["value"])
    assert np.array_equal(x, _unhex(case["x0"]))


@pytest.mark.parametrize("name", ["random-24-n9", "grid-polish-23-n6", "random-123-n8",
                                  "dense-3-n9", "planted-t6a"])
def test_polish_near_a_maximizer_stops_after_two_iterations(name):
    """Within 1e-6 of a stored maximizer, on its face, the first iteration's
    Newton step lands within ``_TOL_GRAD`` and the second iteration stops."""
    case = next(c for c in _load()["cases"] if c["name"] == name)
    x = _unhex(case["expected"]["x"])
    sup = x > optimizer._SUPPORT_EPS
    d = np.where(sup, np.random.default_rng(0).standard_normal(x.size), 0.0)
    d[sup] -= d[sup].mean()
    x0 = x + 1e-6 * d / np.abs(d).max()
    res = polish(_instance(case), Coefficients.from_json(case["coeffs"]), x0)
    assert (res.iterations, res.converged, res.support) == (2, True, tuple(case["expected"]["support"]))
    assert _close(float(res.value).hex(), case["expected"]["value"])


def _regenerate() -> None:
    cases = []
    for name, h, coeffs, settings, call in _instance_cases():
        case = {"name": name, "n": h.n, "edges": [list(e) for e in h.edges()],
                "coeffs": coeffs_to_json(coeffs), "cfg": settings, "call": call[0]}
        with _config(settings) as cfg:
            if call[0] == "maximize":
                starts = _maximize_starts(h, cfg) if h.edge_types else []
            else:
                if call[0] == "grid":
                    value, x0 = grid_oracle(h, coeffs, call[1])
                    case["grid"] = {"resolution": call[1], "value": float(value).hex()}
                else:
                    x0 = call[1]
                case.update(call="polish", x0=_hex(x0), method=call[2])
                starts = [_unhex(case["x0"])]
            exits = _reference_exits(h, coeffs, cfg, starts) if h.edge_types else ()
        case["exercises"] = sorted(exits)
        case["expected"] = _record(_solve(case))
        cases.append(case)
        print(f"{name}: {case['exercises']} iterations={case['expected']['iterations']}")
    covered = set().union(*(c["exercises"] for c in cases))
    assert covered == set(EXITS), f"exits not exercised: {set(EXITS) - covered}"
    assert any(not c["expected"]["converged"] for c in cases), "no case ran out of max_iters"
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}: {len(cases)} cases")


if __name__ == "__main__":
    _regenerate()
