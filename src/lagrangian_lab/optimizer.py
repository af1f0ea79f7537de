"""Maximization of the weighted objective over the standard simplex.

Projected-gradient ascent with backtracking line search and a face-Newton
finish, run from three start families: uniform on the maximum complete
subgraph (so the reported value never falls below the clique bound),
uniform prefixes of every length, and Dirichlet(1) random points. A
rational-grid exhaustive search provides an independent certified lower
bound for cross-validation; it turns the grid's compositions into numpy
count arrays one block of rows at a time, in ``itertools.combinations``
order, and evaluates each block as one batch.

All starts ascend in lockstep as one ``(B, n)`` batch: each iteration takes
one batched gradient and KKT residual over the rows still running. A row
leaves the batch when it converges, stalls or runs out of iterations.

At a maximizer every support vertex has the same partial derivative, the
first-order condition the Motzkin-Straus-type results are read from. From
its first iteration on, a running row with two or more support vertices
(weights above ``_SUPPORT_EPS``) tries one Newton step towards that
condition on its face: it solves the bordered system ``[H_SS -1; 1^T 0]
[d; lam] = [-g_S; 0]`` with the exact Hessian (a singular system, as on a
face with a direction of constant value, takes its minimum-norm
least-squares step). The step is accepted only if every support weight
stays above ``_SUPPORT_EPS``, the value does not drop (beyond
``_NEWTON_ULPS`` units of rounding) and the KKT residual strictly falls.
Otherwise the row takes its projected-gradient step, found by one batched
line search that tries several halvings of every pending row per objective
evaluation, and waits ``_NEWTON_WAIT`` iterations before it tries Newton
again.

The batch only shares the per-call overhead: every row does exactly the
arithmetic of an ascent from that start alone (the same projections,
Newton systems, per-row sums and accepted steps), so its point, value,
iteration count and stopping reason do not depend on the other rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .cliques import max_complete_subgraph
from .hypergraph import Hypergraph, _read_int
from .objective import Coefficients, Objective, uniform_weights

_MIN_STEP = 1e-18
_TOL_VALUE = 1e-12
# An ascent stops once its KKT residual is within _TOL_GRAD; a weight above
# _SUPPORT_EPS counts as support.
_TOL_GRAD = 1e-9
_SUPPORT_EPS = 1e-10


class GridTooLargeError(ValueError):
    """Requested grid would exceed the enumeration budget."""


@dataclass(frozen=True)
class SolverConfig:
    """The solver's budget: Dirichlet random starts, iterations per ascent,
    and the seed of the random starts. The stopping and support tolerances
    are the module constants ``_TOL_GRAD`` and ``_SUPPORT_EPS``."""

    starts: int = 64
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        for key, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):  # fields() costs more
            object.__setattr__(self, key, _read_int(key, getattr(self, key), least))


@dataclass(frozen=True)
class OptimizationResult:
    """The best point of a solve, with its 1-based support, start family,
    iterations and whether it stopped before ``max_iters``; no field is
    ever unset. ``to_dict`` gives the fields in order, lists for arrays and
    tuples."""

    value: float
    x: np.ndarray
    support: tuple[int, ...]
    kkt_residual: float
    method: str
    iterations: int
    converged: bool
    sort_permutation: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        # tolist gives an array or tuple as a list and a scalar as itself.
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def _project_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of a (B, n) array onto the simplex."""
    n = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    # tau_k for the k largest entries; the support is the largest k with u_k > tau_k.
    taus = (u.cumsum(axis=1) - 1.0) / np.arange(1, n + 1)
    inside = u > taus
    if not inside.any(axis=1).all():
        raise ValueError("cannot project a vector with non-finite or overflowing entries")
    rho = n - 1 - inside[:, ::-1].argmax(axis=1)
    # The entry at rho exceeds tau, so every row keeps a positive sum.
    x = np.maximum(v - taus[np.arange(len(v)), rho][:, None], 0.0)
    return x / x.sum(axis=1)[:, None]


def project_to_simplex(v: Sequence[float]) -> np.ndarray:
    """Euclidean projection onto the simplex: x_i = max(v_i - tau, 0), sum 1."""
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot project an empty vector")
    return _project_rows(arr[None, :])[0]


def _residuals(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per row: gradient spread across the support plus any excess of an
    off-support gradient over the support's largest; 0 with no support."""
    sup = x > _SUPPORT_EPS
    top = np.where(sup, g, -np.inf).max(axis=1)
    spread = top - np.where(sup, g, np.inf).min(axis=1)
    excess = np.maximum(0.0, np.where(sup, -np.inf, g).max(axis=1) - top)
    return np.where(sup.any(axis=1), spread + excess, 0.0)


# Trial steps per row in each line-search round, as halvings of the row's
# current step: two in the first round, then eight per round. The step
# doubles after every accepted trial, so a row in steady state fails at 2s
# and accepts s; a first round of two covers both.
_WIDTHS = (2, 8)
_HALVINGS = 0.5 ** np.arange(max(_WIDTHS))


def _line_search(obj: Objective, x, val, step, rows, g) -> np.ndarray:
    """Backtracking along the projected gradient for ``rows`` of x at once.

    Row i tries step[i], step[i]/2, ... while the step exceeds ``_MIN_STEP``
    and keeps the first trial that raises its value; x, val and step of
    those rows are updated in place (the next step doubles the accepted one,
    up to 1e3). Returns the rows where no trial ascended.
    """
    n = x.shape[1]
    s = step[rows]
    stalled = rows[:0]
    for width in itertools.chain(_WIDTHS, itertools.repeat(_WIDTHS[-1])):
        if not rows.size:
            break
        trial = s[:, None] * _HALVINGS[:width]
        y = _project_rows((x[rows, None, :] + trial[:, :, None] * g[:, None, :]).reshape(-1, n))
        vy = obj.values(y)
        up = (vy > np.repeat(val[rows], width)) & (trial.ravel() > _MIN_STEP)
        # The first ascending trial of each row, as an index into the trials.
        pick = np.arange(0, up.size, width) + up.reshape(-1, width).argmax(axis=1)
        hit = up[pick]
        done, pick = rows[hit], pick[hit]
        x[done], val[done] = y[pick], vy[pick]
        step[done] = np.minimum(trial.ravel()[pick] * 2.0, 1e3)
        if len(done) == len(rows):
            break
        miss = ~hit
        s = trial[miss, -1] * 0.5
        more = s > _MIN_STEP
        stalled = np.concatenate([stalled, rows[miss][~more]])
        rows, g, s = rows[miss][more], g[miss][more], s[more]
    return stalled


# A row whose Newton step is rejected waits _NEWTON_WAIT iterations before
# it tries again. A Newton step may lower the value by rounding only: at most
# _NEWTON_ULPS units in the last place.
_NEWTON_WAIT = 2
_NEWTON_ULPS = 4


def _solve_systems(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system a[i] z = b[i]; a singular one (an exact zero LU pivot,
    which ``slogdet`` and ``solve`` meet alike) takes its minimum-norm lstsq z."""
    singular = np.linalg.slogdet(a)[0] == 0
    z = np.empty_like(b)
    z[~singular] = np.linalg.solve(a[~singular], b[~singular])
    for i in np.flatnonzero(singular):
        z[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
    return z


def _newton(obj: Objective, x, val, res, g, rows) -> np.ndarray:
    """One Newton step on the support face for ``rows`` of x at once.

    Row i solves the bordered KKT system ``[H_SS -1; 1^T 0] [d; lam] =
    [-g_S; 0]`` on its support S (weights above ``_SUPPORT_EPS``), with
    identity rows off S so that d = 0 there, and moves to the projection of
    x + d if that keeps the support S, does not lower the value beyond
    rounding, and strictly lowers the KKT residual; x and val of those rows
    are updated in place. Returns the accepted mask over ``rows``.
    """
    xs = x[rows]
    m, n = xs.shape
    sup = xs > _SUPPORT_EPS
    kkt = np.zeros((m, n + 1, n + 1))
    kkt[:, :n, :n] = np.where(sup[:, :, None] & sup[:, None, :], obj.hessians(xs), 0.0)
    kkt[:, range(n), range(n)] += ~sup
    kkt[:, :n, n], kkt[:, n, :n] = -1.0 * sup, sup
    rhs = np.append(np.where(sup, -g, 0.0), np.zeros((m, 1)), axis=1)[:, :, None]
    y = np.where(sup, xs + _solve_systems(kkt, rhs)[:, :n, 0], xs)
    # A step that keeps the face is finite and has every weight at most 1.
    accepted = (((y > _SUPPORT_EPS) == sup) & (y <= 1.0)).all(axis=1)
    y = _project_rows(y[accepted])
    vy, gy = obj.values(y), obj.gradients(y)
    old = val[rows[accepted]]
    keep = (((y > _SUPPORT_EPS) == sup[accepted]).all(axis=1)
            & (vy >= old - _NEWTON_ULPS * np.spacing(old))
            & (_residuals(y, gy) < res[accepted]))
    accepted[accepted] = keep
    done = rows[accepted]
    x[done], val[done] = y[keep], vy[keep]
    return accepted


def _ascend_batch(obj: Objective, x0: np.ndarray, cfg: SolverConfig):
    """Projected-gradient ascent of every row of x0 in lockstep, with a
    face-Newton finish.

    Each iteration takes one batched gradient and residual over the rows
    still running. A row with two or more support vertices first tries one
    Newton step on its face (``_newton``); the other rows, and those whose
    step is rejected, take one batched line search, and a rejected row
    waits ``_NEWTON_WAIT`` iterations before its next try. A row stops when
    its residual is within ``_TOL_GRAD`` or no step above ``_MIN_STEP``
    ascends (both count as converged), or when ``max_iters`` runs out.
    Returns points, values, iterations and converged flags, one per row.
    """
    x = _project_rows(x0)
    rows = len(x)
    val = obj.values(x)
    step = np.ones(rows)
    iters = np.full(rows, cfg.max_iters)
    converged = np.zeros(rows, dtype=bool)
    # Per row: the first iteration at which it may try Newton.
    newton_from = np.ones(rows, dtype=int)
    active = np.arange(rows)
    for it in range(1, cfg.max_iters + 1):
        xa = x[active]
        g = obj.gradients(xa)
        res = _residuals(xa, g)
        small = res <= _TOL_GRAD
        tries = ~small & ((xa > _SUPPORT_EPS).sum(axis=1) > 1) & (newton_from[active] <= it)
        newton = np.zeros(len(active), dtype=bool)
        if tries.any():
            ok = _newton(obj, x, val, res[tries], g[tries], active[tries])
            newton[tries] = ok
            newton_from[active[tries][~ok]] = it + 1 + _NEWTON_WAIT
        pgd = ~small & ~newton
        stalled = _line_search(obj, x, val, step, active[pgd], g[pgd])
        stopped = np.concatenate([active[small], stalled])
        iters[stopped] = it
        converged[stopped] = True
        active = np.flatnonzero(~converged)
        if not active.size:
            break
    return x, val, iters, converged


def _support(x: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) + 1 for i in np.nonzero(x > _SUPPORT_EPS)[0])


def _finalize(
    obj: Objective, x: np.ndarray, label: str, iterations: int, converged: bool
) -> OptimizationResult:
    x = _project_rows(x[None])[0]
    row = x[None, :]
    return OptimizationResult(
        value=float(obj.values(row)[0]),
        x=x,
        support=_support(x),
        kkt_residual=float(_residuals(row, obj.gradients(row))[0]),
        method=label,
        iterations=iterations,
        converged=converged,
        sort_permutation=tuple(int(i) + 1 for i in np.argsort(-x, kind="stable")),
    )


def _solve(
    h: Hypergraph, coeffs: Coefficients, points: np.ndarray, labels: Sequence[str], cfg: SolverConfig
) -> OptimizationResult:
    """Ascend every row of ``points`` and finalize the best.

    Among rows whose values tie within ``_TOL_VALUE`` the smallest support
    wins, with the lexicographically smallest support set breaking remaining
    ties; this realizes the minimal-support solution convention. Rows with
    equal supports go by start order (for ``maximize``: the clique start,
    the prefixes, then the random starts), never by rounding in the value.
    """
    obj = Objective(h, coeffs)
    x, val, iters, conv = _ascend_batch(obj, points, cfg)
    supports = {i: _support(x[i]) for i in np.flatnonzero(val >= val.max() - _TOL_VALUE)}
    i = min(supports, key=lambda i: (len(supports[i]), supports[i]))
    return _finalize(obj, x[i], labels[i], int(iters[i]), bool(conv[i]))


def maximize(
    h: Hypergraph, coeffs: Coefficients, cfg: SolverConfig | None = None
) -> OptimizationResult:
    """Best ascent result over clique, prefix and random starts, picked as
    ``_solve`` says."""
    cfg = cfg or SolverConfig()
    n = h.n
    clique = max_complete_subgraph(h, h.edge_types).vertices if h.edge_types else ()
    points = np.concatenate([
        [uniform_weights(n, clique)] if clique else np.empty((0, n)),
        np.tri(n) / np.arange(1, n + 1)[:, None],
        np.random.default_rng(cfg.seed).dirichlet(np.ones(n), size=cfg.starts),
    ])
    labels = ["warmstart"] * (len(points) - cfg.starts) + ["multistart"] * cfg.starts
    return _solve(h, coeffs, points, labels, cfg)


def polish(
    h: Hypergraph,
    coeffs: Coefficients,
    x0: Sequence[float],
    cfg: SolverConfig | None = None,
    method: str = "warmstart",
) -> OptimizationResult:
    """Single ascent run from a given point (used to refine grid maxima)."""
    points = np.asarray(x0, dtype=float).ravel()[None, :]
    return _solve(h, coeffs, points, [method], cfg or SolverConfig())


# Grid points per block: the most count rows ``grid_oracle`` holds at once.
_GRID_ROWS = 200_000


def _grid_blocks(n: int, total: int):
    """All compositions of ``total`` into n nonnegative parts, as (rows, n)
    count arrays in ``itertools.combinations`` order of the n - 1 cuts."""
    cuts = itertools.chain.from_iterable(itertools.combinations(range(total + n - 1), n - 1))
    count = math.comb(total + n - 1, n - 1)
    for start in range(0, count, _GRID_ROWS):
        rows = min(_GRID_ROWS, count - start)
        c = np.fromiter(itertools.islice(cuts, rows * (n - 1)), np.intp, rows * (n - 1))
        yield np.diff(c.reshape(rows, n - 1), prepend=-1, append=total + n - 1, axis=1) - 1


def grid_oracle(
    h: Hypergraph, coeffs: Coefficients, resolution: int
) -> tuple[float, np.ndarray]:
    """Exact maximum of the objective over the grid {x : x_i = k_i/D}.

    A certified lower bound on the true optimum; combine with
    :func:`polish` from the returned argmax to close the gap. Among equal
    maxima the first point in enumeration order wins. A resolution below 1
    raises ``ValueError``, and one whose grid has more than 10^7 points
    raises ``GridTooLargeError``.
    """
    obj = Objective(h, coeffs)
    resolution = _read_int("grid resolution", resolution, 1)
    count = math.comb(resolution + h.n - 1, h.n - 1)
    if count > 10_000_000:
        raise GridTooLargeError(f"grid with D={resolution}, n={h.n} has {count} points (limit 10^7)")
    best_val, best_x = -math.inf, None
    for counts in _grid_blocks(h.n, resolution):
        pts = counts / resolution
        vals = obj.values(pts)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_x = float(vals[k]), pts[k].copy()
    return best_val, best_x
