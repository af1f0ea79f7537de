"""Weighted polynomial objectives of a hypergraph over the standard simplex.

One evaluator, :class:`Objective`, computes the weighted program
L(x) = sum_r alpha_r sum_{e in E_r} prod_{i in e} x_i, its gradient and its
Hessian on a batch of points: the base-cardinality level has coefficient 1
and each higher level r a positive coefficient alpha_r, which
``Coefficients`` reads by ``_read_positive`` (its level by ``_read_level``)
and keeps as a ``Fraction``. All three add up k-terms, the edge products
with k = 0, 1 or 2 positions left out, and one kernel yields them in one
order: per level (r increasing), per k-subset S of edge positions
(lexicographic), per edge, the coefficient and the product of the weights
outside S, multiplied left to right. A value sums each level's products
pairwise (numpy's summation), scales the sum by the coefficient and adds
the levels in turn. An entry of the gradient (k = 1) or of the Hessian's
upper triangle (k = 2, mirrored below a zero diagonal) starts from 0 and
adds, in term order, the coefficient times each product whose left-out
positions hold its indices.

:func:`flavour_coefficients` is the one map from an objective flavour to
``L``: it returns the coefficients and the scale with flavour = scale * L.
The Lagrangian ``lambda`` (the monomial sum) is the case alpha_r = 1, and
the non-uniform Lagrangian ``lambda'`` (every level r weighted by r!) is r0!
times L with alpha_r = r!/r0!, r0 the smallest level, or 1 when there are
no levels. The factorial-weighted sum written out independently is a test
oracle, so the identity is cross-checked in the tests rather than assumed.

Float evaluations accept any real vector of length n. An exact mode, which
requires a rational point of the simplex, backs the closed-form identity
checks: it adds integer edge products over one common denominator and
builds one ``Fraction`` per level.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hypergraph import Hypergraph, _read_int

Number = float | int | Fraction
_LEVEL = "[1-9][0-9]*"  # a level in a key: one spelling, ASCII digits, no leading 0


class MissingCoefficientError(ValueError):
    """A nonempty level has no coefficient."""


@dataclass(frozen=True)
class Coefficients:
    """Per-cardinality weights for the polynomial program.

    The base cardinality ``r0`` always has coefficient 1; ``alpha``, a mapping
    or (level, value) pairs, gives each higher cardinality a positive
    constant, read by ``_read_level`` (key) and ``_read_positive`` (value) and
    kept as a ``Fraction``. Coverage of a hypergraph's levels is checked at
    call time, so one value can serve a whole family of graphs.
    """

    r0: int
    alpha: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "r0", _read_int("r0", self.r0, 1))
        alpha = {_read_level(r): _read_positive(f"alpha_{r}", a)
                 for r, a in dict(self.alpha).items()}
        object.__setattr__(self, "alpha", tuple(sorted(alpha.items())))
        for r, _ in self.alpha:
            if r <= self.r0:
                raise ValueError(f"alpha keys must exceed the base cardinality {self.r0}, got {r}")

    def coefficient(self, r: int) -> int | Fraction:
        if r == self.r0:
            return 1
        for rr, a in self.alpha:
            if rr == r:
                return a
        raise MissingCoefficientError(f"no coefficient for cardinality {r} (base r0={self.r0})")

    @classmethod
    def ones(cls, types: Iterable[int]) -> "Coefficients":
        """Coefficient 1 on every level: the plain monomial-sum objective."""
        return flavour_coefficients("lambda", types)[0]

    @classmethod
    def from_json(cls, text: str) -> "Coefficients":
        """Parse ``{"r0": int, "alpha": {"r": number, ...}}``, reading only
        ``r0`` and ``alpha`` (by the constructor): another key or a
        malformed document raises ``ValueError``."""
        doc = json.loads(text)
        try:
            if unknown := [repr(k) for k in doc.keys() if k not in ("r0", "alpha")]:
                raise ValueError(f"unknown keys: {', '.join(unknown)} (the keys are r0 and alpha)")
            return cls(doc["r0"], doc.get("alpha", {}).items())
        except (KeyError, AttributeError, TypeError) as exc:
            raise ValueError(f"malformed coefficients document: {exc!r}") from None


def flavour_coefficients(
    flavour: str, levels: Iterable[int], alpha: Mapping[int, Number] | None = None
) -> tuple[Coefficients, int]:
    """(coefficients, scale) of a flavour on the given levels: ``lambda``
    has alpha_r = 1, ``lambda'`` alpha_r = r!/r0! and scale r0!, and ``L``
    takes alpha_r from ``alpha`` for the levels above r0."""
    ts = sorted(set(levels))
    r0 = ts[0] if ts else 1
    if flavour == "lambda'":
        fact = math.factorial
        return Coefficients(r0, {r: fact(r) // fact(r0) for r in ts[1:]}), fact(r0)
    if flavour == "lambda":
        return Coefficients(r0, {r: 1 for r in ts[1:]}), 1
    if flavour == "L":
        return Coefficients(r0, {r: a for r, a in (alpha or {}).items() if r > r0}), 1
    raise ValueError(f"unknown objective flavour {flavour!r}")


def _read_positive(key: str, value) -> Fraction:
    """An int, float, ``Fraction`` or "p/q" string above 0 and within float
    range (the solver reads it as a float), as a ``Fraction``."""
    try:
        a = None if isinstance(value, bool) else Fraction(value)
        float(a or 0)  # past float range: OverflowError
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        a = None
    if a is None or a <= 0:
        raise ValueError(f"{key} must be a positive number, got {value!r}")
    return a


def _read_level(key) -> int:
    """An ``alpha`` map key: a positive int, or a string of one as ``_LEVEL``."""
    level = int(key) if isinstance(key, str) and re.fullmatch(_LEVEL, key) else key
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise ValueError(f"alpha keys must be positive integer levels, got {key!r}")
    return level


# ---------------------------------------------------------------------------
# Weight vectors
# ---------------------------------------------------------------------------


def uniform_weights(n: int, support: Iterable[int] | None = None) -> np.ndarray:
    """Uniform weighting on a vertex subset (the whole of [n] by default):
    :func:`rational_uniform` as floats."""
    return np.array(rational_uniform(n, support), dtype=float)


def rational_uniform(n: int, support: Iterable[int] | None = None) -> tuple[Fraction, ...]:
    """Exact uniform weighting on a vertex subset of 1..n (all of it by default)."""
    n = _read_int("n", n)
    idx = range(1, n + 1) if support is None else sorted({_read_int("vertex", v) for v in support})
    if not idx or idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"support must be a nonempty subset of 1..{n}, got {list(idx)}")
    w = Fraction(1, len(idx))
    x = [Fraction(0)] * n
    for v in idx:
        x[v - 1] = w
    return tuple(x)


def check_rational_feasible(x: Sequence[Fraction], n: int | None = None) -> tuple[Fraction, ...]:
    xs = tuple(Fraction(v) for v in x)
    if n is not None and len(xs) != n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {n}")
    if any(v < 0 for v in xs):
        raise ValueError("negative rational weight")
    if sum(xs) != 1:
        raise ValueError(f"rational weights sum to {sum(xs)}, expected exactly 1")
    return xs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


# Bound on the elements of one block's (rows x terms) temporaries; a larger
# batch is evaluated block by block.
_BLOCK_ELEMENTS = 1 << 16


class Objective:
    """L of one hypergraph and coefficient set, on a ``(B, n)`` batch of points.

    The level index arrays and coefficients are read once, and one kernel,
    :meth:`_terms`, yields every product that :meth:`values`,
    :meth:`gradients` and :meth:`hessians` add up. Every row gets exactly
    the arithmetic of a one-point evaluation, in the order the module
    docstring gives. Construction raises ``MissingCoefficientError`` for the
    first level without a coefficient.
    """

    def __init__(self, h: Hypergraph, coeffs: Coefficients):
        self.n = h.n
        levels = [(float(coeffs.coefficient(r)), h.edge_array(r)) for r in h.edge_types]
        # (coefficient, r, edge count) per level, and every edge position's
        # vertex in the order per level, per position, per edge: one gather
        # reads all weights, and it is also the k = 1 terms' scatter index.
        self._levels = [(a, idx.shape[1], idx.shape[0]) for a, idx in levels]
        self._targets = np.concatenate(
            [idx.T.ravel() for _, idx in levels] or [np.empty(0, dtype=np.intp)])
        self._plans, self._flat = {}, {1: self._targets}

    def _rows(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"points must have shape (B, {self.n}), got {arr.shape}")
        return arr

    def _blocks(self, arr: np.ndarray, width: int):
        """Blocks of rows of ``arr`` whose temporaries of ``width`` elements
        per row fit the budget, each with the weight at every edge position:
        a (rows, positions) array in ``_targets`` order."""
        block = max(1, _BLOCK_ELEMENTS // max(self._targets.size, width))
        for lo in range(0, arr.shape[0], block):
            yield lo, np.take(arr[lo:lo + block], self._targets, axis=1)

    def _plan(self, k: int) -> list:
        """The k-terms in term order, one entry per level and k-subset S of
        edge positions: the coefficient, the edge count, and the column
        slices of the positions outside S and of those in S."""
        if k not in self._plans:
            plan, lo = [], 0
            for a, r, e in self._levels:
                cols = [slice(lo + j * e, lo + (j + 1) * e) for j in range(r)]
                plan += [(a, e, [c for j, c in enumerate(cols) if j not in s], [cols[j] for j in s])
                         for s in itertools.combinations(range(r), k)]
                lo += r * e
            self._plans[k] = plan
        return self._plans[k]

    def _terms(self, w: np.ndarray, k: int):
        """The k-terms of the rows of ``w``, one (coefficient, products)
        pair at a time: each edge's product of its weights outside S,
        multiplied left to right (1 when S is the whole edge)."""
        for a, e, cols, _ in self._plan(k):
            prod = w[:, cols[0]] if cols else np.ones((len(w), e))
            for c in cols[1:]:
                prod = prod * w[:, c]
            yield a, prod

    def _scatter_index(self, k: int, rows: int, width: int) -> np.ndarray:
        """Where the ``width`` k-terms of each of ``rows`` rows land among
        their n**k partials: row i adds i * n**k to the flat index of the
        vertices at S. The index for the most rows yet serves fewer as a
        prefix."""
        flat = self._flat.get(k)
        if flat is None:
            flat = self._flat[k] = np.concatenate([np.empty(0, dtype=np.intp)] + [
                np.ravel_multi_index([self._targets[c] for c in at], (self.n,) * k)
                for _, _, _, at in self._plan(k)])
        if flat.size < rows * width:
            flat = self._flat[k] = ((np.arange(rows) * self.n ** k)[:, None] + flat[:width]).ravel()
        return flat[:rows * width]

    def _partials(self, x, k: int) -> np.ndarray:
        """The coefficient times each k-term of every row of ``x``, added
        into the n**k partials in term order by one flat scatter."""
        arr = self._rows(x)
        width, size = sum(e for _, e, _, _ in self._plan(k)), self.n ** k
        out = np.empty((arr.shape[0], size))
        for lo, w in self._blocks(arr, max(width, size)):
            b = len(w)
            contrib, c = np.empty((b, width)), 0
            for a, prod in self._terms(w, k):
                np.multiply(prod, a, out=contrib[:, c:c + prod.shape[1]])
                c += prod.shape[1]
            # bincount adds its input in order, so each entry gets its terms in term order.
            out[lo:lo + b] = np.bincount(self._scatter_index(k, b, width), weights=contrib.ravel(),
                                         minlength=b * size).reshape(b, size)
        return out

    def values(self, x) -> np.ndarray:
        """L at every row of ``x``."""
        arr = self._rows(x)
        out = np.zeros(arr.shape[0])
        for lo, w in self._blocks(arr, 1):
            total = out[lo:lo + len(w)]
            for a, prod in self._terms(w, 0):
                total += a * prod.sum(axis=1)
        return out

    def gradients(self, x) -> np.ndarray:
        """Gradient of L at every row of ``x``."""
        return self._partials(x, 1)

    def hessians(self, x) -> np.ndarray:
        """Hessian of L at every row of ``x``, a ``(B, n, n)`` array; the
        k = 2 terms fill the upper triangle and the diagonal is 0."""
        upper = self._partials(x, 2).reshape(-1, self.n, self.n)
        return upper + upper.transpose(0, 2, 1)


def eval_L(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> float:
    """L at the point x, a vector of length n."""
    return float(Objective(h, coeffs).values(np.asarray(x, dtype=float)[None])[0])


def gradient(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> np.ndarray:
    """The gradient of L at the point x, a vector of length n."""
    return Objective(h, coeffs).gradients(np.asarray(x, dtype=float)[None])[0]


def eval_exact(h: Hypergraph, coeffs: Coefficients, x: Sequence[Fraction]) -> Fraction:
    """Exact rational evaluation of L at an exact simplex point. Each weight
    is k_v / d over the lcm d of the denominators, so level r adds the
    integer products of its edges' k_v into S_r and contributes
    alpha_r * S_r / d**r (Python ints: d**r overflows int64)."""
    xs = check_rational_feasible(x, h.n)
    d = math.lcm(*(v.denominator for v in xs))
    k = [v.numerator * (d // v.denominator) for v in xs]
    total = Fraction(0)
    for r, es in h.levels:
        s_r = sum(math.prod(k[v - 1] for v in e) for e in es)
        total += coeffs.coefficient(r) * Fraction(s_r, d**r)
    return total

