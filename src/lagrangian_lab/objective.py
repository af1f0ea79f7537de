"""Weighted polynomial objectives of a hypergraph over the standard simplex.

One evaluator, :class:`Objective`, computes the weighted program ``L``, its
gradient and its Hessian on a batch of points: the base-cardinality level has
coefficient 1 and each higher level r a positive coefficient alpha_r.

:func:`flavour_coefficients` is the one map from an objective flavour to
``L``: it returns the coefficients and the scale with flavour = scale * L.
The Lagrangian ``lambda`` (the monomial sum) is the case alpha_r = 1, and
the non-uniform Lagrangian ``lambda'`` (every level r weighted by r!) is r0!
times L with alpha_r = r!/r0!, r0 the smallest level, or 1 when there are
no levels. The factorial-weighted sum written out independently is a test
oracle, so the identity is cross-checked in the tests rather than assumed.

Float evaluations accept any real vector of length n. An exact mode over
rationals, which requires a point of the simplex, backs the closed-form
identity checks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .hypergraph import Hypergraph, _read_int

Number = float | int | Fraction


class MissingCoefficientError(ValueError):
    """A nonempty level has no coefficient."""


@dataclass(frozen=True)
class Coefficients:
    """Per-cardinality weights for the polynomial program.

    The base cardinality ``r0`` always has coefficient 1; ``alpha`` maps each
    higher cardinality to a positive constant. Values may be exact
    ``Fraction``s, which flow unchanged into the exact evaluation mode.
    Coverage of a hypergraph's levels is checked at call time, so one value
    can serve a whole family of graphs.
    """

    r0: int
    alpha: tuple[tuple[int, Number], ...] = ()

    def __post_init__(self):
        if self.r0 < 1:
            raise ValueError(f"base cardinality must be >= 1, got {self.r0}")
        alpha = tuple(sorted(dict(self.alpha).items()))
        object.__setattr__(self, "alpha", alpha)
        for r, a in alpha:
            if r <= self.r0:
                raise ValueError(f"alpha keys must exceed the base cardinality {self.r0}, got {r}")
            if a <= 0:
                raise ValueError(f"alpha_{r} must be positive, got {a}")

    def coefficient(self, r: int) -> Number:
        if r == self.r0:
            return 1
        for rr, a in self.alpha:
            if rr == r:
                return a
        raise MissingCoefficientError(f"no coefficient for cardinality {r} (base r0={self.r0})")

    @classmethod
    def make(cls, r0: int, alpha: Mapping[int, Number] | None = None) -> "Coefficients":
        return cls(r0=r0, alpha=tuple((alpha or {}).items()))

    @classmethod
    def ones(cls, types: Iterable[int]) -> "Coefficients":
        """Coefficient 1 on every level: the plain monomial-sum objective."""
        ts = sorted(set(types))
        if not ts:
            raise ValueError("edge-type set must be nonempty")
        return cls.make(ts[0], {r: 1 for r in ts[1:]})

    @classmethod
    def from_json(cls, text: str) -> "Coefficients":
        """Parse ``{"r0": int, "alpha": {"r": number, ...}}``; a malformed
        document raises ``ValueError``. An integral float ``r0`` such as 3.0
        is taken as an int; a boolean or fractional one is rejected."""
        doc = json.loads(text)
        try:
            alpha = {int(r): _read_positive(f"alpha_{r}", a) for r, a in doc.get("alpha", {}).items()}
            r0 = _read_int("r0", doc["r0"])
        except (KeyError, AttributeError, TypeError) as exc:
            raise ValueError(f"malformed coefficients document: {exc!r}") from None
        return cls.make(r0, alpha)


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
        return Coefficients.make(r0, {r: fact(r) // fact(r0) for r in ts[1:]}), fact(r0)
    if flavour == "lambda":
        return Coefficients.make(r0, {r: 1 for r in ts[1:]}), 1
    if flavour == "L":
        return Coefficients.make(r0, {r: a for r, a in (alpha or {}).items() if r > r0}), 1
    raise ValueError(f"unknown objective flavour {flavour!r}")


def _read_positive(key: str, value) -> Fraction:
    """An int, float, ``Fraction`` or "p/q" string above 0, as a ``Fraction``."""
    try:
        a = None if isinstance(value, bool) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        a = None
    if a is None or a <= 0:
        raise ValueError(f"{key} must be a positive number, got {value!r}")
    return a


# ---------------------------------------------------------------------------
# Weight vectors
# ---------------------------------------------------------------------------


def uniform_weights(n: int, support: Iterable[int] | None = None) -> np.ndarray:
    """Uniform weighting on a vertex subset (the whole of [n] by default):
    :func:`rational_uniform` as floats."""
    return np.array(rational_uniform(n, support), dtype=float)


def rational_uniform(n: int, support: Iterable[int] | None = None) -> tuple[Fraction, ...]:
    """Exact uniform weighting on a vertex subset."""
    idx = sorted(set(support)) if support is not None else list(range(1, n + 1))
    if not idx:
        raise ValueError("support must be nonempty")
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


# Bound on the elements of one block's (rows x edges x r) temporaries; a
# larger batch is evaluated block by block.
_BLOCK_ELEMENTS = 1 << 16


class Objective:
    """L of one hypergraph and coefficient set, on a ``(B, n)`` batch of points.

    The level index arrays and coefficients are read once. Every row gets
    exactly the arithmetic of a one-point evaluation: each edge's product
    multiplies its vertex weights left to right, a level's products are
    added with numpy's pairwise summation, and the levels are added in
    increasing order. Gradient component i accumulates, starting from 0,
    the contributions of the edges through i in the order level, position
    of i within the edge, edge; Hessian entries accumulate the same way
    (see :meth:`hessians`). Construction raises
    ``MissingCoefficientError`` for the first level without a coefficient.
    """

    def __init__(self, h: Hypergraph, coeffs: Coefficients):
        self.n = h.n
        levels = [(float(coeffs.coefficient(r)), h.edge_array(r)) for r in h.edge_types]
        # (coefficient, r, edge count) per level, and every edge position's
        # vertex in the order per level, per position, per edge: one gather
        # reads all weights, and it is also the gradient's scatter order.
        self._levels = [(a, idx.shape[1], idx.shape[0]) for a, idx in levels]
        self._targets = np.concatenate(
            [idx.T.ravel() for _, idx in levels] or [np.empty(0, dtype=np.intp)])
        self._block = max(1, _BLOCK_ELEMENTS // max(1, self._targets.size))

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The flat Hessian entry i*n + j of every edge's position pair
        p < q, in the order per level, per pair, per edge."""
        out, k = [np.empty(0, dtype=np.intp)], 0
        for _, r, e in self._levels:
            col = [self._targets[k + j * e:k + (j + 1) * e] for j in range(r)]
            out += [col[p] * self.n + col[q] for p, q in itertools.combinations(range(r), 2)]
            k += r * e
        return np.concatenate(out)

    def _rows(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(f"points must have shape (B, {self.n}), got {arr.shape}")
        return arr

    def _blocks(self, arr: np.ndarray, block: int):
        """Blocks of ``block`` rows of ``arr``, each with the weight at every
        edge position: a (rows, positions) array in ``_targets`` order."""
        for lo in range(0, arr.shape[0], block):
            yield lo, np.take(arr[lo:lo + block], self._targets, axis=1)

    def values(self, x) -> np.ndarray:
        """L at every row of ``x``."""
        arr = self._rows(x)
        out = np.zeros(arr.shape[0])
        for lo, w in self._blocks(arr, self._block):
            total = out[lo:lo + len(w)]
            k = 0
            for a, r, e in self._levels:
                prod = w[:, k:k + e]
                for j in range(1, r):
                    prod = prod * w[:, k + j * e:k + (j + 1) * e]
                # Each row's products lie contiguous and are summed pairwise.
                total += a * prod.sum(axis=1)
                k += r * e
        return out

    def gradients(self, x) -> np.ndarray:
        """Gradient of L at every row of ``x``: component i sums, over the
        edges through i, the coefficient times the product of the other
        vertex weights."""
        arr = self._rows(x)
        rows, n = arr.shape
        out = np.empty((rows, n))
        for lo, w in self._blocks(arr, self._block):
            b = w.shape[0]
            contrib = np.empty_like(w)
            k = 0
            for a, r, e in self._levels:
                cols = [w[:, k + j * e:k + (j + 1) * e] for j in range(r)]
                prefix = None
                for p in range(r):
                    # The other weights of each edge, multiplied left to right.
                    others = prefix
                    for c in cols[p + 1:]:
                        others = c if others is None else others * c
                    if others is None:
                        contrib[:, k:k + e] = a
                    else:
                        np.multiply(others, a, out=contrib[:, k:k + e])
                    k += e
                    if p + 1 < r:
                        prefix = cols[p] if prefix is None else prefix * cols[p]
            # One flat scatter; bincount adds in input order, so each
            # component sees its contributions in the documented order.
            flat = self._targets if b == 1 else (np.arange(b) * n)[:, None] + self._targets
            g = np.bincount(flat.ravel(), weights=contrib.ravel(), minlength=b * n)
            out[lo:lo + b] = g.reshape(b, n)
        return out

    def hessians(self, x) -> np.ndarray:
        """Hessian of L at every row of ``x``, a ``(B, n, n)`` array: entry
        (i, j) sums, over the edges through both i and j, the coefficient
        times the product of the other vertex weights; the diagonal is 0.

        Each edge's position pairs p < q, in the order level, pair, edge,
        give one contribution (the other weights multiplied left to right)
        to entry (i, j) with i < j; the lower triangle is its transpose.
        """
        arr = self._rows(x)
        rows, n = arr.shape
        out = np.empty((rows, n, n))
        block = max(1, _BLOCK_ELEMENTS // max(self._targets.size, self._pairs.size, n * n))
        for lo, w in self._blocks(arr, block):
            b = w.shape[0]
            contrib = np.empty((b, self._pairs.size))
            k = c = 0
            for a, r, e in self._levels:
                cols = [w[:, k + j * e:k + (j + 1) * e] for j in range(r)]
                for p, q in itertools.combinations(range(r), 2):
                    others = None
                    for j in range(r):
                        if j != p and j != q:
                            others = cols[j] if others is None else others * cols[j]
                    if others is None:
                        contrib[:, c:c + e] = a
                    else:
                        np.multiply(others, a, out=contrib[:, c:c + e])
                    c += e
                k += r * e
            flat = (np.arange(b) * (n * n))[:, None] + self._pairs
            upper = np.bincount(flat.ravel(), weights=contrib.ravel(), minlength=b * n * n)
            upper = upper.reshape(b, n, n)
            out[lo:lo + b] = upper + upper.transpose(0, 2, 1)
        return out


def eval_L(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> float:
    """Weighted monomial sum over all edges at the point x.

    Summation within a level uses numpy's pairwise reduction, which keeps
    rounding well inside the acceptance tolerances even for large levels.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size != h.n:
        raise ValueError(f"weight vector has length {arr.size}, expected {h.n}")
    return float(Objective(h, coeffs).values(arr[None, :])[0])


def gradient(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> np.ndarray:
    """Partial derivatives of L: component i sums, over edges through i,
    the coefficient times the product of the other vertex weights."""
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size != h.n:
        raise ValueError(f"weight vector has length {arr.size}, expected {h.n}")
    return Objective(h, coeffs).gradients(arr[None, :])[0]


def eval_exact(
    h: Hypergraph, coeffs: Coefficients, x: Sequence[Fraction]
) -> Fraction:
    """Exact rational evaluation of L at an exact simplex point."""
    xs = check_rational_feasible(x, h.n)
    total = Fraction(0)
    for r, es in h.levels:
        a = Fraction(coeffs.coefficient(r))
        s = Fraction(0)
        for e in es:
            m = Fraction(1)
            for v in e:
                m *= xs[v - 1]
            s += m
        total += a * s
    return total

