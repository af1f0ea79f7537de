"""Weighted polynomial objectives of a hypergraph over the standard simplex.

Three families share one evaluation core:

* the uniform-level monomial sum (each r-edge contributes the product of
  its vertex weights),
* the weighted program ``L``: base-cardinality level has coefficient 1,
  each higher level r a positive coefficient alpha_r,
* the non-uniform Lagrangian ``lambda'``: every level r weighted by r!.

``lambda'`` equals r0! times L with alpha_r = r!/r0! (r0 the smallest edge
type); the two are implemented independently so the identity can be
cross-checked rather than assumed.

Evaluations accept any real vector of length n; simplex membership is a
separate validation used by the optimizer. An exact mode over rationals
backs the closed-form identity checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .hypergraph import Hypergraph

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

    def require_for(self, h: Hypergraph) -> None:
        for r in h.edge_types:
            self.coefficient(r)

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
    def lambda_prime_weights(cls, types: Iterable[int]) -> "Coefficients":
        """Weights r!/r0! so that r0! * L reproduces the non-uniform Lagrangian."""
        ts = sorted(set(types))
        if not ts:
            raise ValueError("edge-type set must be nonempty")
        r0 = ts[0]
        base = math.factorial(r0)
        return cls.make(r0, {r: math.factorial(r) // base for r in ts[1:]})

    def to_json(self) -> str:
        def enc(a: Number):
            if isinstance(a, Fraction):
                return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else a.numerator
            return a

        return json.dumps({"r0": self.r0, "alpha": {str(r): enc(a) for r, a in self.alpha}})

    @classmethod
    def from_json(cls, text: str) -> "Coefficients":
        """Parse ``{"r0": int, "alpha": {"r": number, ...}}``; a malformed
        document raises ``ValueError``."""
        doc = json.loads(text)
        try:
            alpha = {int(r): parse_number(a) for r, a in doc.get("alpha", {}).items()}
            r0 = int(doc["r0"])
        except (KeyError, AttributeError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed coefficients document: {exc!r}") from None
        return cls.make(r0, alpha)


def parse_number(value) -> Number:
    """Accept ints, floats, and "p/q" strings (exact rationals)."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        return value
    raise ValueError(f"cannot interpret coefficient {value!r}")


# ---------------------------------------------------------------------------
# Weight vectors
# ---------------------------------------------------------------------------


def check_feasible(x: Sequence[float], n: int | None = None, tol: float = 1e-12) -> np.ndarray:
    """Validate simplex membership: nonnegative entries summing to 1 within tol."""
    arr = np.asarray(x, dtype=float).ravel()
    if n is not None and arr.size != n:
        raise ValueError(f"weight vector has length {arr.size}, expected {n}")
    if arr.size == 0:
        raise ValueError("weight vector must be nonempty")
    if arr.min() < -tol:
        raise ValueError(f"negative weight {arr.min()}")
    if abs(arr.sum() - 1.0) > tol:
        raise ValueError(f"weights sum to {arr.sum()}, expected 1")
    return arr


def uniform_weights(n: int, support: Iterable[int] | None = None) -> np.ndarray:
    """Uniform weighting on a vertex subset (the whole of [n] by default)."""
    x = np.zeros(n)
    idx = sorted(set(support)) if support is not None else list(range(1, n + 1))
    if not idx:
        raise ValueError("support must be nonempty")
    for v in idx:
        x[v - 1] = 1.0 / len(idx)
    return x


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


@lru_cache(maxsize=1024)
def _edge_array(h: Hypergraph, r: int) -> np.ndarray:
    """Zero-based (E, r) index array for one level."""
    es = h.level_edges(r)
    if not es:
        return np.empty((0, r), dtype=np.intp)
    return np.asarray(es, dtype=np.intp) - 1


def _level_terms(h: Hypergraph, coeffs: Coefficients) -> list[tuple[float, np.ndarray]]:
    return [(float(coeffs.coefficient(r)), _edge_array(h, r)) for r in h.edge_types]


def eval_L(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> float:
    """Weighted monomial sum over all edges at the point x.

    Summation within a level uses numpy's pairwise reduction, which keeps
    rounding well inside the acceptance tolerances even for large levels.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size != h.n:
        raise ValueError(f"weight vector has length {arr.size}, expected {h.n}")
    total = 0.0
    for a, idx in _level_terms(h, coeffs):
        if idx.shape[0]:
            total += a * float(np.prod(arr[idx], axis=1).sum())
    return total


def eval_lambda_prime(h: Hypergraph, x: Sequence[float]) -> float:
    """Non-uniform Lagrangian objective: each level r weighted by r!.

    Deliberately shares no code with :func:`eval_L` so the factorial-weight
    identity between the two can be tested rather than assumed.
    """
    xs = [float(v) for v in x]
    if len(xs) != h.n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {h.n}")
    level_sums = []
    for r, es in h.levels:
        s = math.fsum(math.prod(xs[v - 1] for v in e) for e in es)
        level_sums.append(math.factorial(r) * s)
    return math.fsum(level_sums)


def gradient(h: Hypergraph, coeffs: Coefficients, x: Sequence[float]) -> np.ndarray:
    """Partial derivatives of L: component i sums, over edges through i,
    the coefficient times the product of the other vertex weights."""
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size != h.n:
        raise ValueError(f"weight vector has length {arr.size}, expected {h.n}")
    g = np.zeros(h.n)
    for a, idx in _level_terms(h, coeffs):
        if not idx.shape[0]:
            continue
        r = idx.shape[1]
        if r == 1:
            np.add.at(g, idx[:, 0], a)
            continue
        vals = arr[idx]
        for p in range(r):
            others = np.prod(np.delete(vals, p, axis=1), axis=1)
            np.add.at(g, idx[:, p], a * others)
    return g


class PairQuantities(NamedTuple):
    """Weighted link values for a vertex pair (i, j).

    ``e_ij``: edges through both, evaluated on the remaining vertices.
    ``e_i_not_j``: edges through i (j absent) whose j-swapped image is not
    an edge; symmetric for ``e_j_not_i``. These are the second-derivative
    and difference structures behind the equal-gradient optimality
    conditions: grad_i - grad_j = (x_j - x_i) * e_ij + e_i_not_j - e_j_not_i.
    """

    e_ij: float
    e_i_not_j: float
    e_j_not_i: float


def pair_quantities(
    h: Hypergraph, coeffs: Coefficients, x: Sequence[float], i: int, j: int
) -> PairQuantities:
    if i == j:
        raise ValueError("pair quantities need two distinct vertices")
    xs = [float(v) for v in x]
    if len(xs) != h.n:
        raise ValueError(f"weight vector has length {len(xs)}, expected {h.n}")
    both: list[float] = []
    i_only: list[float] = []
    j_only: list[float] = []
    for r, es in h.levels:
        a = float(coeffs.coefficient(r))
        existing = h.edge_set(r)
        for e in es:
            has_i = i in e
            has_j = j in e
            if has_i and has_j:
                both.append(a * math.prod(xs[v - 1] for v in e if v != i and v != j))
            elif has_i:
                image = tuple(sorted([j] + [v for v in e if v != i]))
                if image not in existing:
                    i_only.append(a * math.prod(xs[v - 1] for v in e if v != i))
            elif has_j:
                image = tuple(sorted([i] + [v for v in e if v != j]))
                if image not in existing:
                    j_only.append(a * math.prod(xs[v - 1] for v in e if v != j))
    return PairQuantities(math.fsum(both), math.fsum(i_only), math.fsum(j_only))


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


def lambda_prime_exact(h: Hypergraph, x: Sequence[Fraction]) -> Fraction:
    """Exact non-uniform Lagrangian value via the factorial-weight scaling."""
    if not h.edge_types:
        check_rational_feasible(x, h.n)
        return Fraction(0)
    r0 = h.edge_types[0]
    weights = Coefficients.lambda_prime_weights(h.edge_types)
    return math.factorial(r0) * eval_exact(h, weights, x)
