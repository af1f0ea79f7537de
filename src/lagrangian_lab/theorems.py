"""Theorem registry: one spec table, one closed form, and the verification driver.

Every registered result has the Motzkin–Straus shape: on an instance meeting
its hypotheses, the maximum of the weighted polynomial over the simplex is the
value of the complete T-pattern on the largest clique (order t) under the
uniform weighting, sum over r in T of c_r * C(t, r) / t^r. Only the weight
c_r changes: 1 for ``lambda``, alpha_r for ``L`` (1 on the base level) and
r! for ``lambda'`` (r0! times L with alpha_r = r!/r0!). So COR1a/b and
COR2a/b are the T6a/b and T7a/b rows under ``lambda'``, and one threshold
rule on the flavour's coefficients, ``threshold_general``, serves T6, T7, T9
and the corollaries.

``SPECS``, held as data, is the only list of theorems. In a type pattern an
int is a fixed level, ``"r"`` the rank (parameter ``r``, else the largest
type above 2), ``"k?"`` a level k kept when present, and ``"3+"`` every type
above 2. ``_row`` resolves a row, against a list of edge types, into a
record: the rank, the levels, the ``alpha`` key each level reads, the
flavour's ``Coefficients`` and scale on those levels, and the closed form,
which sums c_r from those ``Coefficients`` over those levels only. A
``_Checker`` reads a request on an instance once: the parameters, and the
row on the instance's edge types, for the checks' thresholds,
``check_hypotheses``, ``verify`` and the CLI's sweep alike.

From that record ``verify`` rejects, by name, each ``alpha`` key and
``alpha`` map entry the row does not read (``closed_form_exact`` ignores
them). It then needs the optimum at most ``_TOL`` below the closed form at
the derived t and at most ``_REL_EXCESS`` times the closed form above it,
and the uniform-on-clique value equal to it in rational arithmetic, or,
where a clique-free check found no order-t clique, the optimum
``_STRICT_MARGIN`` below it; either way from a converged solve.

``_read_params`` is the one reader of theorem and family parameters (the
generators read through it too). ``t``, ``r``, ``n`` and ``m`` are ints (an
integral float is taken, a bool, string or fractional float is not), and
``t`` is positive and ``r`` at most 6, the soft limit on edge types. The
``alpha`` keys are ``alpha_r``, ``alpha_<level>`` and the map ``alpha``, keyed
by positive ints or levels; one rule, ``_LEVEL``, reads every level in a key:
ASCII decimal digits without a leading zero (``alpha_3`` and ``"3"``, never
``alpha_03``, ``"03"`` or ``alpha_R``). Their values and the map's entries
are positive ``Fraction``s (from an int, float, ``Fraction`` or "p/q" string).
``density`` and ``extra_density`` are floats in [0, 1] (never a bool or a
string); ``types`` is a nonempty list of positive ints up to 6, read as a
sorted tuple without repeats (by ``hypergraph._read_types``).
``null`` counts as absent; an unknown key (named in the message) or
anything else raises ``ValueError``.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from numbers import Real
from typing import Callable, Iterable, Mapping

from .cliques import contains_complete, max_complete_subgraph
from .hypergraph import Hypergraph, _check_limits, _read_int, _read_types, vertex_support
from .objective import (_LEVEL, Coefficients, _read_level, _read_positive, eval_exact,
                         flavour_coefficients, rational_uniform)
from .optimizer import OptimizationResult, SolverConfig, maximize


# A verdict needs -_TOL <= numerical - closed form <= _REL_EXCESS * closed
# form, or on the strict branch closed form - numerical >= _STRICT_MARGIN.
# L is evaluated in floats with a relative error far below 1e-12, so a
# larger excess means the maximum beats the closed form.
_TOL, _REL_EXCESS, _STRICT_MARGIN = 1e-6, 1e-12, 1e-4


def theorem_ids() -> tuple[str, ...]:
    return tuple(SPECS)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    theorem: str
    ok: bool
    conditions: tuple[ConditionCheck, ...]
    derived: dict


@dataclass(frozen=True, kw_only=True)
class TheoremVerdict:
    """The comparison ``verify`` makes: the flavour's numerical maximum over
    the simplex against the closed form on the largest clique.

    Where the hypotheses fail or there is no closed form (the
    ``closed_form`` pair is then None), ``applicable`` and ``passed`` stay
    False and ``numerical``, the ``uniform_on_clique`` pair,
    ``kkt_residual``, ``margin`` and ``solver`` stay None. On the strict
    branch, which has no clique to evaluate, only the ``uniform_on_clique``
    pair stays None.

    ``to_dict`` writes the fields but ``solver`` in order: Fractions as
    "p/q", conditions as dicts, notes as a list, and ``passed`` as
    ``tolerance`` and ``rel_excess`` (the two sides of the equality test)
    then ``pass``.
    """

    theorem: str
    hypotheses_ok: bool
    conditions: tuple[ConditionCheck, ...]
    applicable: bool = False
    closed_form: float | None
    closed_form_exact: Fraction | None
    numerical: float | None = None
    uniform_on_clique: float | None = None
    uniform_on_clique_exact: Fraction | None = None
    kkt_residual: float | None = None
    passed: bool = False
    margin: float | None = None
    t: int | None
    r: int | None
    m: int | None
    solver: OptimizationResult | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            if key == "passed":
                out["tolerance"], out["rel_excess"], key = _TOL, _REL_EXCESS, "pass"
            if isinstance(value, Fraction):
                value = f"{value.numerator}/{value.denominator}"
            elif key in ("conditions", "notes"):
                value = [asdict(v) if key == "conditions" else v for v in value]
            if key != "solver":
                out[key] = value
        return out


def pair_edge_window(t: int) -> tuple[int, int]:
    """Admissible 2-level edge counts: C(t,2) .. C(t,2) + t - 2."""
    return math.comb(t, 2), math.comb(t, 2) + t - 2


def uniform_edge_window(t: int, r: int) -> tuple[int, int]:
    """Admissible r-level edge counts around a clique of order t on t+1 vertices.

    The correction term (2^(r-3) - 1)(C(t-1, r-2) - 1) is the registry's
    reading of the paper. It empties the window (hi < lo) at r = 4 for
    t = 4-5, at r = 5 for t = 5-15 and at r = 6 for t = 6-39, so within
    n <= 24 nothing meets ``PTZ`` at r = 6."""
    lo = math.comb(t, r)
    hi = lo + math.comb(t - 1, r - 1) - (2 ** (r - 3) - 1) * (math.comb(t - 1, r - 2) - 1)
    return lo, hi


def strict_three_window(t: int) -> tuple[int, Fraction]:
    """3-level window guaranteeing strict separation without an order-t clique."""
    lo = math.comb(t, 3)
    return lo, Fraction(lo + math.comb(t - 1, 2)) - Fraction(t, 2)


def threshold_one_r(r: int, alpha_r: Fraction) -> int:
    """Minimal clique order for the {1,r} closed form (ceiling formula)."""
    num = (alpha_r - math.factorial(r - 2)) ** (r - 2)
    den = math.factorial(r - 2) * alpha_r ** (r - 3)
    return math.ceil(num / den)


def threshold_one_two_three(alpha_2: Fraction, alpha_3: Fraction) -> int:
    s = alpha_2 + alpha_3
    return math.ceil((s * s - alpha_3) / s)


def threshold_general(
    k_higher: int, r_max: int, alpha_max: Fraction, alpha_2: Fraction = Fraction(1)
) -> Fraction:
    """Minimal t with several levels above 2; the largest cardinality drives it."""
    return k_higher * alpha_max / (alpha_2 * math.factorial(r_max - 2)) + 1


def _read_real(key: str, value) -> float:
    """A real number in [0, 1], never a bool or a string, as a float."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= 1:
        raise ValueError(f"{key} must be a number in [0, 1], got {value!r}")
    return float(value)


def _read_params(params: Mapping | None) -> dict:
    """Copy of the parameters, read as the module docstring says."""
    raw = dict(params or {})
    known = ("t", "r", "n", "m", "alpha", "density", "extra_density", "types")
    unknown = [repr(k) for k in raw if k not in known
               and not re.fullmatch(f"alpha_(r|{_LEVEL})", str(k))]
    if unknown:
        raise ValueError(f"unknown parameters: {', '.join(unknown)} "
                         f"(the keys are {', '.join(known)}, alpha_r and alpha_<level>)")
    p = {k: v for k, v in raw.items() if v is not None}
    for key, value in p.items():
        if key in ("t", "r", "n", "m"):
            p[key] = _read_int(key, value, 1 if key == "t" else None)
        elif key.startswith("alpha_"):
            p[key] = _read_positive(key, value)
        elif key in ("density", "extra_density"):
            p[key] = _read_real(key, value)
        elif key == "types":
            p[key] = _read_types(key, value)
        elif key == "alpha":
            if not isinstance(value, Mapping):
                raise ValueError(f"alpha must map levels to coefficients, got {value!r}")
            p[key] = {_read_level(k): _read_positive(f"alpha[{k}]", v) for k, v in value.items()}
    if "r" in p:
        _check_limits(0, (p["r"],))
    return p


def _resolve(pattern: tuple, r: int | None, present: Iterable[int]) -> tuple[int, ...]:
    """The levels a type pattern names, given the rank and the levels present."""
    levels = set()
    for entry in pattern:
        if entry == "r":
            levels.add(r)
        elif entry == "3+":
            levels.update(x for x in present if x > 2)
        elif isinstance(entry, str):
            levels.update(x for x in present if x == int(entry[:-1]))
        else:
            levels.add(entry)
    return tuple(sorted(levels))


def _rank(p: Mapping, types: Iterable[int]) -> int | None:
    """The ``r`` parameter, else the largest level above 2 in ``types``."""
    return p.get("r", max((x for x in types if x > 2), default=None))


@dataclass(frozen=True)
class _Row:
    """A row as ``_row`` resolves it. ``keys`` maps each level above the
    lowest to the key its ``L`` coefficient is read from (``alpha_r``,
    ``alpha_<level>``, or None for the ``alpha`` map); on a ``lambda`` or
    ``lambda'`` row it is empty and ``alpha`` is None."""

    r: int | None
    levels: tuple[int, ...]
    keys: dict
    alpha: dict | None
    coeffs: Coefficients
    scale: int

    def closed_form(self, t: int | None) -> Fraction | None:
        """scale * sum of c_r * C(t,r) / t^r over the levels; None unless t >= 1."""
        if t is None or t < 1:
            return None
        return self.scale * sum(self.coeffs.coefficient(v) * Fraction(math.comb(t, v), t**v)
                                for v in self.levels)


def _row(theorem: str, p: Mapping, types: Iterable[int]) -> _Row | None:
    """The row of ``theorem`` at the already-read parameters ``p`` on
    ``types``, None where its pattern names the rank and that is missing or
    below 3. An open pattern keeps the ``alpha`` map whole; an unset
    coefficient is 1."""
    spec = _spec(theorem)
    pattern, r = spec.pattern, _rank(p, types)
    if "r" in pattern and (r is None or r < 3):
        return None
    levels = _resolve(pattern, r, types)
    keys, alpha = {}, None
    if spec.flavour == "L":
        keys = {v: "alpha_r" if v == r and "r" in pattern else f"alpha_{v}" if v in pattern else None
                for v in levels[1:]}
        alpha = dict(p.get("alpha", {})) if "3+" in pattern else {}
        for v, key in keys.items():
            alpha[v] = p.get(key, Fraction(1)) if key else alpha.get(v, Fraction(1))
    return _Row(r, levels, keys, alpha, *flavour_coefficients(spec.flavour, levels, alpha))


def closed_form_exact(theorem: str, params: Mapping) -> Fraction:
    """Exact closed-form optimum: sum of c_r * C(t,r) / t^r over the levels
    the pattern admits, resolved against ``types``. Unlike ``verify`` it
    ignores ``alpha`` keys the row does not read, so one parameter dict
    serves every row (as the registry's closed-form grid passes it)."""
    p = _read_params(params)
    types = p.get("types", ())
    if not types and any(isinstance(e, str) and e != "r" for e in _spec(theorem).pattern):
        raise ValueError(f"closed form for {theorem} needs the edge-type list")
    row = _row(theorem, p, types)
    if row is None:
        raise ValueError(f"closed form for {theorem} needs r >= 3, got {_rank(p, types)}")
    closed = row.closed_form(p.get("t"))
    if closed is None:
        raise ValueError(f"closed form for {theorem} needs a positive t")
    return closed


class _Checker:
    """The one reading of a request: the parameters, and the row resolved on
    the instance's edge types (None where its pattern names a rank that is
    missing or below 3). ``report`` runs the row's checks in order; each
    appends conditions and fills ``derived``, and one that returns False
    ends the run."""

    def __init__(self, theorem: str, h: Hypergraph, params: Mapping | None):
        self.theorem, self.spec = theorem, _spec(theorem)
        self.h = h
        self.types = h.edge_types
        self.p = _read_params(params)
        self.row = _row(theorem, self.p, self.types)
        self.want = self.row.levels if self.row else ()
        self.levels = self.types if "3+" in self.spec.pattern else self.want
        self.conds: list[ConditionCheck] = []
        self.derived: dict = {}

    @property
    def t(self) -> int | None:
        return self.derived.get("t")

    def coef(self, v: int) -> int | Fraction:
        """The flavour's coefficient on level v, 1 on the base level."""
        return self.row.coeffs.coefficient(v)

    def cond(self, name: str, ok, detail: str = "") -> None:
        self.conds.append(ConditionCheck(name, bool(ok), detail))

    def check_keys(self) -> None:
        """Raise ``ValueError`` naming each ``alpha_*`` key and ``alpha`` map
        entry of the parameters the row does not read on the instance's edge
        types (every one on a ``lambda`` or ``lambda'`` row). An ``L`` row
        without a rank reads no key, and its r-range check fails instead."""
        row, p = self.row, self.p
        if row is None and self.spec.flavour == "L":
            return
        keys = row.keys if row else {}
        unread = [repr(k) for k in p if k.startswith("alpha_") and k not in keys.values()]
        unread += [f"alpha[{v}]" for v in p.get("alpha", {}) if keys.get(v, "") is not None]
        if unread:
            reads = ", ".join(key or f"alpha[{v}]" for v, key in keys.items()) or "no alpha key"
            raise ValueError(f"{self.theorem} does not read {', '.join(unread)} on edge types "
                             f"{self.types} (it reads {reads})")

    def report(self) -> HypothesisReport:
        pattern, row = self.spec.pattern, self.row
        if "r" in pattern:
            r = _rank(self.p, self.types)
            if r is not None:
                self.derived["r"] = r
            self.cond("r-range", row is not None, f"r={r}, needs r >= 3")
        if row is not None and all(check(self) is not False for check in self.spec.checks):
            if row.alpha is not None:
                self.derived["alpha"] = row.alpha
            self.derived["types"] = self.levels
            # The top level is the rank, except where an optional level makes
            # the pattern's shape depend on the instance: there only "r" names it.
            if self.want[-1] > 2 and not any(str(e).endswith("?") for e in pattern):
                self.derived.setdefault("r", self.want[-1])
        return HypothesisReport(self.theorem, all(c.ok for c in self.conds), tuple(self.conds),
                                self.derived)

    def shape(self) -> None:
        got, want = self.types, self.want
        self.cond("type-shape", got == want, f"T(H)={set(got) or {}} expected {set(want)}")

    def shape_within(self) -> None:
        got, want = self.types, self.want
        detail = f"T(H)={set(got) or {}} must be within {set(want)}"
        self.cond("type-shape", set(got) <= set(want), detail)

    def shape_open(self) -> bool:
        got = self.types
        higher = [x for x in got if x > 2]
        base = ", ".join(str(e) for e in self.spec.pattern if e != "3+")
        detail = f"T(H)={set(got) or {}} must be {{{base}}} plus levels above 2"
        self.cond("type-shape", got == self.want and len(higher) >= 1, detail)
        return bool(higher)

    def rank_at_most_four(self) -> None:
        self.cond("r-range-upper", self.row.r <= 4, f"r={self.row.r} must satisfy 3 <= r <= 4")

    def clique(self) -> None:
        res = max_complete_subgraph(self.h, self.levels)
        t = self.p.get("t", res.order)
        self.derived["t"] = t
        self.derived["clique"] = res.vertices
        detail = f"maximum complete {set(self.levels)}-subgraph has order {res.order}, t={t}"
        self.cond("clique-order", res.order == t, detail)

    def pair_clique(self) -> None:
        """The pattern without its top level has the same clique order."""
        if 2 not in self.want:
            return
        pair, t = self.want[:-1], self.t
        res = max_complete_subgraph(self.h, pair)
        detail = f"maximum complete {set(pair)}-subgraph has order {res.order}, t={t}"
        self.cond("pair-clique-order", t is not None and res.order == t, detail)

    def contains_clique(self) -> None:
        top = self.want[-1]
        res = max_complete_subgraph(self.h, (top,))
        t = self.p.get("t", res.order)
        self.derived["t"] = t
        self.derived["clique"] = res.vertices[:t]
        detail = f"maximum {top}-level clique has order {res.order}, t={t}"
        self.cond("contains-clique", res.order >= t and t >= top, detail)

    def _strict_t(self, why: str) -> int | None:
        """t for a clique-free window, which has no clique to derive it from."""
        t = self.p.get("t")
        self.cond("params", t is not None, f"t must be supplied {why}")
        if t is not None:
            self.derived["t"] = t
            self.edge_window(3, *strict_three_window(t))
        return t

    def clique_free(self) -> None:
        t = self._strict_t("for the clique-free hypothesis")
        if t is not None:
            absent = not contains_complete(self.h, t, (3,))
            self.derived["clique_present"] = not absent
            detail = f"instance must contain no complete order-{t} 3-graph"
            self.cond("clique-free", absent, detail)

    def strict_or_covered_clique(self) -> None:
        t = self._strict_t("(the strict branch has no clique to derive it from)")
        if t is None:
            return
        clique = max_complete_subgraph(self.h, (1, 3)).vertices
        self.derived["clique_present"] = len(clique) >= t
        if len(clique) >= t:
            self.derived["clique"] = clique[:t]
        elif contains_complete(self.h, t, (3,)):
            detail = f"an order-{t} 3-level clique exists but is not covered by singletons"
            self.cond("clique-singleton-cover", False, detail)

    def level2_span(self) -> None:
        span, t = len(vertex_support(self.h, 2)), self.t
        detail = f"2-level covers {span} vertices, t={t}"
        self.cond("level2-span", t is not None and span == t, detail)

    def top_span(self) -> None:
        top, t = self.want[-1], self.t
        span = len(vertex_support(self.h, top))
        detail = f"{top}-level covers {span} vertices, allowed t+1={t + 1}"
        self.cond("r-level-span", span <= t + 1, detail)

    def singleton_order(self) -> None:
        count, t = len(vertex_support(self.h, 1)), self.t
        detail = f"{count} singleton edges, t={t}"
        self.cond("singleton-order", t is not None and count == t, detail)

    def singleton_cover(self) -> None:
        """Without a 2-level, every vertex of a top-level edge has its singleton."""
        if 2 not in self.want:
            covered = vertex_support(self.h, self.want[-1]) <= vertex_support(self.h, 1)
            detail = "every vertex in a 3-edge must carry its singleton"
            self.cond("singleton-cover", covered, detail)

    def edge_window(self, level: int, lo, hi) -> None:
        m = self.h.num_edges(level)
        self.derived["m"] = m
        self.cond("edge-window", lo <= m <= hi, f"|E^{level}|={m}, window [{lo}, {hi}]")

    def pair_window(self) -> None:
        self.edge_window(2, *pair_edge_window(self.t))

    def uniform_window(self) -> None:
        top, t = self.want[-1], self.t
        if t < 1:
            self.cond("edge-window", False, f"t={t}: the {top}-level window needs t >= 1")
        else:
            self.edge_window(top, *uniform_edge_window(t, top))

    def threshold(self, bound, detail: str) -> None:
        t = self.t
        ok = t is not None and Fraction(t) >= Fraction(bound)
        self.cond("order-threshold", ok, f"t={t} must be >= {bound} ({detail})")

    def min_order_two(self) -> None:
        t = self.t
        self.cond("order-threshold", t is not None and t >= 2, f"t={t} must be >= 2")

    def min_order_one_r(self) -> None:
        a_r = self.coef(self.row.r)
        detail = f"ceil([a_r-(r-2)!]^(r-2) / ((r-2)! a_r^(r-3))) with a_r={a_r}"
        self.threshold(threshold_one_r(self.row.r, a_r), detail)

    def min_order_one_two_three(self) -> None:
        a2, a3 = self.coef(2), self.coef(3)
        self.threshold(threshold_one_two_three(a2, a3), f"a2={a2}, a3={a3}")

    def coefficient_ratio(self) -> None:
        a_r, a2, fact = self.coef(self.row.r), self.coef(2), math.factorial(self.row.r - 2)
        weak, strong = a_r / (2 * fact), a_r / fact
        self.cond("coefficient-ratio", a2 >= weak, f"a2={a2} must be >= a_r/(2 (r-2)!) = {weak}")
        # the statement carries two inconsistent bounds; require the stronger
        # one for a pass, reporting both separately
        detail = f"a2={a2} must be >= a_r/(r-2)! = {strong}"
        self.cond("coefficient-ratio-strong", a2 >= strong, detail)

    def min_order_general(self) -> None:
        higher = [x for x in self.want if x > 2]
        k, r = len(higher), higher[-1]
        a_r, a2 = self.coef(r), self.coef(2)
        detail = f"k a_r/(a2 (r-2)!) + 1 with k={k}, r={r}, a_r={a_r}, a2={a2}"
        self.threshold(threshold_general(k, r, a_r, a2), detail)


@dataclass(frozen=True)
class TheoremSpec:
    """One registered result: the type pattern, the objective flavour, the
    hypothesis checks in order, and a note that goes into every verdict."""

    pattern: tuple
    flavour: str
    checks: tuple[Callable[[_Checker], bool | None], ...]
    note: str = ""


_C = _Checker
_T4 = (_C.shape, _C.clique, _C.singleton_order, _C.min_order_one_r)
_T5 = (_C.shape, _C.clique, _C.singleton_order, _C.min_order_one_two_three)
_TWO_R = (_C.shape, _C.clique, _C.level2_span, _C.min_order_general)
_TWO_R_EDGES = (_C.shape, _C.clique, _C.pair_window, _C.min_order_general)
_T7b = _TWO_R_EDGES + (_C.coefficient_ratio,)
_COR2 = (_C.rank_at_most_four,) + _TWO_R_EDGES
_GENERAL = (_C.shape_open, _C.clique, _C.level2_span, _C.min_order_general)
_T9_NOTE = "threshold uses the largest cardinality as the driving level"
_T6a_NOTE = "level-2 coefficient fixed to 1 (base type)"
_PTZ = (_C.shape, _C.contains_clique, _C.top_span, _C.uniform_window)
_T10a = (_C.shape, _C.clique, _C.pair_clique, _C.top_span, _C.uniform_window)
_T10b = (_C.shape, _C.singleton_cover, _C.clique, _C.pair_clique, _C.uniform_window)
_T10c = (_C.shape, _C.singleton_cover, _C.strict_or_covered_clique)

SPECS: dict[str, TheoremSpec] = {
    "MS_T1": TheoremSpec((2,), "lambda", (_C.shape_within, _C.clique)),
    "NONUNIF_T3": TheoremSpec((1, 2), "lambda'", (_C.shape, _C.clique, _C.min_order_two)),
    "ONE_R_T4": TheoremSpec((1, "r"), "L", _T4),
    "ONE_TWO_THREE_T5": TheoremSpec((1, 2, 3), "L", _T5),
    "TWO_R_T6a": TheoremSpec((2, "r"), "L", _TWO_R, note=_T6a_NOTE),
    "ONE_TWO_R_T6b": TheoremSpec((1, 2, "r"), "L", _TWO_R),
    # On the pair-window family F_{t,r} (every r-set and every pair on [t+1]
    # but {t-1, t+1} and {t, t+1}; singletons for the "b" rows), at x* =
    # uniform on [t] with alpha_2 = 1, the gradient has g_{t+1} - lambda =
    # (alpha_r C(t-1, r-2) - t^(r-2)) / t^(r-1); where that is positive, a
    # step toward t+1 beats the closed form. It is negative for every t iff
    # alpha_r <= (r-2)!. COR2a/b's r!/2 is above: test_known_refutations_are_exact.
    "TWO_R_EDGES_T7a": TheoremSpec((2, "r"), "L", _TWO_R_EDGES),
    "ONE_TWO_R_EDGES_T7b": TheoremSpec((1, 2, "r"), "L", _T7b),
    "COR1a": TheoremSpec((2, "r"), "lambda'", _TWO_R),
    "COR1b": TheoremSpec((1, 2, "r"), "lambda'", _TWO_R),
    # Refuted by the pair-window family, as noted at T7a.
    "COR2a": TheoremSpec((2, "r"), "lambda'", _COR2),
    "COR2b": TheoremSpec((1, 2, "r"), "lambda'", _COR2),
    "GENERAL_T9a": TheoremSpec((2, "3+"), "L", _GENERAL, note=_T9_NOTE),
    "GENERAL_T9b": TheoremSpec((1, 2, "3+"), "L", _GENERAL, note=_T9_NOTE),
    "MIXED_T10a": TheoremSpec(("1?", 2, "r"), "lambda'", _T10a),
    "MIXED_T10b": TheoremSpec((1, "2?", 3), "lambda'", _T10b),
    "MIXED_T10c": TheoremSpec((1, 3), "lambda'", _T10c),
    "PZ": TheoremSpec((3,), "lambda", (_C.shape, _C.contains_clique, _C.uniform_window)),
    "TPZZ": TheoremSpec((3,), "lambda", (_C.shape, _C.clique_free)),
    "PTZ": TheoremSpec(("r",), "lambda", _PTZ),
}


def _spec(theorem: str) -> TheoremSpec:
    """The registered row of a theorem id; an unknown id raises ``ValueError``."""
    try:
        return SPECS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {', '.join(SPECS)}") from None


def check_hypotheses(
    theorem: str, h: Hypergraph, params: Mapping | None = None
) -> HypothesisReport:
    """Evaluate every hypothesis of a theorem on a concrete instance.

    Failed conditions are reported, never raised; ``derived`` carries what
    the checks found: t, r, m, ``clique`` (the clique's vertices),
    ``clique_present``, the levels and an ``L`` row's coefficients.
    ``verify`` reads the first five, and passes the ``_Checker`` it built
    in place of ``params`` so that it reads its request once.
    """
    c = params if isinstance(params, _Checker) else _Checker(theorem, h, params)
    return c.report()


def verify(
    theorem: str,
    h: Hypergraph,
    params: Mapping | None = None,
    cfg: SolverConfig | None = None,
) -> TheoremVerdict:
    """Check hypotheses, optimize numerically and judge the closed form as
    the module docstring says, reporting the gap either way. An unconverged
    value only bounds the maximum from below, so it never passes."""
    c = _Checker(theorem, h, params)
    c.check_keys()
    report, row = check_hypotheses(theorem, h, c), c.row
    derived = report.derived
    notes = [c.spec.note] if c.spec.note else []

    cf_exact = None if row is None else row.closed_form(derived.get("t"))
    cf = None if cf_exact is None else float(cf_exact)
    verdict = TheoremVerdict(
        theorem=theorem, hypotheses_ok=report.ok, conditions=report.conditions, closed_form=cf,
        closed_form_exact=cf_exact, t=derived.get("t"), r=derived.get("r"), m=derived.get("m"),
        notes=tuple(notes))
    if not report.ok or cf_exact is None:
        return verdict

    res = maximize(h, row.coeffs, cfg)
    numerical = row.scale * res.value
    if not res.converged:
        notes.append("solver budget exhausted before convergence")

    uniform_exact: Fraction | None = None
    margin = cf - numerical
    if derived.get("clique_present") is False:
        passed = res.converged and margin >= _STRICT_MARGIN
        notes.append(f"strict branch: measured gap {margin:.6g} (margin floor {_STRICT_MARGIN:g})")
    else:
        clique = derived["clique"]
        uniform_exact = row.scale * eval_exact(h, row.coeffs, rational_uniform(h.n, clique))
        if margin < -_REL_EXCESS * cf:
            notes.append(f"numerical exceeds the closed form by {-margin:.6g} "
                         f"(relative bound {_REL_EXCESS:g})")
        passed = (res.converged and -_REL_EXCESS * cf <= margin <= _TOL
                  and uniform_exact == cf_exact)

    return replace(
        verdict, applicable=True, numerical=numerical,
        uniform_on_clique=None if uniform_exact is None else float(uniform_exact),
        uniform_on_clique_exact=uniform_exact, kkt_residual=res.kkt_residual, passed=passed,
        margin=margin, m=derived.get("m", h.num_edges(max(h.edge_types, default=0))), solver=res,
        notes=tuple(notes))
