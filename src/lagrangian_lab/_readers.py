"""Every rule for reading an input, each stated once.

An integer (``_read_int``) is an int or an integral float, never a bool or a
string, with an optional floor of 1 or 0; as text it is ASCII digits
(``_DIGITS``, where int() also reads '٣', '1_0' and '-1'). A level is an
integer of at least 1; as text, as in an ``alpha`` key, it is ``_LEVEL``,
without a leading zero. An edge-type set (``_read_types``) is a nonempty
iterable of levels, not a string, read as a sorted tuple without repeats.
The soft limits n <= 24 and r <= 6 (``_check_limits``) keep the enumeration
oracles tractable; a builder checks them before it lists any edge. A
coefficient (``_read_positive``) is an int, float, ``Fraction`` or "p/q"
string above 0 and within float range, kept as a ``Fraction``; a density
(``_read_real``) is a real number in [0, 1], not a bool, read as a float.
Parameters (``_read_params``): ``t`` (positive), ``r`` (an edge type), ``n``
and ``m`` are integers; ``alpha_r``, ``alpha_<level>`` and the ``alpha`` map
(``_read_alpha``: a mapping or pairs) hold coefficients; ``density`` and
``extra_density`` are densities and ``types`` an edge-type set. ``null`` is
absent and an unknown key is named. Two keys of one level in an ``alpha``
map, or one key twice in a JSON object (``_load_json``), are an error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from numbers import Integral, Real
from typing import Mapping

MAX_CARDINALITY = 6
MAX_VERTICES = 24
_DIGITS = "[0-9]+"
_LEVEL = "[1-9][0-9]*"


class HypergraphError(ValueError):
    """Malformed hypergraph input: bad vertex, duplicate or empty edge, bad edge-type set."""


def _check_limits(n: int, types=()) -> None:
    """Raise ``HypergraphError`` if n or a level in ``types`` exceeds its soft limit."""
    if n > MAX_VERTICES:
        raise HypergraphError(f"n={n} exceeds the soft limit {MAX_VERTICES}")
    for r in types:
        if r > MAX_CARDINALITY:
            raise HypergraphError(f"edge type {r} exceeds the soft limit {MAX_CARDINALITY}")


def _read_int(key: str, value, least: int | None = None) -> int:
    """An integer; a floor ``least`` of 1 or 0 also rejects a smaller value."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{key} must be a {'positive' if least else 'non-negative'} integer, "
                         f"got {value}")
    return int(value)


def _read_types(key: str, types) -> tuple[int, ...]:
    """An edge-type set."""
    try:
        ts = sorted({_read_int(key, r, 1) for r in types}) if not isinstance(types, str) else []
    except (TypeError, ValueError):  # not iterable, or an entry is not a positive int
        ts = []
    if not ts:
        raise HypergraphError(f"{key} must be a nonempty list of positive integers, got {types!r}")
    _check_limits(0, ts)
    return tuple(ts)


def _read_positive(key: str, value) -> Fraction:
    """A coefficient."""
    try:
        a = None if isinstance(value, bool) else Fraction(value)
        float(a or 0)  # past float range: OverflowError
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        a = None
    if a is None or a <= 0:
        raise ValueError(f"{key} must be a positive number, got {value!r}")
    return a


def _read_real(key: str, value) -> float:
    """A density."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= 1:
        raise ValueError(f"{key} must be a number in [0, 1], got {value!r}")
    return float(value)


def _read_level(key) -> int:
    """An ``alpha`` key: a string spelled as ``_LEVEL``, else an integer of at least 1."""
    level = int(key) if isinstance(key, str) and re.fullmatch(_LEVEL, key) else key
    try:
        return _read_int("level", level, 1)
    except ValueError:
        raise ValueError(f"alpha keys must be positive integer levels, got {key!r}") from None


def _unique(pairs, what: str) -> dict:
    """The (key, value) pairs as a dict; a key given twice raises ``ValueError``."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"{what} repeats a key: {key!r}")
        doc[key] = value
    return doc


def _read_alpha(pairs, label: str) -> dict[int, Fraction]:
    """An ``alpha`` map; ``label.format(level)`` names a value in its message."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    levels = ((_read_level(k), v) for k, v in items)
    return _unique(((r, _read_positive(label.format(r), v)) for r, v in levels), "alpha")


def _read_params(params: Mapping | None) -> dict:
    """Copy of the theorem or family parameters, each read by its rule."""
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
            p[key] = _read_alpha(value, "alpha[{}]")
    _check_limits(0, (p["r"],) if "r" in p else ())
    return p


def _load_json(text: str):
    """A JSON document; an object that repeats a key raises ``ValueError``."""
    return json.loads(text, object_pairs_hook=lambda pairs: _unique(pairs, "JSON object"))
