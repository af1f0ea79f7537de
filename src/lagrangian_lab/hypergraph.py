"""Canonical representation of non-uniform hypergraphs.

Vertices are labeled 1..n in every input and output. Edges are grouped by
cardinality and kept as strictly increasing tuples, so each hypergraph has
exactly one canonical form and equality/hashing are structural. Isolated
vertices are allowed: n may exceed the number of covered vertices.

An instance computes its per-level index arrays, edge masks (bit v for
vertex v) and clique link tables once, on first use, and keeps them: the
objective and every clique search read the same arrays and tables, and
left-compression reads and writes masks. A membership test is a binary
search of the sorted level. Link tables are built in numpy from
``edge_array``: one sort of (key, vertex) packed into an int64, one OR per key.

Every input is read by the rules of ``_readers``, the soft limits (n <= 24,
r <= 6) among them: ``validate`` and ``complete`` enforce them.
"""

from __future__ import annotations

import itertools
import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from ._readers import (_DIGITS, MAX_VERTICES, HypergraphError, _check_limits, _load_json,
                       _read_int, _read_types)

Edge = tuple[int, ...]

_BIT = [1 << v for v in range(MAX_VERTICES + 1)].__getitem__
# _BYTE_VERTICES[k][b]: the vertices 8k + i for the set bits i of byte b, lowest first.
_BYTE_VERTICES = [[tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256)]
                  for k in range(4)]


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph: vertex count plus edges grouped by cardinality.

    ``levels`` maps each present cardinality r to its edges, stored as a
    sorted tuple of sorted vertex tuples. Only nonempty levels are kept, so
    ``edge_types`` is exactly the set of cardinalities carrying edges.
    """

    n: int
    levels: tuple[tuple[int, tuple[Edge, ...]], ...]

    @property
    def edge_types(self) -> tuple[int, ...]:
        """Sorted cardinalities that actually carry edges."""
        return tuple(r for r, _ in self.levels)

    def level_edges(self, r: int) -> tuple[Edge, ...]:
        for rr, es in self.levels:
            if rr == r:
                return es
        return ()

    def edge_masks(self, r: int) -> frozenset[int]:
        """Level r's edges as int masks (bit v for vertex v)."""
        return self._edge_masks.get(r, frozenset())

    @cached_property
    def _edge_masks(self) -> dict[int, frozenset[int]]:
        return {r: frozenset([sum(map(_BIT, e)) for e in es]) for r, es in self.levels}

    def edge_array(self, r: int) -> np.ndarray:
        """Zero-based ``(E, r)`` vertex-index array of level r, read-only."""
        arr = self._edge_arrays.get(r)
        return arr if arr is not None else np.empty((0, r), dtype=np.intp)

    @cached_property
    def _edge_arrays(self) -> dict[int, np.ndarray]:
        out = {}
        for r, es in self.levels:
            flat = np.fromiter(itertools.chain.from_iterable(es), np.intp, len(es) * r)
            arr = flat.reshape(-1, r) - 1
            arr.flags.writeable = False
            out[r] = arr
        return out

    def link_table(self, r: int) -> dict[int, int]:
        """Level r's link table, built on first use; callers must not mutate it. The mask (bit
        v for vertex v) of each (r-1)-subset of an r-edge maps to that of its completions, keys
        ascending: one sort of (key, vertex) packed in an int64 groups the vertices by key."""
        if r not in self._link_tables:
            index = self.edge_array(r)
            # (key << 5) | (v - 1): keys are below 2**25 (n <= 24), so each fits an int64.
            shifted = np.left_shift(np.int64(64), index)
            packed = np.sort(((shifted.sum(1)[:, None] ^ shifted) | index).ravel())
            keys, bits = packed >> 5, np.left_shift(np.int64(2), packed & 31)
            # The first index of each run of equal keys; none for an absent level.
            starts = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
            ors = np.bitwise_or.reduceat(bits, starts) if keys.size else keys
            self._link_tables[r] = dict(zip(keys[starts].tolist(), ors.tolist()))
        return self._link_tables[r]

    @cached_property
    def _link_tables(self) -> dict[int, dict[int, int]]:
        return {}

    def edges(self) -> list[Edge]:
        """All edges, ordered by (cardinality, lexicographic)."""
        out: list[Edge] = []
        for _, es in self.levels:
            out.extend(es)
        return out

    def num_edges(self, r: int | None = None) -> int:
        if r is None:
            return sum(len(es) for _, es in self.levels)
        return len(self.level_edges(r))

    def has_edge(self, e: Sequence[int]) -> bool:
        t = tuple(sorted(e))
        es = self.level_edges(len(t))
        i = bisect_left(es, t)
        return i < len(es) and es[i] == t

    def __repr__(self) -> str:
        counts = ", ".join(f"{r}:{len(es)}" for r, es in self.levels)
        return f"Hypergraph(n={self.n}, levels={{{counts}}})"


def _build(n: int, per_level: Mapping[int, Iterable[Edge]]) -> Hypergraph:
    """Assemble the canonical form from already-validated, distinct edges."""
    levels = tuple(
        (r, tuple(sorted(per_level[r])))
        for r in sorted(per_level)
        if per_level[r]
    )
    return Hypergraph(n=n, levels=levels)


def _from_masks(n: int, levels: Mapping[int, Collection[int]]) -> Hypergraph:
    """The graph whose level r holds the edges of the distinct masks ``levels[r]``;
    it keeps them as its mask view."""
    b0, b1, b2, b3 = _BYTE_VERTICES
    h = _build(n, {r: [b0[e & 255] + b1[e >> 8 & 255] + b2[e >> 16 & 255] + b3[e >> 24]
                       for e in s] for r, s in levels.items()})
    h.__dict__["_edge_masks"] = {r: frozenset(s) for r, s in levels.items()}
    return h


def validate(n: int, edges: Iterable[Sequence[int]]) -> Hypergraph:
    """Canonicalize raw edge lists into a Hypergraph.

    ``n`` and every vertex are read by ``_read_int``, and each edge must be
    a list or tuple. Each edge is sorted; a repeated vertex inside an edge, a
    vertex outside 1..n, an empty edge, or two edges equal after sorting are
    errors rather than silently merged.
    """
    n = _read_int("n", n)
    if n < 1:
        raise HypergraphError(f"vertex count must be positive, got {n}")
    _check_limits(n)
    edges = list(edges)
    # Int vertices in lists or tuples skip the reader: two type scans in C
    # cost a fraction of a Python check per edge.
    if not (set(map(type, edges)) <= {list, tuple}
            and set(map(type, itertools.chain.from_iterable(edges))) <= {int}):
        for raw in edges:
            if not isinstance(raw, (list, tuple)):
                raise HypergraphError(f"edge must be a list of vertices, got {raw!r}")
        edges = [[_read_int("vertex", v) for v in raw] for raw in edges]
    per_level: dict[int, set[Edge]] = {}
    for raw in edges:
        e = tuple(sorted(raw))
        if len(e) == 0:
            raise HypergraphError("empty edge")
        if len(set(e)) != len(e):
            raise HypergraphError(f"repeated vertex in edge {list(raw)}")
        if e[0] < 1 or e[-1] > n:
            bad = e[0] if e[0] < 1 else e[-1]
            raise HypergraphError(f"vertex {bad} out of range 1..{n} in edge {list(raw)}")
        bucket = per_level.setdefault(len(e), set())
        if e in bucket:
            raise HypergraphError(f"duplicate edge {list(e)} (after canonical sorting)")
        bucket.add(e)
    _check_limits(n, per_level)
    return _build(n, per_level)


def complete(n: int, types: Iterable[int]) -> Hypergraph:
    """The complete hypergraph on [n] with all edges of each cardinality in ``types``."""
    n = _read_int("n", n)
    ts = _read_types("types", types)
    if ts[-1] > n:
        raise HypergraphError(f"max edge type {ts[-1]} exceeds n={n}")
    _check_limits(n)
    return _build(n, {r: list(itertools.combinations(range(1, n + 1), r)) for r in ts})


def vertex_support(h: Hypergraph, r: int) -> frozenset[int]:
    """Vertices covered by at least one r-edge."""
    return frozenset(v for e in h.level_edges(r) for v in e)


def relabel(h: Hypergraph, mapping: Mapping[int, int]) -> Hypergraph:
    """Rename vertices by a bijection of [n] onto itself; each label is read by ``_read_int``."""
    mapping = {_read_int("vertex", u): _read_int("vertex", v) for u, v in mapping.items()}
    vertices = list(range(1, h.n + 1))
    if sorted(mapping) != vertices or sorted(mapping.values()) != vertices:
        raise HypergraphError("relabeling must be a bijection on 1..n")
    return _build(h.n, {r: [tuple(sorted(map(mapping.get, e))) for e in es] for r, es in h.levels})


# ---------------------------------------------------------------------------
# I/O: JSON {"n": ..., "edges": [[...], ...]} and a plain-text format whose
# first line is n, each following nonempty line one edge, '#' starting comments.
# ---------------------------------------------------------------------------


def to_json(h: Hypergraph) -> str:
    return json.dumps({"n": h.n, "edges": [list(e) for e in h.edges()]})


def from_json(text: str) -> Hypergraph:
    try:
        doc = _load_json(text)
    except ValueError as exc:
        raise HypergraphError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or not isinstance(doc.get("edges"), list):
        raise HypergraphError('hypergraph JSON must be {"n": int, "edges": [[...], ...]}')
    if unknown := [repr(k) for k in doc if k not in ("n", "edges")]:
        raise HypergraphError(f"unknown keys: {', '.join(unknown)} (the keys are n and edges)")
    return validate(doc["n"], doc["edges"])


def from_text(text: str) -> Hypergraph:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise HypergraphError("empty hypergraph text")
    if not re.fullmatch(_DIGITS, lines[0]):
        raise HypergraphError(f"first line must be the vertex count, got {lines[0]!r}")
    for ln in lines[1:]:
        if not all(re.fullmatch(_DIGITS, tok) for tok in ln.split()):
            raise HypergraphError(f"bad edge line {ln!r}")
    return validate(int(lines[0]), [[int(tok) for tok in ln.split()] for ln in lines[1:]])


def loads(text: str) -> Hypergraph:
    """Parse either format: JSON starts with ``{`` or ``[``, text with ASCII digits."""
    if text.lstrip().startswith(("{", "[")):
        return from_json(text)
    return from_text(text)


def load(path: str | Path) -> Hypergraph:
    return loads(Path(path).read_text())


def dump(h: Hypergraph, path: str | Path) -> None:
    Path(path).write_text(to_json(h) + "\n")
