"""Left-compression of hypergraph edge families.

Compressing an edge toward a smaller vertex (replace j by i, i < j, when i
is absent and j present) never changes edge cardinalities, and the family
operator moves an edge only when its image is not already present, so
per-level edge counts are conserved. The fixpoint applies the
lexicographically first pair that moves an edge, until none does; it
terminates because the vertex-label sum strictly drops on every such step.
"""

from __future__ import annotations

import itertools

from .hypergraph import Edge, Hypergraph, _build


def compress_edge(e: Edge, i: int, j: int) -> Edge:
    """Image of one edge under the (i <- j) compression; identity when it does not apply."""
    if i >= j:
        raise ValueError(f"compression requires i < j, got i={i}, j={j}")
    if j in e and i not in e:
        return tuple(sorted([i] + [v for v in e if v != j]))
    return tuple(e)


def compress_hypergraph(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Apply the (i <- j) compression to every level of ``h``.

    An edge moves to its image unless the image already exists in its level,
    in which case it stays; the per-level edge count is preserved.
    """
    if i >= j:
        raise ValueError(f"compression requires i < j, got i={i}, j={j}")
    if j > h.n or i < 1:
        raise ValueError(f"compression pair ({i},{j}) out of range 1..{h.n}")
    per_level: dict[int, list[Edge]] = {}
    for r, es in h.levels:
        existing = h.edge_set(r)
        new_edges = []
        for e in es:
            img = compress_edge(e, i, j)
            new_edges.append(e if (img != e and img in existing) else img)
        per_level[r] = new_edges
    return _build(h.n, per_level)


def _movable_pair(h: Hypergraph) -> tuple[int, int] | None:
    """The lexicographically first pair (i, j), i < j, for which some edge
    containing j but not i has an image missing from its level; None when
    no pair moves an edge."""
    for i, j in itertools.combinations(range(1, h.n + 1), 2):
        for r in h.edge_types:
            es = h.edge_set(r)
            if any(j in e and i not in e and compress_edge(e, i, j) not in es for e in es):
                return i, j
    return None


def is_left_compressed(h: Hypergraph) -> bool:
    """True iff every edge containing j but not i (i < j) maps to an existing edge."""
    return _movable_pair(h) is None


def left_compress_fixpoint(h: Hypergraph) -> Hypergraph:
    """Apply the lexicographically first pair that moves an edge, until none does.

    The deterministic order makes outputs reproducible, and only steps that
    move an edge build a graph. Terminates because the label-sum potential
    is a strictly decreasing nonnegative integer across effective steps.
    """
    while (pair := _movable_pair(h)) is not None:
        h = compress_hypergraph(h, *pair)
    return h
