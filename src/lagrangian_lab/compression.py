"""Left-compression of hypergraph edge families.

S_ij (i < j) replaces j by i in each edge holding j but not i whose image is
not already in its level, so level sizes are kept; F is (a, b)-stable when
S_ab moves none of its edges. Pass lemma: if F is stable for every pair before
(i, j) in lexicographic order, S_ij(F) is stable for every pair up to (i, j).
For f in S_ij(F) holding b but not a (so a < j), g = f - b + a is in S_ij(F):
- b = j: moved edges lack j, so f is in F and stayed; g is in F (a = i, or
  (a, j)-stability) and lacks j, so it stays.
- b = i, a < i: (a, i)-stability of f, or (a, j)-stability of its preimage,
  puts g in F; g lacks j, or its image f - j + a is in F, so g stays.
- a = i, b < j: f lacks i, so is in F; (i, b)-stability puts g in F; g holds i.
- {a, b} disjoint from {i, j}: use (a, b)-stability on f and on f - j + i.
So one lexicographic pass of every S_ij gives the fixpoint of applying the
first pair that moves an edge until none does: that loop's pairs increase,
and each pair it skips is a no-op. S_ij maps each level into itself, so the
pass runs one level at a time. Levels are read from the hypergraph's mask view
(``Hypergraph.edge_masks``: bit v for vertex v), stay int bitmasks through the
pass, and are written back into the one graph that is built, as its mask view.

Unit-shift lemma: F is (i, j)-stable for every i < j iff it is
(v - 1, v)-stable for every v >= 2. By induction on j - i, take e in F with
j in e and i not in e. If j - 1 is not in e, e' = e - j + (j - 1) is in F by
the unit shift, and (i, j - 1)-stability of e' puts e - j + i in F. If
j - 1 is in e, (i, j - 1)-stability puts f = e - (j - 1) + i in F, and the
unit shift j -> j - 1 of f is e - j + i.
"""

from __future__ import annotations

import itertools

from .hypergraph import Hypergraph, _from_masks


def _masks(h: Hypergraph) -> dict[int, set[int]]:
    return {r: set(h.edge_masks(r)) for r in h.edge_types}


def _compress(levels: dict[int, set[int]], pairs) -> dict[int, set[int]]:
    """Apply S_ij for each (i, j) of ``pairs`` in turn, one level at a time, in place."""
    steps = [(1 << j, 1 << i | 1 << j) for i, j in pairs]
    for s in levels.values():
        for bj, m in steps:
            if moved := {e for e in s if e & m == bj and e ^ m not in s}:
                s -= moved  # images are never in s, so this is s - moved | images
                s |= {e ^ m for e in moved}
    return levels


def is_left_compressed(h: Hypergraph) -> bool:
    """True iff no S_ij (i < j) moves an edge. Checks the unit shifts S_{v-1,v}
    only, which suffices by the module's unit-shift lemma: at most r lookups per r-edge."""
    for s in map(h.edge_masks, h.edge_types):
        for e in s:
            free = e & ~(e << 1) & ~3  # vertices v >= 2 of e with v - 1 not in e
            while free:
                b = free & -free
                if e ^ b ^ (b >> 1) not in s:
                    return False
                free ^= b
    return True


def left_compress_fixpoint(h: Hypergraph) -> Hypergraph:
    """Apply S_ij once for each pair i < j in lexicographic order.

    By the module's pass lemma the result is stable for every pair and is the
    restarting loop's fixpoint; label sums never rise on the way.
    """
    return _from_masks(h.n, _compress(_masks(h), itertools.combinations(range(1, h.n + 1), 2)))
