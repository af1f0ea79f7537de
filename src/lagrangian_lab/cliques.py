"""Exact maximum complete T-subgraph search.

Completeness for a type set T is hereditary (every subset of a complete set
is complete), so one depth-first search over vertices in increasing label
order is exact; instances are desk-scale by design, so there is no
approximate fallback. The search is one function, ``_search``; it reads T
as ``_readers`` reads an edge-type set.

Vertex sets are integer bitmasks (bit v for vertex v). Every search on an
instance reads the link tables the instance keeps (``Hypergraph.link_table``:
per level r, the mask of each (r-1)-set maps to the mask of the vertices that
complete it to an r-edge). The search keeps, next to the complete set C, the
candidate mask of vertices u above max(C) with C + {u} complete (at the root:
every vertex, or level 1's entry for the empty mask when 1 is in T).
When v joins C, the new candidates are the old ones u above v such that
T + {v, u} is an r-edge for every level r and every (r-2)-subset T of C: these
are the only r-subsets of C + {v, u} not already known to be edges. So level
2 is one lookup (v's entry), level 3 one lookup per member c of C (the entry
of {c, v}), and only a level r >= 4 enumerates the (r-2)-subsets of C. A
branch is cut as soon as |C| plus the number of candidates cannot reach the
size sought. Visiting candidates in increasing label order enumerates
complete sets in lexicographic order, which fixes the tie-break among maximum
sets. The search hands each complete set of at least the floor's size to
a callback, which returns the next floor. So one search also settles
uniqueness: after a new best the floor is |best|, so a later set of that
size is found, and after such a tie it is |best| + 1. A floor of at most k
cuts no k-set, so best stays the first maximum set; a k-prefix of a longer
set is a tie only until that set is found. ``contains_complete`` returns a
floor above n at its first t-set, which no branch can reach: the search ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from ._readers import _read_int, _read_types
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class CliqueResult:
    vertices: tuple[int, ...]
    is_unique_max: bool

    @property
    def order(self) -> int:
        return len(self.vertices)


def _search(h: Hypergraph, types: Iterable[int], floor: int,
            found: Callable[[tuple[int, ...]], int]) -> None:
    """Call ``found`` on the member bits of each complete set of at least
    ``floor`` vertices, in lexicographic order; it returns the new floor.
    Branches that cannot reach the floor are cut."""
    ts = _read_types("types", types)
    start = h.link_table(1).get(0, 0) if ts[0] == 1 else (1 << (h.n + 1)) - 2
    # Each table's bound ``get``, looked up once per search rather than once per probe.
    pairs = h.link_table(2).get if 2 in ts else None
    triples = h.link_table(3).get if 3 in ts else None
    links = [(r - 2, h.link_table(r).get) for r in ts if r > 3]

    def grow(members: tuple[int, ...], cand: int) -> None:
        nonlocal floor
        while cand and len(members) + cand.bit_count() >= floor:
            bit = cand & -cand
            cand ^= bit
            nxt = cand
            if pairs is not None:
                nxt &= pairs(bit, 0)
            if triples is not None:
                for m in members:
                    nxt &= triples(m | bit, 0)
            for size, link in links:
                for sub in combinations(members, size):
                    nxt &= link(sum(sub) | bit, 0)
            grown = members + (bit,)
            if len(grown) >= floor:
                floor = found(grown)
            grow(grown, nxt)

    grow((), start)


def max_complete_subgraph(h: Hypergraph, types: Iterable[int]) -> CliqueResult:
    """Largest vertex set complete for ``types``, lexicographically smallest on ties."""
    best: tuple[int, ...] = ()
    unique = True

    def found(bits: tuple[int, ...]) -> int:
        nonlocal best, unique
        unique = len(bits) > len(best)
        if unique:
            best = bits
        return len(best) + (not unique)

    _search(h, types, 1, found)
    return CliqueResult(tuple(b.bit_length() - 1 for b in best), unique)


def contains_complete(h: Hypergraph, t: int, types: Iterable[int]) -> bool:
    """Whether some t-subset is complete for ``types``; t = 0 is vacuously true."""
    t = _read_int("t", t)
    if t <= 0:
        return True
    hits: list[tuple[int, ...]] = []
    _search(h, types, t, lambda bits: hits.append(bits) or h.n + 1)
    return bool(hits)
