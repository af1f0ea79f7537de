"""Exact maximum complete T-subgraph search.

Completeness for a type set T is hereditary (every subset of a complete set
is complete), so one depth-first search over vertices in increasing label
order is exact; instances are desk-scale by design, so there is no
approximate fallback.

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
sets. One search also settles uniqueness: after a new best the floor is
|best|, so a later set of that size is found, and after such a tie it is
|best| + 1. A floor of at most k cuts no k-set, so best stays the first
maximum set; a k-prefix of a longer set is a tie only until that set is
found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .hypergraph import Hypergraph, _check_limits


@dataclass(frozen=True)
class CliqueResult:
    vertices: tuple[int, ...]
    is_unique_max: bool

    @property
    def order(self) -> int:
        return len(self.vertices)


class _Search:
    """The start mask and link tables of one (hypergraph, type set) pair."""

    def __init__(self, h: Hypergraph, types: Iterable[int]):
        ts = sorted(set(types))
        if not ts or ts[0] < 1:
            raise ValueError(f"edge types must be a nonempty set of positive ints, got {ts}")
        _check_limits(0, ts)
        self.start = h.link_table(1).get(0, 0) if ts[0] == 1 else (1 << (h.n + 1)) - 2
        self.pairs = h.link_table(2) if 2 in ts else None
        self.triples = h.link_table(3) if 3 in ts else None
        self.links = [(r - 2, h.link_table(r)) for r in ts if r > 3]

    def complete_sets(self, floor: int) -> Iterator[tuple[int, ...]]:
        """Complete sets of at least ``self.floor`` vertices, in lexicographic
        order. Branches that cannot reach the floor are cut; it starts at
        ``floor`` and the caller may raise it between two sets."""
        self.floor = floor
        pairs, triples, links = self.pairs, self.triples, self.links

        def grow(members: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
            while cand and len(members) + cand.bit_count() >= self.floor:
                bit = cand & -cand
                cand ^= bit
                nxt = cand
                if pairs is not None:
                    nxt &= pairs.get(bit, 0)
                if triples is not None:
                    for m in members:
                        nxt &= triples.get(m | bit, 0)
                for size, table in links:
                    for sub in combinations(members, size):
                        nxt &= table.get(sum(sub) | bit, 0)
                grown = members + (bit,)
                if len(grown) >= self.floor:
                    yield tuple(b.bit_length() - 1 for b in grown)
                yield from grow(grown, nxt)

        return grow((), self.start)


def max_complete_subgraph(h: Hypergraph, types: Iterable[int]) -> CliqueResult:
    """Largest vertex set complete for ``types``, lexicographically smallest on ties."""
    search = _Search(h, types)
    best: tuple[int, ...] = ()
    unique = True
    for found in search.complete_sets(1):
        unique = len(found) > len(best)
        if unique:
            best = found
        search.floor = len(best) + (not unique)
    return CliqueResult(best, unique)


def contains_complete(h: Hypergraph, t: int, types: Iterable[int]) -> bool:
    """Whether some t-subset is complete for ``types``; t = 0 is vacuously true."""
    if t <= 0:
        return True
    return next(_Search(h, types).complete_sets(t), None) is not None
