import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import (
    CliqueResult,
    Hypergraph,
    HypergraphError,
    SolverConfig,
    cliques,
    complete,
    contains_complete,
    gen_planted,
    gen_random,
    max_complete_subgraph,
    validate,
    verify,
    with_singletons,
)

from conftest import brute_force_max_complete


def five_cycle():
    return validate(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])


class TestMaxCompleteSubgraph:
    def test_complete_graph(self):
        res = max_complete_subgraph(complete(5, (2,)), (2,))
        assert res.order == 5 and res.vertices == (1, 2, 3, 4, 5)

    def test_five_cycle(self):
        res = max_complete_subgraph(five_cycle(), (2,))
        size, _ = brute_force_max_complete(five_cycle(), (2,))
        assert res.order == size == 2

    def test_with_isolated_vertex(self):
        h = validate(5, complete(4, (1, 2, 3)).edges())
        res = max_complete_subgraph(h, (1, 2, 3))
        assert res.order == 4 and res.vertices == (1, 2, 3, 4)

    def test_singleton_gate(self):
        # vertices without their singleton cannot join a {1,2}-complete set
        h = validate(3, [[1], [2], [1, 2], [1, 3], [2, 3]])
        res = max_complete_subgraph(h, (1, 2))
        assert res.order == 2 and res.vertices == (1, 2)

    def test_lexicographic_tie_break(self):
        h = validate(4, [[1, 2], [3, 4]])
        res = max_complete_subgraph(h, (2,))
        assert res.vertices == (1, 2)
        assert not res.is_unique_max

    def test_uniqueness_flag(self):
        assert max_complete_subgraph(complete(3, (2,)), (2,)).is_unique_max

    @pytest.mark.parametrize("h, types, vertices, unique", [
        # (1, 2) is met before the K4's prefix (2, 3), which is no tie: (2, 3, 4) follows.
        (validate(5, [[1, 2], *itertools.combinations(range(2, 6), 2)]), (2,), (2, 3, 4, 5), True),
        # The tie (5, 6, 7) is found after (3, 4, 5) became best.
        (validate(7, [[1, 2], *itertools.combinations((3, 4, 5), 2),
                      *itertools.combinations((5, 6, 7), 2)]), (2,), (3, 4, 5), False),
        (gen_planted("random-lc", {"n": 24}, seed=1), (2, 3), tuple(range(1, 11)), False),
        (gen_random(24, (2, 3, 4), 0.9, 1), (2, 3, 4), (2, 5, 8, 12, 14, 18, 23, 24), True),
        # Vertex 24 on every level 2..6: the top of the packed link-table keys.
        (validate(24, [c for r in range(2, 7) for c in itertools.combinations(range(19, 25), r)]),
         (2, 3, 4, 5, 6), tuple(range(19, 25)), True),
    ], ids=["prefix-not-a-tie", "tie-after-reset", "random-lc-24", "random-24-dense", "top-six-24"])
    def test_ties_found_in_one_search(self, h, types, vertices, unique):
        res = max_complete_subgraph(h, types)
        assert res == CliqueResult(vertices, unique)

    def test_empty_types_rejected(self):
        with pytest.raises(ValueError):
            max_complete_subgraph(complete(3, (2,)), ())

    @pytest.mark.parametrize("types", [(0,), (0, 2), (-1, 3)])
    def test_nonpositive_types_rejected(self, types):
        message = "types must be a nonempty list of positive integers"
        with pytest.raises(HypergraphError, match=message):
            max_complete_subgraph(complete(3, (2,)), types)
        with pytest.raises(HypergraphError, match=message):
            contains_complete(complete(3, (2,)), 9, types)

    @pytest.mark.parametrize("types", [(7,), (2, 7)])
    def test_types_past_soft_limit_rejected(self, types):
        # No 7-edge passes validate, so such a type could never be complete.
        h = validate(24, [[24], [23, 24], [1, 24]])
        with pytest.raises(HypergraphError, match="edge type 7 exceeds the soft limit 6"):
            max_complete_subgraph(h, types)
        with pytest.raises(HypergraphError, match="edge type 7 exceeds the soft limit 6"):
            contains_complete(h, 2, types)

    def test_no_singletons_order_zero(self):
        h = validate(3, [[1, 2]])
        assert max_complete_subgraph(h, (1, 2)).order == 0


class TestContainsComplete:
    def test_planted_clique(self):
        h = validate(5, complete(4, (3,)).edges() + [[1, 2, 5], [3, 4, 5]])
        assert contains_complete(h, 4, (3,))

    def test_five_cycle_has_no_triangle(self):
        assert not contains_complete(five_cycle(), 3, (2,))

    def test_vacuous_zero(self):
        assert contains_complete(five_cycle(), 0, (2,))

    def test_too_large(self):
        assert not contains_complete(complete(4, (2,)), 5, (2,))

    def test_stops_at_first_set(self):
        # On K24 the first triangle is {1, 2, 3}: one level-2 lookup per vertex, then no more.
        class CountingDict(dict):
            lookups = 0

            def get(self, key, default=None):
                self.lookups += 1
                return super().get(key, default)

        h = complete(24, (2,))
        table = h._link_tables[2] = CountingDict(h.link_table(2))
        assert contains_complete(h, 3, (2,))
        assert table.lookups == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_agreement_with_brute_force(seed):
    rng = random.Random(seed)
    types = rng.choice([(2,), (1, 2), (2, 3), (3,), (1, 2, 3)])
    n = rng.randint(max(types), 9)
    h = gen_random(n, types, rng.uniform(0.2, 0.9), seed)
    res = max_complete_subgraph(h, types)
    size, _ = brute_force_max_complete(h, types)
    assert res.order == size
    assert contains_complete(h, size, types)
    assert not contains_complete(h, size + 1, types)


@pytest.mark.parametrize("n", range(2, 13))
def test_complete_family_order(n):
    types = (1, 2) if n % 2 == 0 else (2,)
    assert max_complete_subgraph(complete(n, types), types).order == n


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_under_edge_addition(seed):
    rng = random.Random(seed)
    h = gen_random(6, (2,), 0.4, seed)
    before = max_complete_subgraph(h, (2,)).order
    missing = [
        (i, j)
        for i in range(1, 6)
        for j in range(i + 1, 7)
        if not h.has_edge((i, j))
    ]
    if not missing:
        return
    bigger = validate(6, h.edges() + [list(rng.choice(missing))])
    assert max_complete_subgraph(bigger, (2,)).order >= before


def _oracle(h, types):
    """Every vertex subset checked against ``h.edges()``: the complete sets
    by size, smallest first, each size in lexicographic order."""
    edges = set(h.edges())
    by_size = [[] for _ in range(h.n + 1)]
    for size in range(h.n + 1):
        for s in itertools.combinations(range(1, h.n + 1), size):
            if all(c in edges for r in types if r <= size for c in itertools.combinations(s, r)):
                by_size[size].append(s)
    return by_size


@st.composite
def instances_and_types(draw):
    """n <= 9, edges on up to three of the levels 1..5 at random densities,
    and a type set that may name levels the instance lacks, include 1, or
    exceed n."""
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = []
    for r in sorted(draw(st.sets(st.integers(1, 5), max_size=3))):
        density = draw(st.sampled_from((0.3, 0.6, 0.85, 1.0)))
        edges += [c for c in itertools.combinations(range(1, n + 1), r) if rng.random() < density]
    h = validate(n, edges)
    types = draw(st.one_of(
        st.just(h.edge_types) if h.edge_types else st.nothing(),
        st.sets(st.integers(1, 6), min_size=1, max_size=3).map(lambda s: tuple(sorted(s))),
    ))
    return h, types


@settings(max_examples=300, deadline=None)
@given(case=instances_and_types())
def test_matches_subset_oracle(case):
    h, types = case
    by_size = _oracle(h, types)
    order = max(size for size, sets in enumerate(by_size) if sets)
    res = max_complete_subgraph(h, types)
    assert res.order == order
    assert res.vertices == by_size[order][0]
    assert res.is_unique_max == (len(by_size[order]) == 1)
    for t in range(h.n + 2):
        expected = t == 0 or (t <= h.n and bool(by_size[t]))
        assert contains_complete(h, t, types) == expected


@pytest.fixture
def table_builds(monkeypatch):
    """Counts, per (instance id, level), the link tables built: the reads of
    a level's edges, as tuples or as an array, made by the clique code or by
    ``Hypergraph.link_table``."""
    builds: Counter = Counter()
    alive = []  # keeps every counted instance, so no id is reused

    def spy_on(read):
        def spy(self, r):
            caller = sys._getframe(1).f_code
            if caller.co_name == "link_table" or caller.co_filename == cliques.__file__:
                builds[id(self), r] += 1
                alive.append(self)
            return read(self, r)
        return spy

    for name in ("level_edges", "edge_array"):
        monkeypatch.setattr(Hypergraph, name, spy_on(getattr(Hypergraph, name)))
    return builds


def test_link_tables_built_once_per_instance_and_level(table_builds):
    # MIXED_T10c on a covered order-4 clique: two contains_complete and one
    # max_complete_subgraph in the checker, one more for the warm start.
    # The t6a instance is also searched by its generator's hypothesis check.
    mixed = with_singletons(gen_planted("ptz", {"t": 4}, seed=5))
    pair = gen_planted("t6a", {"t": 4}, seed=1)
    for theorem, h in (("MIXED_T10c", mixed), ("TWO_R_T6a", pair)):
        verdict = verify(theorem, h, {"t": 4}, SolverConfig(starts=2))
        assert verdict.passed and verdict.solver is not None
    assert set(table_builds.values()) == {1}
    assert {(id(mixed), 1), (id(mixed), 3), (id(pair), 2), (id(pair), 3)} <= set(table_builds)


def test_search_builds_only_its_own_levels(table_builds):
    h = gen_random(7, (1, 2, 3), 0.7, seed=3)
    contains_complete(h, 3, (3,))
    assert table_builds == {(id(h), 3): 1}
    max_complete_subgraph(h, (2, 3))
    max_complete_subgraph(h, (1, 3))
    assert table_builds == {(id(h), 1): 1, (id(h), 2): 1, (id(h), 3): 1}
