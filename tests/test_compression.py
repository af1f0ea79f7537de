import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import hypergraph
from lagrangian_lab.hypergraph import _from_masks
from lagrangian_lab import (
    Coefficients,
    complete,
    eval_L,
    gen_random,
    is_left_compressed,
    left_compress_fixpoint,
    validate,
)

from conftest import compress_edge, compress_hypergraph, compression_potential, random_simplex_point


class TestCompressEdge:
    def test_moves_when_applicable(self):
        assert compress_edge((2, 3), 1, 3) == (1, 2)

    def test_identity_when_i_present(self):
        assert compress_edge((1, 3), 1, 3) == (1, 3)

    def test_identity_when_j_absent(self):
        assert compress_edge((2, 4), 1, 3) == (2, 4)

    def test_output_canonical(self):
        assert compress_edge((3, 4, 5), 1, 4) == (1, 3, 5)


class TestCompressHypergraph:
    def test_single_edge_moves(self):
        h = validate(3, [[2, 3]])
        assert compress_hypergraph(h, 1, 3).edges() == [(1, 2)]

    def test_collision_keeps_edge(self):
        h = validate(3, [[1, 2], [2, 3]])
        assert compress_hypergraph(h, 1, 3) == h

    def test_complete_graph_fixed(self):
        h = complete(3, (2,))
        for i in range(1, 3):
            for j in range(i + 1, 4):
                assert compress_hypergraph(h, i, j) == h


def _brute_force_left_compressed(h):
    """Exhaust all (i, j, e) triples straight from the definition."""
    for r in h.edge_types:
        es = frozenset(h.level_edges(r))
        for e in es:
            for i, j in itertools.combinations(range(1, h.n + 1), 2):
                if j in e and i not in e:
                    moved = tuple(sorted([i] + [v for v in e if v != j]))
                    if moved not in es:
                        return False
    return True


_TYPE_SETS = ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3), (2, 4))

instances = st.builds(
    gen_random,
    n=st.sampled_from(range(1, 10)),
    types=st.sampled_from(_TYPE_SETS),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)


def _tuple_step(h, i, j):
    """The (i <- j) compression of ``h`` from ``compress_edge`` alone; None
    when it moves no edge."""
    edges = []
    for r, es in h.levels:
        existing = frozenset(h.level_edges(r))
        edges.extend(img if (img := compress_edge(e, i, j)) not in existing else e for e in es)
    return None if edges == h.edges() else validate(h.n, edges)


def _reference_fixpoint(h):
    """Try pairs in lexicographic order and restart from (1, 2) after every
    step that changes the graph."""
    while True:
        for i, j in itertools.combinations(range(1, h.n + 1), 2):
            if (nxt := _tuple_step(h, i, j)) is not None:
                h = nxt
                break
        else:
            return h


class TestIsLeftCompressed:
    def test_complete_graphs(self):
        for n, types in [(4, (2,)), (5, (1, 2)), (4, (2, 3))]:
            assert is_left_compressed(complete(n, types))

    def test_single_high_edge(self):
        assert not is_left_compressed(validate(3, [[2, 3]]))

    def test_star_at_one(self):
        h = validate(3, [[1, 2], [1, 3]])
        assert is_left_compressed(h)
        assert _brute_force_left_compressed(h)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_brute_force(self, seed):
        h = gen_random(6, (2, 3), 0.4, seed)
        assert is_left_compressed(h) == _brute_force_left_compressed(h)

    @settings(max_examples=150, deadline=None)
    @given(h=instances)
    def test_agrees_with_brute_force_on_mixed_types(self, h):
        assert is_left_compressed(h) == _brute_force_left_compressed(h)


def _shift_one_edge_right(h, data):
    """``h`` with one edge moved one step right (v -> v + 1) into a free slot of
    its level; None when no edge can move."""
    existing = {r: frozenset(h.level_edges(r)) for r in h.edge_types}
    moves = [(e, img) for r, es in h.levels for e in es for v in e
             if v < h.n and v + 1 not in e
             and (img := tuple(sorted(set(e) - {v} | {v + 1}))) not in existing[r]]
    if not moves:
        return None
    e, img = data.draw(st.sampled_from(moves))
    return validate(h.n, [img if x == e else x for x in h.edges()])


class TestUnitShiftLemma:
    @settings(max_examples=150, deadline=None)
    @given(h=st.builds(
        gen_random,
        n=st.integers(2, 10),
        types=st.sampled_from(_TYPE_SETS),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    ), data=st.data())
    def test_near_compressed(self, h, data):
        """One right shift of a fixpoint edge leaves its unit shift's image
        missing, so the unit-shift check and the oracle both reject it."""
        fp = left_compress_fixpoint(h)
        assert is_left_compressed(fp) and _brute_force_left_compressed(fp)
        if (near := _shift_one_edge_right(fp, data)) is not None:
            assert not is_left_compressed(near)
            assert not _brute_force_left_compressed(near)

    @settings(max_examples=60, deadline=None)
    @given(h=st.builds(
        gen_random,
        n=st.integers(1, 24),
        types=st.sampled_from(_TYPE_SETS),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    ))
    def test_masks_round_trip(self, h):
        assert _from_masks(h.n, {r: h.edge_masks(r) for r in h.edge_types}) == h


class TestFixpoint:
    def test_single_edge(self):
        assert left_compress_fixpoint(validate(3, [[2, 3]])).edges() == [(1, 2)]

    def test_idempotent_on_compressed(self):
        h = validate(3, [[1, 2], [1, 3]])
        assert left_compress_fixpoint(h) == h

    def test_k4_missing_bottom_triple(self):
        h = validate(4, [[1, 2, 4], [1, 3, 4], [2, 3, 4]])
        fp = left_compress_fixpoint(h)
        assert sorted(fp.edges()) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fixpoint_properties(self, seed):
        h = gen_random(6, (1, 2, 3), 0.45, seed)
        fp = left_compress_fixpoint(h)
        assert is_left_compressed(fp)
        for r in set(h.edge_types) | set(fp.edge_types):
            assert fp.num_edges(r) == h.num_edges(r)
        assert compression_potential(fp) <= compression_potential(h)

    @settings(max_examples=150, deadline=None)
    @given(h=instances)
    def test_matches_restarting_pair_sweep(self, h):
        assert left_compress_fixpoint(h) == _reference_fixpoint(h)

    @settings(max_examples=4, deadline=None)
    @given(h=st.builds(
        gen_random,
        n=st.integers(10, 12),
        types=st.sampled_from(((2, 3, 4), (1, 2, 3), (3, 4))),
        density=st.floats(0.3, 0.7),
        seed=st.integers(0, 10_000),
    ))
    def test_matches_restarting_pair_sweep_at_churn_size(self, h):
        assert left_compress_fixpoint(h) == _reference_fixpoint(h)

    def test_seeded_n24(self):
        h = gen_random(24, (2, 3), 0.5, 1)
        fp = left_compress_fixpoint(h)
        assert _brute_force_left_compressed(fp)
        assert not _brute_force_left_compressed(h)
        assert [fp.num_edges(r) for r in (2, 3)] == [h.num_edges(r) for r in (2, 3)]
        assert compression_potential(fp) < compression_potential(h)

    def test_builds_one_graph_per_fixpoint(self, monkeypatch):
        built = []

        def spy(n, per_level, build=hypergraph._build):
            built.append(n)
            return build(n, per_level)

        graphs = [gen_random(8, types, 0.5, seed) for seed, types in enumerate(_TYPE_SETS)]
        monkeypatch.setattr(hypergraph, "_build", spy)
        for count, h in enumerate(graphs, 1):
            left_compress_fixpoint(h)
            assert len(built) == count


def _encoded(h):
    """Each level's masks (bit v for vertex v), encoded from its edge tuples."""
    return {r: frozenset(sum(1 << v for v in e) for e in h.level_edges(r)) for r in h.edge_types}


# Vertex 24 sits in the top byte of a mask.
_N24_CASES = (validate(24, [[24], [23, 24], [1, 24]]), gen_random(24, (2, 3), 0.5, 1),
              complete(24, (1, 2)))


class TestMaskView:
    """The fixpoint's graph keeps the masks it was decoded from as its mask view."""

    def check_fixpoint(self, h):
        view = {r: h.edge_masks(r) for r in h.edge_types}
        assert view == _encoded(h)
        g = left_compress_fixpoint(h)
        assert {r: g.edge_masks(r) for r in g.edge_types} == _encoded(g)
        assert is_left_compressed(g) == is_left_compressed(validate(g.n, g.edges()))
        assert {r: h.edge_masks(r) for r in h.edge_types} == view == _encoded(h)
        return g

    @settings(max_examples=150, deadline=None)
    @given(h=instances)
    def test_fixpoint_view_matches_edges(self, h):
        self.check_fixpoint(h)

    def test_fixpoint_view_at_n24(self):
        fixed = [self.check_fixpoint(h) for h in _N24_CASES]
        assert fixed[0] == validate(24, [[1], [1, 2], [1, 3]])
        assert fixed[2] == _N24_CASES[2]
        assert all(any(24 in e for e in g.edges()) for g in fixed[1:])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_edge_count_conservation_and_potential(seed):
    rng = random.Random(seed)
    h = gen_random(6, (2, 3), 0.5, seed)
    i = rng.randint(1, 5)
    j = rng.randint(i + 1, 6)
    out = compress_hypergraph(h, i, j)
    for r in h.edge_types:
        assert out.num_edges(r) == h.num_edges(r)
    if out != h:
        assert compression_potential(out) < compression_potential(h)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_objective_never_drops_at_sorted_points(seed):
    """A compression step cannot lower the objective at any weighting whose
    entries are nonincreasing in the vertex label."""
    rng = random.Random(seed)
    h = gen_random(6, (1, 2, 3), 0.5, seed)
    if not h.edge_types:
        return
    coeffs = Coefficients.ones(h.edge_types)
    x = sorted(random_simplex_point(rng, 6), reverse=True)
    i = rng.randint(1, 5)
    j = rng.randint(i + 1, 6)
    before = eval_L(h, coeffs, x)
    after = eval_L(compress_hypergraph(h, i, j), coeffs, x)
    assert after >= before - 1e-12


def test_objective_at_random_points_observational():
    """At unsorted random weightings the monotonicity can genuinely fail;
    log the observed rate without failing the suite."""
    rng = random.Random(7)
    violations = 0
    total = 0
    for _ in range(100):
        h = gen_random(5, (2,), 0.5, rng.randrange(10**6))
        if not h.edge_types:
            continue
        coeffs = Coefficients.ones(h.edge_types)
        x = random_simplex_point(rng, 5)
        i = rng.randint(1, 4)
        j = rng.randint(i + 1, 5)
        total += 1
        if eval_L(compress_hypergraph(h, i, j), coeffs, x) < eval_L(h, coeffs, x) - 1e-12:
            violations += 1
    print(f"\nrandom-point compression monotonicity violations: {violations}/{total}")
    assert total > 0
