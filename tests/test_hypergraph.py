import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangian_lab import cli
from lagrangian_lab import hypergraph as hypergraph_module
from lagrangian_lab import objective as objective_module
from lagrangian_lab import optimizer as optimizer_module
from lagrangian_lab import (
    Coefficients,
    Hypergraph,
    HypergraphError,
    SolverConfig,
    closed_form_exact,
    complete,
    contains_complete,
    from_json,
    from_text,
    gen_planted,
    gen_random,
    grid_oracle,
    left_compress_fixpoint,
    loads,
    max_complete_subgraph,
    maximize,
    rational_uniform,
    relabel,
    to_json,
    uniform_weights,
    validate,
    vertex_support,
)

from conftest import is_complete_on, level, reference_link_table, to_text


class TestValidate:
    def test_basic_construction(self):
        h = validate(3, [[1, 2], [1, 2, 3]])
        assert h.edge_types == (2, 3)
        assert h.num_edges(2) == 1 and h.num_edges(3) == 1

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(HypergraphError, match="duplicate"):
            validate(3, [[1, 2], [2, 1]])

    def test_vertex_out_of_range(self):
        with pytest.raises(HypergraphError, match="out of range"):
            validate(2, [[1, 3]])

    def test_empty_edge_rejected(self):
        with pytest.raises(HypergraphError, match="empty edge"):
            validate(3, [[]])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(HypergraphError, match="repeated vertex"):
            validate(3, [[1, 1]])

    def test_soft_limits(self):
        with pytest.raises(HypergraphError, match="soft limit"):
            validate(25, [[1, 2]])
        with pytest.raises(HypergraphError, match="soft limit"):
            validate(10, [[1, 2, 3, 4, 5, 6, 7]])

    def test_isolated_vertices_allowed(self):
        h = validate(5, [[1, 2]])
        assert h.n == 5


class TestComplete:
    @pytest.mark.parametrize(
        "n,types,count",
        [(3, (1, 2), 6), (4, (2, 3), 10), (5, (1, 2, 3), 25)],
    )
    def test_edge_counts(self, n, types, count):
        assert complete(n, types).num_edges() == count

    def test_max_type_exceeds_n(self):
        with pytest.raises(HypergraphError):
            complete(2, (3,))

    def test_complete_is_complete_everywhere(self):
        for n in range(1, 9):
            for size in range(1, 5):
                for types in itertools.combinations((1, 2, 3, 4), size):
                    if max(types) > n:
                        continue
                    h = complete(n, types)
                    assert validate(h.n, h.edges()) == h
                    assert is_complete_on(h, range(1, n + 1), types)


class TestLevel:
    def test_level_two_of_k4(self):
        h = complete(4, (2, 3))
        lvl = level(h, 2)
        assert lvl.num_edges() == 6 and lvl.edge_types == (2,)
        assert lvl.n == h.n

    def test_empty_level(self):
        assert level(complete(4, (2, 3)), 1).num_edges() == 0

    def test_level_three_singleton(self):
        h = validate(3, [[1, 2], [1, 2, 3]])
        assert level(h, 3).edges() == [(1, 2, 3)]

    def test_reassembly(self):
        h = validate(5, [[1], [1, 2], [2, 3], [1, 2, 3], [3, 4, 5]])
        pieces = [e for r in h.edge_types for e in level(h, r).edges()]
        assert validate(h.n, pieces) == h


class TestVertexSupport:
    def test_partial_support(self):
        h = validate(5, [[1, 2], [1, 3], [2, 3]])
        assert vertex_support(h, 2) == {1, 2, 3}

    def test_empty_level_support(self):
        assert vertex_support(complete(4, (2,)), 3) == frozenset()

    def test_complete_support_is_everything(self):
        h = complete(4, (2, 3))
        assert vertex_support(h, 3) == {1, 2, 3, 4}
        for r in (2, 3):
            assert vertex_support(h, r) == frozenset(range(1, 5))


class TestIsCompleteOn:
    def test_complete_subset(self):
        assert is_complete_on(complete(4, (2, 3)), {1, 2, 3}, (2, 3))

    def test_missing_edge(self):
        h = validate(3, [[1, 3], [2, 3]])
        assert not is_complete_on(h, {1, 2}, (2,))

    def test_vacuous_empty_set(self):
        assert is_complete_on(validate(3, [[1, 2]]), set(), (2,))

    def test_types_larger_than_set_ignored(self):
        h = validate(4, [[1, 2]])
        assert is_complete_on(h, {1, 2}, (2, 3))


def test_relabel_roundtrip():
    h = validate(4, [[1, 2], [2, 3, 4]])
    mapping = {1: 4, 2: 3, 3: 2, 4: 1}
    back = {v: k for k, v in mapping.items()}
    assert relabel(relabel(h, mapping), back) == h
    assert relabel(h, mapping).has_edge([3, 4])


def test_relabel_requires_bijection():
    h = validate(3, [[1, 2]])
    with pytest.raises(HypergraphError):
        relabel(h, {1: 1, 2: 1, 3: 3})


class TestIO:
    def test_json_roundtrip(self):
        h = complete(4, (1, 3))
        assert from_json(to_json(h)) == h

    def test_text_roundtrip(self):
        h = validate(4, [[1], [2, 4], [1, 3, 4]])
        assert from_text(to_text(h)) == h

    def test_text_comments_and_blanks(self):
        text = "4\n# a comment\n1 2\n\n3 4  # trailing\n"
        h = from_text(text)
        assert h.num_edges() == 2 and h.has_edge([3, 4])

    def test_sniffing(self):
        h = complete(3, (2,))
        assert loads(to_json(h)) == h
        assert loads(to_text(h)) == h

    def test_malformed_json(self):
        with pytest.raises(HypergraphError):
            from_json("{not json")
        with pytest.raises(HypergraphError):
            from_json('{"n": 3}')

    def test_unknown_json_key_named(self):
        doc = '{"n": 4, "edges": [[1, 2]], "egdes": [[2, 3]]}'
        with pytest.raises(HypergraphError, match=r"unknown keys: 'egdes' \(the keys are n and"):
            from_json(doc)

    def test_json_array_read_as_json(self):
        # Text input starts with its vertex count, so a leading '[' is JSON.
        with pytest.raises(HypergraphError, match="hypergraph JSON must be"):
            loads(" [[1, 2], [2, 3]]")

    def test_malformed_text(self):
        with pytest.raises(HypergraphError):
            from_text("x\n1 2\n")
        with pytest.raises(HypergraphError):
            from_text("")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_graphs_roundtrip_and_reassemble(seed):
    h = gen_random(6, (1, 2, 3), 0.5, seed)
    assert from_json(to_json(h)) == h
    pieces = [e for r in h.edge_types for e in level(h, r).edges()]
    assert validate(h.n, pieces) == h
    for r in h.edge_types:
        assert vertex_support(h, r) <= frozenset(range(1, h.n + 1))


def test_hashable_and_equal():
    a = validate(3, [[1, 2], [1, 2, 3]])
    b = validate(3, [[1, 2, 3], [2, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != validate(3, [[1, 2]])
    assert isinstance(a, Hypergraph)


class TestHashAndIndexes:
    """The hash and the per-level edge sets are computed once per instance."""

    def routes(self):
        h = validate(5, [[1, 2], [2, 3, 4], [5], [1, 4, 5]])
        mapping = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
        inverse = {v: k for k, v in mapping.items()}
        shuffled = validate(5, [[5, 4, 1], [5], [4, 3, 2], [2, 1]])
        return h, [shuffled, relabel(relabel(h, mapping), inverse), from_json(to_json(h))]

    def test_equal_instances_share_hash_and_key(self):
        h, others = self.routes()
        table = {h: "h"}
        for other in others:
            assert other is not h and other == h
            assert hash(other) == hash(h) == hash((h.n, h.levels))
            assert table[other] == "h"
        assert len({h, *others}) == 1

    def test_indexes_built_on_first_use(self):
        h = validate(4, [[1, 2], [2, 3, 4]])
        assert set(vars(h)) == {"n", "levels"}
        # A membership test searches the sorted level and builds no view.
        assert h.has_edge([4, 2, 3]) and not h.has_edge([1, 3])
        assert set(vars(h)) == {"n", "levels"}
        assert h.link_table(3) is h.link_table(3)
        assert h.link_table(3) == {0b11000: 0b100, 0b10100: 0b1000, 0b01100: 0b10000}

    def test_absent_level(self):
        h = validate(4, [[1, 2], [2, 3, 4]])
        assert h.level_edges(1) == () and h.level_edges(5) == ()
        assert not h.has_edge([1]) and not h.has_edge([1, 2, 3, 4])

    def test_no_module_level_cache(self):
        h = validate(3, [[1, 2]])
        assert h.has_edge([1, 2])
        maximize(h, Coefficients.ones((2,)), SolverConfig(starts=2))
        for module in (hypergraph_module, objective_module, optimizer_module):
            for name, value in vars(module).items():
                assert not hasattr(value, "cache_info"), (module.__name__, name)
                if isinstance(value, dict):
                    assert not any(isinstance(k, Hypergraph) for k in value), (module.__name__, name)

    def test_edge_arrays_per_instance(self):
        h = validate(4, [[1, 2], [2, 3, 4]])
        assert h.edge_array(3) is h.edge_array(3)
        assert h.edge_array(3).tolist() == [[1, 2, 3]]
        assert h.edge_array(2).tolist() == [[0, 1]]
        assert h.edge_array(1).shape == (0, 1)
        assert not h.edge_array(2).flags.writeable

    def test_edge_masks_per_instance(self):
        h = validate(24, [[1, 2], [2, 3, 24]])
        assert h.edge_masks(3) is h.edge_masks(3)
        assert h.edge_masks(3) == frozenset({1 << 2 | 1 << 3 | 1 << 24})
        assert h.edge_masks(2) == frozenset({0b110}) and h.edge_masks(1) == frozenset()

    def test_pickle_keeps_graph_and_views(self):
        # sweep --jobs pickles instances, with whatever views they have built.
        h = gen_random(24, (1, 2, 3), 0.3, 5)
        g = hypergraph_module._from_masks(h.n, {r: h.edge_masks(r) for r in h.edge_types})
        for graph in (h, g):
            graph.edge_array(2)
            graph.link_table(2)
            back = pickle.loads(pickle.dumps(graph))
            assert back == graph and hash(back) == hash(graph)
            assert all(back.edge_masks(r) == graph.edge_masks(r) for r in graph.edge_types)
            assert back.link_table(2) == graph.link_table(2)
            assert back.edge_array(2).tolist() == graph.edge_array(2).tolist()


@pytest.mark.parametrize(
    "h",
    [
        *(gen_random(n, types, density, seed)
          for seed, (n, types, density) in enumerate([
              (24, (2, 3), 0.5), (24, (1, 2, 3), 0.7), (24, (2, 3), 0.05), (9, (1, 4, 6), 0.6),
              (12, (2, 5), 0.9), (6, (1, 2, 3, 4, 5, 6), 1.0), (7, (3,), 0.4), (1, (1,), 1.0)])),
        validate(5, []),
        complete(24, (2,)),
        # Vertex 24 on levels 2..6: the largest keys the packed sort holds.
        validate(24, [c for r in range(2, 7) for c in itertools.combinations(range(19, 25), r)]),
    ],
    ids=repr,
)
def test_link_table_matches_loop_reference(h):
    # Levels the instance lacks, 1..6 included, give an empty table.
    for r in range(1, 7):
        table = h.link_table(r)
        assert table == reference_link_table(h, r)
        assert (table == {}) == (r not in h.edge_types)
        assert all(type(k) is int and type(v) is int for k, v in table.items())
        assert h.link_table(r) is table


@pytest.mark.parametrize("build,message", [
    (lambda: validate(0, []), "vertex count must be positive, got 0"),
    # The two complete cases keep the ids they had under their earlier messages.
    pytest.param(lambda: complete(4, []),
                 "types must be a nonempty list of positive integers, got \\[\\]",
                 id="<lambda>-edge-type set must be nonempty"),
    pytest.param(lambda: complete(4, [0]),
                 "types must be a nonempty list of positive integers, got \\[0\\]",
                 id="<lambda>-edge type 0 must be >= 1"),
    (lambda: from_text("3\n1 x\n"), "bad edge line '1 x'"),
    # validate names an oversized level as every other reader does.
    (lambda: validate(8, [list(range(1, 8))]), "^edge type 7 exceeds the soft limit 6$"),
])
def test_input_errors(build, message):
    with pytest.raises(HypergraphError, match=message):
        build()


_DENSE = gen_random(6, (1, 2, 3), 0.8, 1)
# Each entry point that takes an edge-type set, as a function of that set.
_TYPE_SET_READERS = {
    "complete": lambda ts: complete(4, ts),
    "gen_random": lambda ts: gen_random(5, ts, 0.5, 0),
    "max_complete_subgraph": lambda ts: max_complete_subgraph(_DENSE, ts),
    "contains_complete": lambda ts: contains_complete(_DENSE, 3, ts),
    "closed_form_exact": lambda ts: closed_form_exact("GENERAL_T9a", {"t": 4, "types": ts}),
    "gen_planted": lambda ts: gen_planted("random-lc", {"types": ts}, 0),
}


@pytest.mark.parametrize("entry", list(_TYPE_SET_READERS))
@pytest.mark.parametrize("types, message", [
    ([], "types must be a nonempty list of positive integers, got []"),
    ([0, 2], "types must be a nonempty list of positive integers, got [0, 2]"),
    ([2, 7], "edge type 7 exceeds the soft limit 6"),
    ("23", "types must be a nonempty list of positive integers, got '23'"),
    ([True], "types must be a nonempty list of positive integers, got [True]"),
    (["2"], "types must be a nonempty list of positive integers, got ['2']"),
], ids=["empty", "zero", "past-limit", "string", "bool", "int-string"])
def test_edge_type_set_rejected_by_one_reader(entry, types, message):
    with pytest.raises(HypergraphError) as info:
        _TYPE_SET_READERS[entry](types)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", list(_TYPE_SET_READERS))
def test_edge_type_set_read_sorted_without_repeats(entry):
    # 2.0 reads as 2, and repeats and order do not matter.
    read = _TYPE_SET_READERS[entry]
    assert read([3, 2.0, 3]) == read((2, 3))


_K4 = complete(4, (2,))


def _parse(*argv):
    """The command line parsed as ``run`` parses it: a usage error raises
    ``ValueError``, which ``run`` turns into exit 1."""
    return lambda: cli._build_parser().parse_args(list(argv))


# Each integer a public function or the command line takes: values are read
# by ``_read_int`` (a bool, a string or a fractional float is an error) and
# text is spelled as ``_DIGITS`` (ASCII digits only).
@pytest.mark.parametrize("build, message", [
    (lambda: rational_uniform(3, [0]), r"support must be a nonempty subset of 1\.\.3, got \[0\]"),
    (lambda: rational_uniform(3, [-1]), r"support must be a nonempty subset of 1\.\.3, got \[-1\]"),
    (lambda: uniform_weights(3, [4]), r"support must be a nonempty subset of 1\.\.3, got \[4\]"),
    (lambda: rational_uniform(3, [1.5]), "vertex must be an integer, got 1.5"),
    (lambda: relabel(_K4, {1: 1, 2: 2, 3: 3, 4: "4"}), "vertex must be an integer, got '4'"),
    (lambda: complete(True, (1,)), "n must be an integer, got True"),
    (lambda: complete(2.5, (2,)), "n must be an integer, got 2.5"),
    (lambda: gen_random(2.5, (2,), 0.5, 0), "n must be an integer, got 2.5"),
    (lambda: gen_random(5, (2,), "0.5", 0), r"density must be a number in \[0, 1\], got '0.5'"),
    (lambda: gen_random(5, (2,), True, 0), r"density must be a number in \[0, 1\], got True"),
    (lambda: gen_random(5, (2,), 0.5, 1.5), "seed must be an integer, got 1.5"),
    (lambda: gen_planted("t6a", {"t": 4}, "a"), "seed must be an integer, got 'a'"),
    (lambda: SolverConfig(starts=2.5), "starts must be an integer, got 2.5"),
    (lambda: SolverConfig(max_iters=2.5), "max_iters must be an integer, got 2.5"),
    (lambda: SolverConfig(starts=True), "starts must be an integer, got True"),
    (lambda: grid_oracle(_K4, Coefficients(2), True), "resolution must be an integer, got True"),
    (lambda: contains_complete(_K4, True, (2,)), "t must be an integer, got True"),
    (lambda: Coefficients(True), "r0 must be an integer, got True"),
    (lambda: from_text("12\n1_0 2\n"), "bad edge line '1_0 2'"),
    (lambda: from_text("\u0661\u0662\n1 2\n"), "first line must be the vertex count"),
    (_parse("compute", "g.json", "--starts", "\u0663"), "argument --starts: .*ASCII digits"),
    (_parse("compute", "g.json", "--starts", "1_6"), "argument --starts: .*ASCII digits"),
    (_parse("compute", "g.json", "--max-iters", "1_0"), "argument --max-iters: .*ASCII digits"),
    (_parse("compute", "g.json", "--grid", "--grid-d", "\u0663"), "argument --grid-d: .*ASCII"),
    (_parse("generate", "--family", "t6a", "--seed", "\u0663"), "argument --seed: .*ASCII digits"),
    (_parse("generate", "--family", "t6a", "--seed", "-1"), "argument --seed: .*ASCII digits"),
    (_parse("sweep", "--family", "t6a", "--theorem", "TWO_R_T6a", "--seeds", "\u0662..\u0663"),
     "argument --seeds: .*ASCII digits"),
    (_parse("sweep", "--family", "t6a", "--theorem", "TWO_R_T6a", "--seeds", "1", "--jobs",
            "\u0662"), "argument --jobs: .*ASCII digits"),
])
def test_integer_rejected_by_one_reader(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _shown(value) -> str:
    return to_json(value) if isinstance(value, Hypergraph) else repr(value)


# An integral float reads as the int it equals, wherever an integer is taken.
@pytest.mark.parametrize("read, expected", [
    (lambda: relabel(_K4, {1: 1, 2: 2, 3: 3, 4: 4.0}), lambda: _K4),
    (lambda: left_compress_fixpoint(relabel(_K4, {1: 2.0, 2: 1, 3: 3, 4: 4})), lambda: _K4),
    (lambda: complete(4.0, (2,)), lambda: _K4),
    (lambda: gen_random(6.0, (2, 3), 0.5, 3.0), lambda: gen_random(6, (2, 3), 0.5, 3)),
    (lambda: gen_planted("t6a", {"t": 4}, 1.0), lambda: gen_planted("t6a", {"t": 4}, 1)),
    (lambda: rational_uniform(3.0, [2.0, 3]), lambda: rational_uniform(3, [2, 3])),
    (lambda: SolverConfig(2.0, 10.0, 1.0), lambda: SolverConfig(2, 10, 1)),
    (lambda: grid_oracle(_K4, Coefficients(2), 2.0), lambda: grid_oracle(_K4, Coefficients(2), 2)),
    (lambda: contains_complete(_K4, 4.0, (2,)), lambda: True),
    (lambda: Coefficients(2.0), lambda: Coefficients(2)),
], ids=["relabel", "relabel-fixpoint", "complete", "gen_random", "gen_planted", "rational_uniform",
        "SolverConfig", "grid_oracle", "contains_complete", "Coefficients"])
def test_integral_float_read_as_int(read, expected):
    assert _shown(read()) == _shown(expected())
