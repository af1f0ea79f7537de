import hashlib
from types import SimpleNamespace

import pytest

from lagrangian_lab import (
    GenerationError,
    HypergraphError,
    check_hypotheses,
    complete,
    contains_complete,
    gen_planted,
    gen_random,
    is_left_compressed,
    max_complete_subgraph,
    to_json,
    vertex_support,
    with_singletons,
)
from lagrangian_lab import generators
from lagrangian_lab.theorems import uniform_edge_window


class TestGenRandom:
    def test_density_one_is_complete(self):
        assert gen_random(5, (1, 2), 1.0, seed=0) == complete(5, (1, 2))

    def test_density_zero_is_empty(self):
        assert gen_random(5, (2, 3), 0.0, seed=0).num_edges() == 0

    def test_seed_determinism_pinned(self):
        h = gen_random(6, (2, 3), 0.5, seed=7)
        assert h == gen_random(6, (2, 3), 0.5, seed=7)
        # regression pin from the first recorded run
        assert h.num_edges(2) == 11 and h.num_edges(3) == 11

    def test_per_level_densities(self):
        """One density serves every level: a per-level map is refused."""
        with pytest.raises(ValueError, match=r"density must be a number in \[0, 1\]"):
            gen_random(5, (2, 3), {2: 1.0, 3: 0.0}, seed=1)
        with pytest.raises(ValueError, match=r"density must be a number in \[0, 1\]"):
            gen_planted("random-lc", {"types": (2, 3), "density": {2: 1.0, 3: 0.0}}, seed=1)

    def test_bad_density(self):
        with pytest.raises(ValueError, match=r"density must be a number in \[0, 1\], got 1\.5"):
            gen_random(4, (2,), 1.5, seed=0)


def _forbid_enumeration(monkeypatch):
    """Make the builders' edge enumeration raise if it is reached."""
    def combinations(*args):
        raise AssertionError("an edge enumeration ran before the soft-limit check")
    monkeypatch.setattr(generators, "itertools", SimpleNamespace(combinations=combinations))


class TestSoftLimitsFirst:
    """n and every level are checked against the soft limits before any edge
    is listed, so an oversized request fails at once."""

    @pytest.mark.parametrize("n,types,message", [
        (300, (2, 3), "n=300 exceeds the soft limit 24"),
        (8, (2, 7), "edge type 7 exceeds the soft limit 6"),
    ])
    def test_gen_random(self, monkeypatch, n, types, message):
        _forbid_enumeration(monkeypatch)
        with pytest.raises(HypergraphError, match=message):
            gen_random(n, types, 0.5, seed=0)

    @pytest.mark.parametrize("family,params,message", [
        ("random-lc", {"n": 100000}, "n=100000 exceeds the soft limit 24"),
        ("random-lc", {"n": 8, "types": [2, 7]}, "edge type 7 exceeds the soft limit 6"),
        ("t6a", {"t": 100000}, "n=100002 exceeds the soft limit 24"),
        ("t7a", {"t": 100000}, "n=100001 exceeds the soft limit 24"),
        ("ptz", {"t": 100000}, "n=100001 exceeds the soft limit 24"),
        ("tpzz-free", {"t": 100000}, "n=100002 exceeds the soft limit 24"),
        ("t6a", {"t": 8, "r": 7, "n": 9}, "edge type 7 exceeds the soft limit 6"),
    ])
    def test_planted(self, monkeypatch, family, params, message):
        _forbid_enumeration(monkeypatch)
        with pytest.raises(HypergraphError, match=message):
            gen_planted(family, params, seed=0)


class TestPlantedFamilies:
    def test_t6a_example(self):
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6}, seed=1)
        assert h.num_edges(2) == 6
        assert vertex_support(h, 2) == {1, 2, 3, 4}
        assert max_complete_subgraph(h, (2, 3)).order == 4
        assert check_hypotheses("TWO_R_T6a", h, {"alpha_r": 1}).ok

    def test_t6a_complete_mode(self):
        h = gen_planted("t6a", {"t": 4, "r": 3, "n": 6, "extra_density": 1}, seed=1)
        assert h.num_edges(3) == 20  # all triples of [6]
        assert check_hypotheses("TWO_R_T6a", h, {"alpha_r": 1}).ok

    def test_t7a_complete_mode(self):
        h = gen_planted("t7a", {"t": 4, "m": 8, "r": 3, "extra_density": 1}, seed=1)
        assert h.n == 5 and h.num_edges(3) == 10  # all triples of [5]
        assert check_hypotheses("TWO_R_EDGES_T7a", h, {"t": 4, "alpha_r": 1}).ok

    @pytest.mark.parametrize("family,key", [("t6a", "n"), ("t7a", "m"), ("ptz", "m"), ("t6a", "t")])
    def test_integer_parameters(self, family, key):
        base = gen_planted(family, {"t": 4}, seed=1)
        value = {"n": base.n, "m": base.num_edges(2 if family == "t7a" else 3), "t": 4}[key]
        assert gen_planted(family, {"t": 4, key: float(value)}, seed=1) == base
        for bad in (value + 0.5, str(value), True):
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                gen_planted(family, {"t": 4, key: bad}, seed=1)

    def test_t7a_example(self):
        h = gen_planted("t7a", {"t": 4, "m": 8, "r": 3}, seed=1)
        assert h.num_edges(2) == 8
        assert max_complete_subgraph(h, (2, 3)).order == 4
        assert check_hypotheses("TWO_R_EDGES_T7a", h, {"t": 4, "alpha_r": 1}).ok

    def test_t7a_window_edge_cases(self):
        lo = gen_planted("t7a", {"t": 4, "m": 6}, seed=2)
        assert lo.num_edges(2) == 6
        with pytest.raises(GenerationError):
            gen_planted("t7a", {"t": 4, "m": 9}, seed=2)

    def test_ptz_example(self):
        h = gen_planted("ptz", {"t": 4, "r": 3, "m": 7}, seed=1)
        assert h.n == 5 and h.num_edges(3) == 7
        assert contains_complete(h, 4, (3,))
        assert check_hypotheses("PTZ", h, {"t": 4}).ok

    def test_ptz_window_bounds(self):
        with pytest.raises(GenerationError):
            gen_planted("ptz", {"t": 4, "r": 3, "m": 8}, seed=1)
        with pytest.raises(GenerationError):
            gen_planted("ptz", {"t": 4, "r": 3, "m": 3}, seed=1)

    @pytest.mark.parametrize("t,r", [(4, 4), (7, 5), (15, 5), (6, 6), (23, 6)])
    def test_ptz_empty_window(self, t, r):
        lo, hi = uniform_edge_window(t, r)
        message = rf"PTZ's {r}-level window \[{lo}, {hi}\] is empty for t={t}"
        with pytest.raises(GenerationError, match=message):
            gen_planted("ptz", {"t": t, "r": r})

    def test_tpzz_free(self):
        h = gen_planted("tpzz-free", {"t": 4, "m": 5, "n": 6}, seed=1)
        assert h.num_edges(3) == 5
        assert not contains_complete(h, 4, (3,))

    def test_tpzz_window_guard(self):
        with pytest.raises(GenerationError):
            gen_planted("tpzz-free", {"t": 4, "m": 6}, seed=1)

    def test_random_lc(self):
        h = gen_planted("random-lc", {"n": 6, "types": (2, 3), "density": 0.5}, seed=9)
        assert is_left_compressed(h)

    def test_infeasible_build_checked_once(self, monkeypatch):
        """A planted build randomizes only what its target hypotheses do not
        read, so a failed check is final: one check, no resampling."""
        calls = []

        def spy(*args):
            calls.append(args)
            return check_hypotheses(*args)

        monkeypatch.setattr(generators, "check_hypotheses", spy)
        with pytest.raises(GenerationError, match="failed its hypothesis check: order-threshold: "):
            gen_planted("t6a", {"t": 4, "r": 3, "alpha_r": 5}, seed=0)
        assert len(calls) == 1

    def test_unknown_family(self):
        with pytest.raises(GenerationError):
            gen_planted("nope", {}, seed=0)

    @pytest.mark.parametrize("family,params", [
        ("t6a", {"t": 4, "r": 3, "n": 6}),
        ("t7a", {"t": 5, "m": 12}),
        ("ptz", {"t": 4, "r": 3, "m": 6}),
        ("tpzz-free", {"t": 4, "m": 5, "n": 6}),
        ("random-lc", {"n": 6, "types": (2, 3)}),
    ])
    def test_seed_determinism(self, family, params):
        a = gen_planted(family, params, seed=31)
        b = gen_planted(family, params, seed=31)
        assert a == b


# sha256 (first 16 hex digits) of the JSON lines of seeds 0..7, as
# ``lagrangian generate`` prints them: a change to any builder's output or
# to its use of the random stream shows here. New rows go at the end, so
# the test id of each existing row stays the same.
OUTPUT_PINS = [
    ("t6a", {"t": 4}, "29f1ec584a84a118"),
    ("t6a", {"t": 5, "r": 4, "n": 8, "extra_density": 0.6}, "ccfa23b1b7e4d4f4"),
    ("t6a", {"t": 3, "n": 5, "extra_density": 1}, "de8af600deae86b4"),
    ("t7a", {"t": 4}, "c73e33593580d42d"),
    ("t7a", {"t": 5, "m": 11, "n": 7}, "2792e393830febc8"),
    ("t7a", {"t": 4, "m": 6, "n": 6, "extra_density": 1}, "739dd5dab76c4e60"),
    ("ptz", {"t": 4}, "66638daf61c86dda"),
    ("ptz", {"t": 5, "m": 12}, "9845eeeae6db14a0"),
    ("tpzz-free", {"t": 4}, "24fa54c4055b8fe2"),
    ("tpzz-free", {"t": 5, "n": 7}, "6fe87e0b9b71529a"),
    ("random-lc", {}, "bd46836c87e72932"),
    ("random-lc", {"n": 7, "types": [1, 2, 4], "density": 0.4}, "b5d7f80a74475d5e"),
    ("ptz", {"t": 6, "r": 4, "m": 16}, "9d361cab37026559"),
]


@pytest.mark.parametrize("family,params,digest", OUTPUT_PINS)
def test_output_pinned(family, params, digest):
    text = "".join(to_json(gen_planted(family, params, seed)) + "\n" for seed in range(8))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_t6a_needs_n_at_least_t():
    with pytest.raises(GenerationError, match="need n >= t, got n=3, t=4"):
        gen_planted("t6a", {"t": 4, "n": 3}, seed=0)


@pytest.mark.parametrize("family", ["t6a", "t7a"])
def test_pair_families_need_r_at_least_3(family):
    # At r = 2 the r-level is the 2-level, which the builder already plants.
    with pytest.raises(GenerationError, match=f"family '{family}' needs r >= 3, got r=2"):
        gen_planted(family, {"t": 4, "r": 2}, seed=0)


@pytest.mark.parametrize("r", [1, 2])
def test_ptz_needs_r_at_least_3(r):
    # PTZ's own r-range; at r = 1 the window would call math.comb(t - 1, -1).
    with pytest.raises(GenerationError, match=f"family 'ptz' needs r >= 3, got r={r}"):
        gen_planted("ptz", {"t": 4, "r": r}, seed=0)


def test_with_singletons():
    g = gen_planted("ptz", {"t": 4, "r": 3, "m": 5}, seed=1)
    h = with_singletons(g)
    assert h.edge_types == (1, 3)
    assert h.num_edges(1) == h.n
    # idempotent
    assert with_singletons(h) == h


@pytest.mark.parametrize("build,message", [
    (lambda: gen_planted("t7a", {"t": 4, "n": 4}),
     "extra 2-edges need an attachment vertex t\\+1; raise n"),
    (lambda: gen_planted("t6a", {"t": 3, "r": 4}), "need t >= r, got t=3, r=4"),
    (lambda: gen_planted("tpzz-free", {"t": 4, "n": 4, "m": 5}),
     "m=5 exceeds the 4 possible 3-edges on n=4"),
    # Every sample is the whole K_4^(3), so all 1,000 contain the clique.
    (lambda: gen_planted("tpzz-free", {"t": 4, "n": 4}),
     "could not sample a clique-free 3-graph with m=4, t=4, n=4 in 1000 attempts"),
])
def test_input_errors(build, message):
    with pytest.raises(GenerationError, match=message):
        build()
