"""The three benchmark workloads: op lists from a seed, one op, its check.

Every workload is a closed loop with one caller: an op starts when the
previous op and its check have finished. Op lists are pure functions of the
seed; the program only ever sees the generated instances. Checks use
oracles written here from the instances' edge lists, not the package's own
helpers, and run outside the timed region.
"""

from __future__ import annotations

import itertools
import random


def edge_levels(h) -> dict[int, set]:
    levels: dict[int, set] = {}
    for e in h.edges():
        levels.setdefault(len(e), set()).add(tuple(e))
    return levels


def complete_on(levels: dict[int, set], verts, types) -> bool:
    s = sorted(verts)
    return all(c in levels.get(r, ()) for r in types if r <= len(s)
               for c in itertools.combinations(s, r))


def potential(h) -> int:
    """Sum of vertex labels over all edges; left-compression never raises it."""
    return sum(v for e in h.edges() for v in e)


class Workload:
    """One workload: ``draw`` makes the instance part of op i, ``build`` turns
    a spec into the op's inputs, ``run`` is the timed op, ``check`` its
    oracle.

    Instances come from one fixed stream per workload; the seed gives every
    op a variant seed that relabels the instance's vertices, so every input
    the program sees changes with the seed while the work stays comparable
    across seeds. The solver's multistart seed is the instance's generation
    seed. With fresh instances per seed, or a per-seed solver seed, the
    run-to-run spread was dominated by the inputs: slow convergence is a
    property of the instance (all starts of a slow instance need 30-100x the
    median iterations, up to the budget) and a few percent of random
    instances have it, which swung ops_per_s by half; clique and compression
    op costs vary 2-5x between random instances; and on random maximize
    instances a per-seed solver seed moved op_p90_s by 25% where relabelling
    alone moved it 5%.

    The op count is fixed by ``--seconds`` through ``nominal_rate`` (ops per
    second of this workload's op loop, reference kernel and checks included,
    at the commit that defined the benchmark), so a run does the same work on
    every commit and counts repeat for a seed.
    """

    name = ""
    nominal_rate = 1.0
    reference = "numeric"   # kernel of reference.py that calibrates its times
    traced_ops = 0          # fixed prefix of the op list replayed when traced

    def op_count(self, seconds: float) -> int:
        return max(self.traced_ops, round(seconds * self.nominal_rate))

    def specs(self, seed: int, count: int) -> list[tuple]:
        return self._specs(f"{self.name}:instances", f"{self.name}:{seed}", count)

    def warmup_spec(self) -> tuple:
        """An op outside the op list, run during set-up; the same for every
        seed, so set-up does the same work in every run."""
        key = f"{self.name}:warmup"
        return self._specs(key, key, 1)[0]

    def _specs(self, stream_key: str, variant_key: str, count: int) -> list[tuple]:
        stream, variants = random.Random(stream_key), random.Random(variant_key)
        return [self.draw(stream, i) + (variants.randrange(2**31),) for i in range(count)]

    @staticmethod
    def shape(spec: tuple) -> tuple:
        """The part of a spec that is the same for every seed."""
        return spec[:-1]

    @staticmethod
    def relabel(lab, h, spec: tuple):
        labels = list(range(1, h.n + 1))
        random.Random(spec[-1]).shuffle(labels)
        return lab.relabel(h, dict(zip(range(1, h.n + 1), labels)))

    def draw(self, rng: random.Random, i: int) -> tuple:
        raise NotImplementedError

    def build(self, lab, spec: tuple):
        raise NotImplementedError

    def run(self, lab, spec: tuple, inputs):
        raise NotImplementedError

    def check(self, lab, spec: tuple, inputs, out) -> str | None:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError

    def instance(self, inputs):
        """The hypergraph an op works on (for the layer microbenchmarks)."""
        return inputs


class VerifyPlanted(Workload):
    name = "verify-planted"
    nominal_rate = 6.5
    traced_ops = 36
    # (family, theorem, add singleton edges, clique orders t): the four
    # planted families, ptz and tpzz-free also wrapped for the mixed {1,3}
    # theorems. tpzz-free stops at t=5: at t=6, 4 of the first 80 instances
    # never converged (every start ran the full 5000 iterations, 12-24 s per
    # op, about a whole run), so one of them would decide every metric. That
    # case is measured by probe.maximize_s in the traced run.
    STRATA = tuple(
        (family, theorem, wrap, t)
        for t in (4, 5, 6)
        for family, theorem, wrap, ts in (
            ("t6a", "TWO_R_T6a", False, (4, 5, 6)),
            ("t7a", "TWO_R_EDGES_T7a", False, (4, 5, 6)),
            ("ptz", "PTZ", False, (4, 5, 6)),
            ("ptz", "MIXED_T10b", True, (4, 5, 6)),
            ("tpzz-free", "TPZZ", False, (4, 5)),
            ("tpzz-free", "MIXED_T10c", True, (4, 5)),
        )
        if t in ts
    )

    def draw(self, rng, i):
        return self.STRATA[i % len(self.STRATA)] + (rng.randrange(2**31),)

    def build(self, lab, spec):
        family, _, wrap, t, gen_seed, _ = spec
        g = lab.gen_planted(family, {"t": t}, gen_seed)
        return self.relabel(lab, lab.with_singletons(g) if wrap else g, spec)

    def run(self, lab, spec, h):
        _, theorem, _, t, gen_seed, _ = spec
        return lab.verify(theorem, h, {"t": t}, lab.SolverConfig(starts=16, seed=gen_seed))

    def check(self, lab, spec, h, verdict):
        return None if verdict.passed else f"verdict failed: {list(verdict.notes)}"


class CliqueDense(Workload):
    name = "clique-dense"
    reference = "hashing"
    nominal_rate = 8.0
    traced_ops = 60
    # (edge types, n): strata of similar mean cost (0.06-0.15 s per op), so
    # no single stratum carries the run; densities cycle through fixed levels.
    STRATA = (((2, 3), 18), ((2, 3, 4), 15), ((2, 3), 19), ((2, 3, 4), 16), ((2, 3), 20))
    DENSITIES = (0.8, 0.85, 0.9)

    def draw(self, rng, i):
        types, n = self.STRATA[i % len(self.STRATA)]
        density = self.DENSITIES[(i // len(self.STRATA)) % len(self.DENSITIES)]
        return (n, types, density, rng.randrange(2**31))

    def build(self, lab, spec):
        return self.relabel(lab, lab.gen_random(*spec[:4]), spec)

    def run(self, lab, spec, h):
        return lab.max_complete_subgraph(h, h.edge_types)

    def check(self, lab, spec, h, res):
        levels = edge_levels(h)
        types = h.edge_types
        if res.order != len(res.vertices) or not complete_on(levels, res.vertices, types):
            return f"{res.vertices} is not complete"
        for v in range(1, h.n + 1):
            if v not in res.vertices and complete_on(levels, res.vertices + (v,), types):
                return f"{res.vertices} extends by {v}"
        return None


class CompressChurn(Workload):
    name = "compress-churn"
    nominal_rate = 5.7
    traced_ops = 60
    # (edge types, n): strata of similar mean cost (0.11-0.18 s per op), so
    # the median op falls inside one cluster rather than between two.
    STRATA = (((2, 3), 11), ((1, 2, 3), 11), ((2, 3, 4), 10))
    DENSITIES = (0.4, 0.5, 0.6)

    def draw(self, rng, i):
        types, n = self.STRATA[i % len(self.STRATA)]
        density = self.DENSITIES[(i // len(self.STRATA)) % len(self.DENSITIES)]
        return (n, types, density, rng.randrange(2**31))

    def build(self, lab, spec):
        return self.relabel(lab, lab.gen_random(*spec[:4]), spec)

    def run(self, lab, spec, h):
        fixed = lab.left_compress_fixpoint(h)
        return fixed, lab.is_left_compressed(fixed)

    def check(self, lab, spec, h, out):
        fixed, flagged = out
        if not flagged:
            return "is_left_compressed rejected the fixpoint"
        levels = edge_levels(fixed)
        before = edge_levels(h)
        if {r: len(es) for r, es in levels.items()} != {r: len(es) for r, es in before.items()}:
            return "per-level edge counts changed"
        for es in levels.values():
            for e in es:
                for j in e:
                    for i in range(1, j):
                        if i not in e and tuple(sorted(set(e) - {j} | {i})) not in es:
                            return f"edge {e} still compresses ({i} <- {j})"
        if potential(fixed) > potential(h):
            return "compression potential rose"
        return None


WORKLOADS = {w.name: w for w in (VerifyPlanted(), CliqueDense(), CompressChurn())}
