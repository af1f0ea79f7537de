"""Benchmark of lagrangian_lab: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-planted --seed 1 --seconds 26 --trace 0

One process, one thread, one caller that waits for each result; numpy's
thread pools are pinned to one thread before numpy loads. The package is
imported from ``src/``.

``--trace 0`` reports the end-to-end metrics. ``--seconds`` fixes the length
of the op list (through each workload's nominal rate), so every commit does
the same work and a run measures about that long on the machine that defined
the benchmark; the list runs in order and stops early only if it takes
more than CAP times ``--seconds``. Each op's output is checked after its
timer stops. Op times are reported in reference seconds: each op's wall time
is scaled by a fixed reference kernel timed around it, which cancels most of
the shared host's swings in speed (see reference.py). ``setup_s`` and the
raw wall-clock rates in the run metadata are plain seconds.

``--trace 1`` reports the per-layer metrics instead: a fixed prefix of the op
list runs once untraced and once traced (so counts repeat exactly for a seed
and the difference is the tracing overhead), followed by layer
microbenchmarks, a suite on standard inputs and the roadmap's two
pathological probes. The spans of the traced pass are written to
``.perfbench/`` at the repository root.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit, units
taken from ``BENCHMARK.json``). A table of the same metrics goes to
standard error.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import reference  # noqa: E402
from layers import microbenchmarks, probes, suite  # noqa: E402
from tracer import Instrumented, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "lagrangian_lab"
SETUP_REPEATS = 15
DETERMINISM_OPS = 3
# A run stops early once its op loop has taken CAP times --seconds, so a much
# slower commit or host cannot overrun the time a caller planned for the runs.
CAP = 1.4


def _package_keys() -> list[str]:
    return [key for key in sys.modules if key == PACKAGE or key.startswith(PACKAGE + ".")]


def _load_package():
    """Import the package afresh (dropping any earlier import) with its CLI."""
    for key in _package_keys():
        del sys.modules[key]
    lab = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return lab


def _clear_caches() -> None:
    """Empty the package's module-level caches so ops start cold."""
    for key in _package_keys():
        for value in list(vars(sys.modules[key]).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    gc.collect()


def setup(wl, seed: int, count: int):
    """Import, build the op list and warm up, SETUP_REPEATS times; the
    median time is setup_s and the last import is the one measured.
    Instances are built just before their op, so one op's inputs are in
    memory at a time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lab = _load_package()
        specs = wl.specs(seed, count)
        warm = wl.warmup_spec()
        wl.run(lab, warm, wl.build(lab, warm))
        times.append(time.perf_counter() - t0)
    return lab, specs, times


def determinism_failures(wl, lab, seed: int, specs: list) -> list[str]:
    """Same seed, same op list and instances; next seed, same shape."""
    out = []
    if wl.specs(seed, len(specs)) != specs:
        out.append("op list differs between two builds from one seed")
    other = wl.specs(seed + 1, len(specs))
    if [wl.shape(s) for s in other] != [wl.shape(s) for s in specs]:
        out.append("op list of the next seed has another shape")
    if other == specs:
        out.append("op list does not depend on the seed")
    for spec in specs[:DETERMINISM_OPS]:
        a, b = (wl.instance(wl.build(lab, spec)) for _ in range(2))
        if (a.n, a.edges()) != (b.n, b.edges()):
            out.append(f"instance of {spec} differs between two builds")
    return out


def _run_checked(wl, lab, spec, failures: list) -> float:
    inputs = wl.build(lab, spec)
    t0 = time.perf_counter()
    out = wl.run(lab, spec, inputs)
    dt = time.perf_counter() - t0
    reason = wl.check(lab, spec, inputs, out)
    if reason is not None:
        failures.append(f"{spec}: {reason}")
    return dt


def _rates(samples: list[float]) -> tuple[float, float, float]:
    return (len(samples) / sum(samples), statistics.median(samples),
            statistics.quantiles(samples, n=10)[-1])


def measure(wl, lab, specs: list, seconds: float):
    """End-to-end metrics over the op list, run in order, in reference
    seconds (see reference.py); the raw wall-clock figures go to the run
    metadata."""
    _clear_caches()
    raw, failures, stamps, kernel = [], [], [], []

    def calibrate():
        stamps.append(time.perf_counter())
        kernel.append(reference.kernel_s(wl.reference))

    reference.kernel_s(wl.reference)  # warm-up, discarded
    calibrate()
    for spec in specs:
        raw.append(_run_checked(wl, lab, spec, failures))
        calibrate()
        if stamps[-1] - stamps[0] >= CAP * seconds:
            break
    # An op is scaled by the kernel's mean time around it: the runs on either
    # side of it and, for a long op, every run within its own duration before
    # or after it, since two point samples do not tell how fast the host ran
    # over several seconds.
    nominal = reference.nominal_s(wl.reference)
    samples = []
    for i, dt in enumerate(raw):
        lo, hi = stamps[i] - dt, stamps[i + 1] + dt
        near = [k for t, k in zip(stamps, kernel) if lo <= t <= hi]
        samples.append(dt * nominal / statistics.fmean(near))
    ops_per_s, p50, p90 = _rates(samples)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_s": p50,
        "op_p90_s": p90,
        "ok_frac": 1.0 - len(failures) / len(samples),
    }
    raw_rates = _rates(raw)
    info = {"ops": len(samples), "samples_above_p90": sum(1 for s in samples if s > p90),
            "wall_ops_per_s": raw_rates[0], "wall_op_p50_s": raw_rates[1],
            "wall_op_p90_s": raw_rates[2], "kernel_median_s": statistics.median(kernel),
            "measured_s": stamps[-1] - stamps[0]}
    return metrics, failures, info


def _traced_op(wl, lab, spec, tracer):
    """Run one op under ``tracer``; returns its time, inputs, output and the
    span and counter counts it added."""
    inputs = wl.build(lab, spec)
    first, before = len(tracer), Counter(tracer.counters)
    with Instrumented(tracer):
        span = tracer.open("bench.op")
        t0 = time.perf_counter()
        out = wl.run(lab, spec, inputs)
        dt = time.perf_counter() - t0
        tracer.close(span)
    counts = Counter(tracer.names[tracer.name_id[i]] for i in range(first, len(tracer)))
    counts.update(tracer.counters - before)
    return dt, inputs, out, counts


def traced(wl, lab, specs: list, seed: int):
    """Per-layer metrics; see the module docstring."""
    prefix = specs[:wl.traced_ops]
    failures: list[str] = []      # op checks
    problems: list[str] = []      # replay and probe checks
    _clear_caches()
    plain_s = sum(_run_checked(wl, lab, spec, failures) for spec in prefix)

    _clear_caches()
    tracer = Tracer()
    traced_s, per_op = 0.0, []
    for spec in prefix:
        dt, inputs, out, counts = _traced_op(wl, lab, spec, tracer)
        traced_s += dt
        per_op.append(counts)
        reason = wl.check(lab, spec, inputs, out)
        if reason is not None:
            failures.append(f"{spec}: {reason}")

    _clear_caches()
    replay = Tracer()
    for spec, expected in zip(prefix[:DETERMINISM_OPS], per_op):
        if _traced_op(wl, lab, spec, replay)[3] != expected:
            problems.append(f"{spec}: span counts differ when the op is replayed")

    summary = tracer.summary()
    op_total = summary["bench.op"]["total_s"]

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    m = {
        "trace.op_s": traced_s,
        "trace.untraced_op_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "trace.spans": len(tracer),
        "hypergraph.edge_set_calls": total("hypergraph.edge_set", "calls"),
        "hypergraph.edge_set_frac": total("hypergraph.edge_set") / op_total,
        "optimizer.maximize_frac": total("optimizer.maximize") / op_total,
        "optimizer.project_calls": total("optimizer.project_to_simplex", "calls"),
        "compression.compress_hypergraph_calls": total("compression.compress_hypergraph", "calls"),
        "compression.potential_drop": tracer.counters["compression.potential_drop"],
    }
    steps = m["compression.compress_hypergraph_calls"]
    m["compression.effective_frac"] = (
        tracer.counters["compression.effective_steps"] / steps if steps else 0.0)
    self_by_layer = Counter()
    for name, rec in summary.items():
        self_by_layer[name.split(".", 1)[0]] += rec["self_s"]
    for layer in ("bench", "hypergraph", "cliques", "objective", "optimizer", "compression",
                  "theorems"):
        m[f"{layer}.self_frac"] = self_by_layer[layer] / op_total

    sized = sorted((wl.instance(wl.build(lab, spec)) for spec in prefix), key=lambda h: h.num_edges())
    m.update(microbenchmarks(lab, sized[-1], sized[len(sized) // 2], seed))
    suite_metrics, suite_solver = suite(lab, seed)
    m.update(suite_metrics)
    solver = tracer.results["solver"] + suite_solver
    m["optimizer.converged_frac"] = sum(c for c, _ in solver) / len(solver)
    m["optimizer.kkt_residual_max"] = max(k for _, k in solver)
    probe_metrics, probe_failures = probes(lab)
    m.update(probe_metrics)
    problems.extend(probe_failures)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_doc = {
        "workload": wl.name, "seed": seed, "ops": len(prefix),
        "summary": summary,
        "spans": tracer.spans(max_depth=1),
    }
    (out_dir / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(trace_doc))
    return m, 2 * len(prefix), failures, problems


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    """HEAD of the repository when run from a git checkout, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    lab, specs, setup_times = setup(wl, args.seed, wl.op_count(args.seconds))
    failures = determinism_failures(wl, lab, args.seed, specs)
    info = {}
    if args.trace:
        metrics, attempted, op_failures, problems = traced(wl, lab, specs, args.seed)
        failures.extend(problems)
        kind = "per_layer"
    else:
        metrics, op_failures, info = measure(wl, lab, specs, args.seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = info["ops"]
        kind = "end_to_end"
    failures.extend(op_failures)

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json {kind}", file=sys.stderr)
        return 3

    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "commit": _commit(), "source_sha256": _source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "op_list_sha256": hashlib.sha256(repr(specs).encode()).hexdigest(),
        "setup_samples_s": setup_times, **info,
    }
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(op_failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
