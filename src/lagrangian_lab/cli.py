"""Command-line surface: compute, clique, compress, verify, generate, sweep.

Exit codes: 0 for success (and passing verdicts), 2 when a verification ran
fine but the check failed, 1 for usage or input errors. verify and sweep
pass an equality verdict when the optimum is at most 1e-6 below the closed
form and at most 1e-12 times the closed form above it, and only on a
converged solve. Text output writes numbers with 12-digit fixed precision;
--json prints the result's fields in order, as its to_dict writes them:
compute's solver result and verify's verdict. compute and verify seed the
solver with --seed (default 0) and use 64 random starts unless --starts sets
them; generate builds with --seed (default 0). sweep has no --seed: it
builds each seed's instance once, checks every (seed, theorem) pair's alpha
keys on it before any solve, then seeds each solve with that instance's seed
and uses 16 starts unless --starts sets them. Integer flags (--starts,
--max-iters, --seed, --jobs, --grid-d) and --seeds tokens are non-negative
ints in ASCII digits. A JSON object that repeats a key is an error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from . import __version__
from ._readers import _DIGITS, _LEVEL, _load_json
from .cliques import max_complete_subgraph
from .compression import is_left_compressed, left_compress_fixpoint
from .generators import FAMILIES, gen_planted
from .hypergraph import Hypergraph, dump, load, to_json
from .objective import Coefficients, flavour_coefficients
from .optimizer import SolverConfig, grid_oracle, maximize, polish
from .theorems import _Checker, theorem_ids, verify

# The task's family and seed, the verdict's to_dict fields, and the wall
# time of verify alone (the instance is built before the task runs).
_SWEEP_COLUMNS = ["family", "seed", "theorem", "t", "r", "m", "hypotheses_ok", "closed_form",
                  "numerical", "uniform_on_clique", "kkt_residual", "pass", "wall_ms"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this surface reserves 2
    for failed verdicts, so usage problems become exit 1."""

    def error(self, message):
        raise ValueError(message)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    # A negative value that rounds to zero prints without its sign.
    text = f"{value:.12f}"
    return text.lstrip("-") if float(text) == 0 else text


def _load_params(text: str | None) -> dict:
    if not text:
        return {}
    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # inline JSON can be longer than a file name may be
        is_file = False
    doc = _load_json(path.read_text() if is_file else text)
    if not isinstance(doc, dict):
        raise ValueError("--params must be a JSON object")
    return doc


def _coefficients_for(args, h: Hypergraph) -> tuple[Coefficients, int]:
    """Objective selection: returns (coefficients, value scale)."""
    if args.objective == "weighted":
        if not args.coeffs:
            raise ValueError("--objective weighted requires --coeffs")
        text = Path(args.coeffs).read_text()
        try:
            return Coefficients.from_json(text), 1
        except ValueError as exc:
            raise ValueError(
                f'--coeffs must hold a JSON object like {{"r0": 2, "alpha": {{"3": 1}}}} ({exc})'
            ) from None
    flavour = "lambda" if args.objective == "lambda" else "lambda'"
    return flavour_coefficients(flavour, h.edge_types)


def _cmd_compute(args) -> int:
    if args.coeffs and args.objective != "weighted":
        raise ValueError("--coeffs needs --objective weighted")
    if args.grid_d is not None and not args.grid:
        raise ValueError("--grid-d needs --grid")
    grid_d = 24 if args.grid_d is None else args.grid_d
    h = load(args.input)
    coeffs, scale = _coefficients_for(args, h)
    cfg = SolverConfig(args.starts, args.max_iters, args.seed)
    # The grid runs first: a bad resolution or size fails before the solve.
    grid = grid_oracle(h, coeffs, grid_d) if args.grid else None
    result = maximize(h, coeffs, cfg)
    value = scale * result.value
    if grid is not None:
        polished = polish(h, coeffs, grid[1], cfg, method="grid")
        if scale * polished.value > value:
            value, result = scale * polished.value, polished
    if args.json:
        print(json.dumps({**result.to_dict(), "value": value}))
    else:
        print(_fmt(value))
    return 0


def _digits(text: str) -> int:
    """An integer flag's value, and each --seeds token, spelled as ``_DIGITS``."""
    if not re.fullmatch(_DIGITS, text):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative int in ASCII digits, got {text!r}")
    return int(text)


def _parse_types(text: str) -> list[int]:
    """The --types value: comma-separated positive ints, each spelled as ``_LEVEL``."""
    tokens = text.split(",")
    if not all(re.fullmatch(_LEVEL, tok.strip()) for tok in tokens):
        raise argparse.ArgumentTypeError(f"must be comma-separated positive ints, got {text!r}")
    return [int(tok) for tok in tokens]


def _cmd_clique(args) -> int:
    h = load(args.input)
    if args.types is None and not h.num_edges():
        raise ValueError("hypergraph has no edges; pass --types explicitly")
    res = max_complete_subgraph(h, h.edge_types if args.types is None else args.types)
    print(json.dumps({"order": res.order, **asdict(res)}))
    return 0


def _write(h: Hypergraph, output: str | None) -> int:
    if output:
        dump(h, output)
    else:
        print(to_json(h))
    return 0


def _cmd_compress(args) -> int:
    if args.check and args.output:
        raise ValueError("-o/--output needs --fixpoint")
    if args.json and not args.check:
        raise ValueError("--json needs --check")
    h = load(args.input)
    if args.check:
        flag = is_left_compressed(h)
        print(json.dumps({"left_compressed": flag}) if args.json else str(flag).lower())
        return 0
    return _write(left_compress_fixpoint(h), args.output)


def _cmd_verify(args) -> int:
    h = load(args.input)
    params = _load_params(args.params)
    cfg = SolverConfig(args.starts, args.max_iters, args.seed)
    verdict = verify(args.theorem, h, params, cfg)
    if args.json:
        print(json.dumps(verdict.to_dict()))
    else:
        print(f"theorem {verdict.theorem}")
        print(f"hypotheses_ok {str(verdict.hypotheses_ok).lower()}")
        for cond in verdict.conditions:
            mark = "ok" if cond.ok else "FAIL"
            print(f"  [{mark}] {cond.name}: {cond.detail}")
        for key in ("closed_form", "numerical", "uniform_on_clique", "kkt_residual", "margin"):
            if (value := getattr(verdict, key)) is not None:
                print(f"{key} {_fmt(value)}")
        for note in verdict.notes:
            print(f"note: {note}")
        print(f"pass {str(verdict.passed).lower()}")
    return 0 if verdict.passed else 2


def _cmd_generate(args) -> int:
    params = _load_params(args.params)
    return _write(gen_planted(args.family, params, args.seed), args.output)


def _sweep_task(task: dict) -> dict:
    started = time.perf_counter()
    cfg = SolverConfig(starts=task["starts"], seed=task["seed"])
    doc = verify(task["theorem"], task["h"], task["params"], cfg).to_dict()
    row = {**task, **doc, "wall_ms": f"{(time.perf_counter() - started) * 1000.0:.1f}"}
    return {key: _cell(key, row[key]) for key in _SWEEP_COLUMNS}


def _cell(key: str, value):
    """A sweep CSV cell: None empty, kkt_residual .3e, other floats _fmt."""
    if key == "kkt_residual" and value is not None:
        return f"{value:.3e}"
    return _fmt(value) if value is None or isinstance(value, float) else value


def _parse_seed_range(spec: str) -> list[int]:
    """The --seeds value: a range a..b or a comma list of ``_digits`` tokens."""
    tokens = spec.split("..", 1) if ".." in spec else spec.split(",")
    seeds = [_digits(tok.strip()) for tok in tokens]
    seeds = list(range(seeds[0], seeds[1] + 1)) if ".." in spec else seeds
    if not seeds:
        raise argparse.ArgumentTypeError(f"range {spec!r} is empty")
    return seeds


def _cmd_sweep(args) -> int:
    SolverConfig(args.starts)  # a bad --starts fails before any instance or --out
    params = _load_params(args.params)
    theorems = [tok.strip() for tok in args.theorem.split(",")]
    # A generator failure, an unknown theorem id, or an alpha key a row does
    # not read on any seed's instance, fails before any solve.
    instances = [(seed, gen_planted(args.family, params, seed)) for seed in args.seeds]
    tasks = [{"family": args.family, "params": params, "seed": seed, "theorem": name,
              "starts": args.starts, "h": h} for seed, h in instances for name in theorems]
    for task in tasks:
        _Checker(task["theorem"], task["h"], params).check_keys()
    jobs = min(args.jobs or os.cpu_count() or 1, len(tasks))
    # --out opens for appending before any task runs, so a bad path costs no
    # solve, and it is emptied only once every row is ready, so a failed task
    # leaves an existing file as it was.
    sink = Path(args.out).open("a", newline="") if args.out else sys.stdout
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_task, tasks))
        else:
            rows = [_sweep_task(t) for t in tasks]
        if args.out and sink.seekable():
            sink.truncate(0)
        writer = csv.DictWriter(sink, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()
    failed = sum(1 for row in rows if not row["pass"])
    if failed:
        print(f"{failed}/{len(rows)} sweep rows failed", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="lagrangian", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lagrangian-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--starts", type=_digits, default=SolverConfig.starts,
                       help="random multistart count")
        p.add_argument("--max-iters", dest="max_iters", type=_digits,
                       default=SolverConfig.max_iters)
        p.add_argument("--seed", type=_digits, default=SolverConfig.seed)

    p = sub.add_parser("compute", help="maximize an objective over the simplex")
    p.add_argument("input", help="hypergraph file (JSON or text)")
    p.add_argument(
        "--objective",
        choices=["lambda", "lambda-prime", "weighted"],
        default="lambda",
    )
    p.add_argument("--coeffs", help="coefficients JSON file for --objective weighted")
    p.add_argument("--grid", action="store_true", help="also run the grid oracle and keep the best")
    p.add_argument("--grid-d", dest="grid_d", type=_digits, help="grid resolution (default 24)")
    p.add_argument("--json", action="store_true")
    add_solver_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("clique", help="maximum complete T-subgraph")
    p.add_argument("input")
    p.add_argument("--types", type=_parse_types, help="comma-separated cardinalities, e.g. 2,3")
    p.set_defaults(func=_cmd_clique)

    p = sub.add_parser("compress", help="left-compression predicate or fixpoint")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true", help="test whether already left-compressed")
    group.add_argument("--fixpoint", action="store_true", help="compress to the fixed point")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("verify", help="check a registered closed form on an instance")
    p.add_argument("--theorem", required=True, choices=theorem_ids())
    p.add_argument("--input", required=True)
    p.add_argument("--params", help="JSON object (inline or a file path)")
    p.add_argument("--json", action="store_true")
    add_solver_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="build a planted instance family member")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--params", help="JSON object (inline or a file path)")
    p.add_argument("--seed", type=_digits, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="generate-and-verify over a seed range, CSV out")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--theorem", required=True, help="theorem id, or comma-separated list")
    p.add_argument("--seeds", required=True, type=_parse_seed_range,
                   help="range a..b or comma list")
    p.add_argument("--params", help="JSON object (inline or a file path)")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--jobs", type=_digits, default=None,
                   help="worker processes, at most one per task (default or 0: cores)")
    p.add_argument("--starts", type=_digits, default=16)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
