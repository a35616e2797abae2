"""Command-line harness: construction, extraction, certification, experiments.

Subcommands:
  construct      build an extremal instance and write graph JSON + metadata
  extract        run the subgraph extractor on a graph JSON file
  verify-bounds  certify the proof-obligation table
  experiment     randomized testing of the density implication, CSV output
  certify        re-verify a constructed instance from its JSON file

Exit codes: 0 all passed, 1 a failed verdict, 2 a usage or resource error
(bad arguments or input, stack depth or memory).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (
    _ALTERNATIVES,
    ParameterAlternative,
    density_threshold,
    get_alternative,
    reports_to_csv,
    reports_to_json,
    verify_all_bounds,
    verify_alternative,
)
from .extractor import FOUND, extract, write_result_json
from .extremal import (
    _write_extremal_json,
    build_extremal,
    extremal_from_json_dict,
    sharpness_rate,
    verify_extremal,
)
from .graphs import (
    VERTEX_CAP,
    SimpleGraph,
    _check_k,
    _is_int,
    _unchecked_graph,
    average_degree,
    graph_from_json_dict,
    graph_to_dot,
)

@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible batch configuration; trial t uses seed + t."""

    trials: int
    k: int
    n_range: tuple[int, int]
    alternative_id: int
    seed: int

    def __post_init__(self) -> None:
        if not all(map(_is_int, (self.trials, self.k, *self.n_range, self.seed))):
            raise ValueError("'trials', 'k', 'n_range' and 'seed' must be integers")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_k(self.k)
        lo, hi = self.n_range
        if lo > hi or lo < 1:
            raise ValueError("n_range must be a non-empty positive interval")
        if hi > VERTEX_CAP:
            raise ValueError(f"n_range goes up to {hi} vertices, above the cap {VERTEX_CAP}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        get_alternative(self.alternative_id)  # refuses a non-integer or unknown id


@dataclass(frozen=True)
class TrialRow:
    trial: int
    n: int
    e: int
    d_bar: Fraction
    outcome: str
    h_size: Optional[int]
    elapsed_ms: int

    def csv_fields(self) -> list[str]:
        return ["" if (value := getattr(self, name)) is None else str(value) for name in _TRIAL_COLUMNS]


# the CSV columns: TrialRow's fields, in order
_TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRow))


NOT_APPLICABLE_SATURATED = "NOT_APPLICABLE_SATURATED"


# (delta, k, n) -> trial edge count, once per process. The key is the exact delta,
# not the id, which alternative_1(sigma) shares with get_alternative(1) at another
# delta, nor the alternative, whose hash hashes all four of its exact fields.
_EDGE_COUNTS: dict[tuple, int] = {}


def _threshold_edge_count(alt: ParameterAlternative, k: int, n: int) -> int:
    """Smallest e with 2e/n >= density_threshold(alt, k); memoized per process."""
    key = (alt.delta, k, n)
    e = _EDGE_COUNTS.get(key)
    if e is None:
        e = _EDGE_COUNTS[key] = math.ceil(n * density_threshold(alt, k) / 2)
    return e


def _shuffle(items: list, rng: random.Random) -> None:
    """Shuffle items in place with exactly the draws ``rng.shuffle(items)`` makes.

    Fisher-Yates (Durstenfeld, CACM 7(7), 1964, Algorithm 235): for i from
    len - 1 down to 1, swap items[i] with items[j] for j uniform in 0..i,
    drawn as getrandbits((i + 1).bit_length()) until it is at most i. The
    bit width is fixed over each block of i whose i + 1 shares a bit
    length, so it is computed once per block.
    """
    getrandbits = rng.getrandbits
    top = len(items) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        bottom = max((1 << (bits - 1)) - 1, 1)  # least i with (i + 1).bit_length() == bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        top = bottom - 1


def run_trial(t: int, cfg: ExperimentConfig, alt: ParameterAlternative) -> TrialRow:
    rng = random.Random(cfg.seed + t)
    n = rng.randint(*cfg.n_range)
    start = time.perf_counter()
    target_e = _threshold_edge_count(alt, cfg.k, n)
    max_e = n * (n - 1) // 2
    if target_e > max_e:
        elapsed = int((time.perf_counter() - start) * 1000)
        return TrialRow(t, n, 0, Fraction(0), NOT_APPLICABLE_SATURATED, None, elapsed)
    pairs = list(itertools.combinations(range(n), 2))  # (u, v) with u < v, lexicographic
    _shuffle(pairs, rng)
    g = _unchecked_graph(n, frozenset(pairs[:target_e]))
    result = extract(g, cfg.k, alt.sigma)
    h_size = len(result.subgraph) if result.outcome == FOUND else None
    elapsed = int((time.perf_counter() - start) * 1000)
    return TrialRow(t, n, g.edge_count, average_degree(g), result.outcome, h_size, elapsed)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialRow], bool]:
    """Run all trials; returns the rows and whether every applicable trial found."""
    alt = get_alternative(cfg.alternative_id)
    rows = [run_trial(t, cfg, alt) for t in range(1, cfg.trials + 1)]
    ok = all(r.outcome in (FOUND, NOT_APPLICABLE_SATURATED) for r in rows)
    return rows, ok


def rows_to_csv(rows: Sequence[TrialRow]) -> str:
    """The rows as CSV text; no field needs quoting: each is an integer, a
    fraction p/q, an outcome name or empty."""
    lines = [",".join(_TRIAL_COLUMNS), *(",".join(r.csv_fields()) for r in rows)]
    return "\n".join(lines) + "\n"


# --- subcommand handlers ---------------------------------------------------------

@contextlib.contextmanager
def _collector_paused():
    """Run the block, or the decorated call, with the cyclic garbage collector
    off, then restore its state.

    Building or loading an instance allocates a tuple per edge, and loading a
    list per edge too, enough to set off dozens of collections; the data is
    acyclic, so none could free any of it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_graph(path: str) -> SimpleGraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "graph" in data:  # accept construct output as well
        data = data["graph"]
    return graph_from_json_dict(data)


@_collector_paused()  # the builder makes no cycles, so a collection could free nothing
def _cmd_construct(args) -> int:
    e = build_extremal(args.k, args.sigma_k, args.level)
    with open(args.out, "w", encoding="utf-8") as fh:
        _write_extremal_json(e, fh)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(e.graph))
    sharpness_rate(e)  # raises if the construction lost edges
    print(f"wrote {args.out}: n={e.graph.n} e={e.graph.edge_count}")
    return 0


def _parse_sigma(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse sigma {text!r}") from exc


def _cmd_extract(args) -> int:
    g = _load_graph(args.infile)
    if args.alt is not None:
        sigma = get_alternative(args.alt).sigma
    else:
        sigma = _parse_sigma(args.sigma)
    result = extract(g, args.k, sigma)
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        write_result_json(result, fh)
        fh.write("\n")
    return 0


def _cmd_verify_bounds(args) -> int:
    if args.alt == "all":
        reports = verify_all_bounds()
    else:
        reports = verify_alternative(get_alternative(int(args.alt)))
    width = max(len(r.obligation_id) for r in reports)
    for r in reports:
        print(
            f"{r.obligation_id:<{width}}  lhs={r.lhs:>18} rhs={r.rhs:>18} "
            f"margin={float(r.margin):>12.4g}  {r.verdict}"
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(reports_to_json(reports), indent=1) + "\n")
    failed = [r for r in reports if r.verdict == "FAIL"]
    print(f"{len(reports) - len(failed)}/{len(reports)} obligations passed")
    return 1 if failed else 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        trials=args.trials,
        k=args.k,
        n_range=(args.n_min, args.n_max),
        alternative_id=args.alt,
        seed=args.seed,
    )
    rows, ok = run_experiment(cfg)
    text = rows_to_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    found = sum(1 for r in rows if r.outcome == FOUND)
    saturated = sum(1 for r in rows if r.outcome == NOT_APPLICABLE_SATURATED)
    print(f"{found} found, {saturated} saturated, {len(rows)} trials: "
          f"{'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


@_collector_paused()  # until the handler's frame, which holds the instance, is freed
def _cmd_certify(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        e = extremal_from_json_dict(json.load(fh))
    report = verify_extremal(e)
    extraction = (
        "skipped" if report.extraction_ok is None
        else ("pass" if report.extraction_ok else "FAIL")
    )
    checks = [
        ("no-large-connected-subgraph", report.no_large_subgraph_ok,
         f"certificate={'pass' if report.certificate_ok else 'FAIL'} extract={extraction}"),
        ("vertex-count", report.vertex_count_ok, ""),
        ("pool-partition", report.partition_ok, ""),
        ("edge-bound", report.edge_bound_ok,
         f"e={report.edge_count} bound={float(report.edge_lower_bound):.6g}"),
    ]
    for name, ok, extra in checks:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if extra:
            line += f"  ({extra})"
        print(line)
    # with the vertex count right, the rate falls below its floor only when
    # the edge bound fails, so report.passed is already the verdict
    try:
        lhs, rhs = sharpness_rate(e)
        print(f"rate: 2e/(v-k) = {lhs} >= {rhs}")
    except ArithmeticError as exc:
        print(f"rate: FAIL ({exc})")
    return 0 if report.passed else 1


@functools.cache  # parsing leaves the parser as it was, so one serves every dispatch
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcs",
        description="Dense graphs and large highly connected subgraphs: "
        "constructions, extraction, and bound certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an extremal instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma-k", type=int, required=True, dest="sigma_k")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("extract", help="extract a highly connected subgraph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", help="size parameter as an exact rational, e.g. 0.2 or 1/5")
    group.add_argument("--alt", type=int, choices=tuple(_ALTERNATIVES))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify-bounds", help="certify the proof-obligation table")
    p.add_argument("--alt", choices=(*map(str, _ALTERNATIVES), "all"), required=True)
    p.add_argument("--csv", help="write the reports as CSV")
    p.add_argument("--json", help="write the reports as JSON")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("experiment", help="randomized density-implication trials")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alt", type=int, choices=tuple(_ALTERNATIVES), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", help="output CSV path (stdout when omitted)")
    p.add_argument("--n-min", type=int, default=15)
    p.add_argument("--n-max", type=int, default=50)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("certify", help="re-verify a constructed instance")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_certify)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and run the chosen subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print("error:", type(exc).__name__ + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
