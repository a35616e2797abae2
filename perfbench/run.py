"""Benchmark for hcs: one workload of CLI calls, timed from outside the program.

Run from the root of the repository:

    python3 perfbench/run.py --workload density-trials --seed 1 --seconds 10 --trace 0

The workload's calls go through ``hcs.cli.dispatch`` in this process, on
one thread, in rounds of the same calls until ``--seconds`` have passed,
and at least two rounds. Times are wall times scaled to a reference speed
(see speed.py). With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are reported; with ``--trace 1`` half the time goes to untraced rounds and
half to at least two traced rounds, and the per-layer metrics are
reported, the tracing overhead among them. Each metric is printed by name and unit; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``--json FILE`` also writes the whole
report, workload figures included, to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy is imported by hcs; keep it to this thread
os.environ["HCS_LOG"] = "quiet"

import speed  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 21
MIN_ROUNDS = 2  # outputs are compared between rounds, so a run needs two


@dataclass
class Call:
    index: int
    span: tuple[float, float, float]  # start, end, wall seconds less sampling
    failed: bool
    fingerprint: object
    seconds: float = 0.0  # the wall seconds at the reference speed, set after measuring


def import_cli():
    """Import hcs afresh from this checkout's source tree."""
    for name in [m for m in sys.modules if m == "hcs" or m.startswith("hcs.")]:
        del sys.modules[name]
    cli = importlib.import_module("hcs.cli")
    if Path(cli.__file__).resolve().parent != SRC / "hcs":
        raise ImportError(f"hcs was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload, seed: int, workdir: Path, reps: int, clock: speed.Clock):
    """Import hcs and make the inputs, reps times; returns the last set-up
    and the span of each."""
    spans = []
    for _ in range(reps):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        mark = clock.mark()
        cli = import_cli()
        ops = workload.make_inputs(cli, seed, workdir)
        spans.append(clock.since(mark))
    return cli, ops, spans


def run_round(cli, workload, ops, failures: dict, clock: speed.Clock) -> list[Call]:
    calls = []
    for index, op in enumerate(ops):
        out = io.StringIO()
        mark = clock.mark()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.dispatch(list(op.argv))
        except Exception as exc:  # a crash is a failed call; it is counted and reported
            span = clock.since(mark)
            code, reason = None, type(exc).__name__
        else:
            span = clock.since(mark)
            reason = f"exit {code}"
        if code is None or code == 2:  # 2 is the CLI's usage or resource error
            key = f"{op.subcommand} #{index}: {reason}"
            failures[key] = failures.get(key, 0) + 1
            calls.append(Call(index, span, True, reason))
        else:
            calls.append(Call(index, span, False, workload.observe(index, op, code, out.getvalue())))
    return calls


def measure(cli, workload, ops, seconds: float, min_rounds: int, failures: dict,
            clock: speed.Clock, tracer=None):
    rounds, snaps = [], []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(run_round(cli, workload, ops, failures, clock))
        if tracer is not None:
            snaps.append(tracer.take())
    return rounds, snaps


def unchanged_outputs(rounds: list[list[Call]]) -> bool:
    """Every call gave the same output, or failed the same way, in every round."""
    return all(len({(c.failed, c.fingerprint) for c in same}) == 1 for same in zip(*rounds))


def round_seconds(calls: list[Call]) -> float:
    return sum(c.seconds for c in calls)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args, workload, workdir: Path) -> tuple[dict, dict, list[str]]:
    """Set up, measure and check; returns (result, full report, problems)."""
    problems: list[str] = []
    failures: dict[str, int] = {}
    clock = speed.Clock()
    snaps: list[dict] = []
    with clock:
        cli, ops, setup_spans = set_up(workload, args.seed, workdir,
                                       1 if args.trace else SETUP_REPS, clock)
        if args.trace:
            untraced, _ = measure(cli, workload, ops, args.seconds / 2, 1, failures, clock)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, snaps = measure(cli, workload, ops, args.seconds / 2, MIN_ROUNDS,
                                        failures, clock, tracer)
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            rounds, _ = measure(cli, workload, ops, args.seconds, MIN_ROUNDS, failures, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for calls in rounds:
        for c in calls:
            c.seconds = clock.scaled(*c.span)
    if not unchanged_outputs(rounds):
        problems.append("a call's output changed between rounds")
    failed = {c.index for calls in rounds for c in calls if c.failed}
    try:
        facts = workload.check(ops, failed)
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        problems.append(f"check failed: {type(exc).__name__}: {exc}")
        facts = {}
    if args.trace:
        for name in tracer.missing:
            print(f"warning: not traced, no such function: {name}", file=sys.stderr)
        counts = [tracing.round_counts(s) for s in snaps]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
        for calls, snap in zip(traced, snaps):  # layer times at the reference speed too
            factor = round_seconds(calls) / sum(c.span[2] for c in calls)
            snap["seconds"] = {layer: s * factor for layer, s in snap["seconds"].items()}
        metrics = tracing.layer_metrics(snaps, facts.get("tree"))
        metrics["trace.overhead_share"] = (statistics.median(map(round_seconds, traced))
                                           / statistics.median(map(round_seconds, untraced)) - 1)
        figures = {}
    else:
        metrics = {
            "setup_s": statistics.median(clock.scaled(*span) for span in setup_spans),
            "peak_rss_mb": peak_rss_mb,
            "round_s": statistics.median(map(round_seconds, rounds)),
        }
        figures = workload.workload_metrics(rounds, ops)
    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("the metrics measured are not the metrics BENCHMARK.json declares")
    result = {
        "correct": not problems,
        "attempted": sum(len(calls) for calls in rounds),
        "failed": sum(c.failed for calls in rounds for c in calls),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "calls_per_round": len(ops),
        "failures": failures, "problems": problems, **result,
        "round_wall_s": statistics.median(sum(c.span[2] for c in calls) for calls in rounds),
        "reference_ms": statistics.median(clock.samples) * 1000,
        "workload_metrics": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }
    return result, report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the whole report to this file")
    args = parser.parse_args(argv)
    if not (SRC / "hcs" / "__init__.py").is_file():
        print(f"error: no hcs source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, report, problems = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for reason, count in report["failures"].items():
        print(f"failed {count}x: {reason}", file=sys.stderr)
    print(f"{report['workload']} seed={args.seed} rounds={report['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for name, m in {**result["metrics"], **report["workload_metrics"]}.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
