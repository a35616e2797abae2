"""The benchmark's four workloads.

A workload makes its inputs from the seed and returns the CLI calls of one
round; the harness repeats that round. After each call the workload turns
the call's output into a fingerprint, which must be the same in every
round, and after measuring it checks the outputs with ``checks``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks


@dataclass(frozen=True)
class Op:
    """One CLI call of a round, with what its checker needs to know."""

    argv: tuple[str, ...]
    params: dict

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet_dispatch(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


def _load_deep_json(path: Path):
    """json.load with room for trees nested deeper than the default limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        sys.setrecursionlimit(limit)


def round_sums(rounds, ops: list[Op], subcommand: str) -> list[float]:
    """Seconds each round spent in calls of one subcommand."""
    return [sum(c.seconds for c in calls if ops[c.index].subcommand == subcommand) for calls in rounds]


def call_medians(rounds) -> list[float]:
    """Each call's median seconds over the rounds, in round order."""
    return [statistics.median(c.seconds for c in same) for same in zip(*rounds)]


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, (pct * len(ordered) + 99) // 100)
    return ordered[rank - 1]


class DensityTrials:
    """experiment at the density threshold: every trial must FIND.

    Each call runs one trial of an acceptance configuration at a fixed n,
    so the benchmark times every trial itself. The seed draws the graphs;
    n takes five values over the acceptance range 15..50, equally often,
    so the mix of sizes is the same for every seed. Trial time grows
    steeply with n, so the five sizes sort the trials into five bands of
    equal count: the median trial is the middle of the n=33 band and the
    90th percentile the middle of the n=50 band, never a band edge.
    """

    name = "density-trials"
    CONFIGS = ((2, 3), (3, 3), (2, 1), (2, 2))  # (k, alternative) of the acceptance batches
    SIZES = (15, 24, 33, 41, 50)
    TRIALS_PER_SIZE = 6

    def make_inputs(self, cli, seed: int, workdir: Path) -> list[Op]:
        real_extract = cli.extract

        def capture(g, k, sigma, **kwargs):
            result = real_extract(g, k, sigma, **kwargs)
            self._captured = (g, result)
            return result

        cli.extract = capture  # records the FOUND set at the extract boundary
        self._captured = None
        self._first: dict[int, tuple] = {}
        rng = random.Random(seed)
        ops = []
        for k, alt in self.CONFIGS:
            for n in self.SIZES:
                for _ in range(self.TRIALS_PER_SIZE):
                    out = workdir / f"trial-{len(ops)}.csv"
                    argv = ("experiment", "--trials", "1", "--k", str(k), "--alt", str(alt),
                            "--seed", str(rng.randrange(2**32)), "--n-min", str(n),
                            "--n-max", str(n), "--csv", str(out))
                    ops.append(Op(argv, {"k": k, "alt": alt, "csv": out}))
        return ops

    def observe(self, index: int, op: Op, code: int, stdout: str):
        g, result = self._captured
        self._captured = None
        with open(op.params["csv"], newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        found = sorted(result.subgraph) if result.subgraph is not None else []
        if index not in self._first:
            self._first[index] = (code, g.n, sorted(g.edges), found, row)
        return code, tuple(v for key, v in row.items() if key != "elapsed_ms"), tuple(found)

    def check(self, ops: list[Op], failed: set[int]) -> dict:
        for index, (code, n, edges, found, row) in self._first.items():
            k, alt = ops[index].params["k"], ops[index].params["alt"]
            if code != 0:
                raise checks.CheckError(f"experiment k={k} alt={alt} exited {code}")
            checks.check_threshold_graph(n, len(edges), k, alt)
            checks.check_trial_row(row, n, len(edges), found)
            checks.check_found_set(n, edges, k, alt, found)
        return {}

    def workload_metrics(self, rounds, ops: list[Op]) -> dict:
        seconds = call_medians(rounds)
        return {
            "trials_per_s": (len(seconds) / sum(seconds), "1/s"),
            "trial_ms_p50": (percentile(seconds, 50) * 1000, "ms"),
            "trial_ms_p90": (percentile(seconds, 90) * 1000, "ms"),
        }


class SeparableExtract:
    """extract on extremal instances, which are all SEPARABLE.

    The seed relabels the vertices of each instance. The last call extracts
    from a 1200-vertex path, which fails today with RecursionError in the
    recursive ``explore``; it does not depend on the seed.
    """

    name = "separable-extract"
    INSTANCES = tuple((2, 2, level) for level in range(1, 8)) + ((3, 3, 6),)
    PATH_VERTICES = 1200

    def make_inputs(self, cli, seed: int, workdir: Path) -> list[Op]:
        ops = []
        for k, sigma_k, level in self.INSTANCES:
            built = workdir / f"construct-{k}-{sigma_k}-{level}.json"
            code = _quiet_dispatch(cli, ["construct", "--k", str(k), "--sigma-k", str(sigma_k),
                                         "--level", str(level), "--out", str(built)])
            if code != 0:
                raise RuntimeError(f"construct exited {code}")
            graph = json.loads(built.read_text(encoding="utf-8"))["graph"]
            n = graph["n"]
            perm = list(range(n))
            random.Random(f"{seed}/{k}/{sigma_k}/{level}").shuffle(perm)
            edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph["edges"])
            ops.append(self._op(workdir, len(ops), n, edges, k, Fraction(sigma_k, k)))
        n = self.PATH_VERTICES
        ops.append(self._op(workdir, len(ops), n, [(i, i + 1) for i in range(n - 1)], 1, Fraction(1)))
        return ops

    def _op(self, workdir: Path, index: int, n: int, edges, k: int, sigma: Fraction) -> Op:
        source, out = workdir / f"graph-{index}.json", workdir / f"tree-{index}.json"
        source.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}), encoding="utf-8")
        argv = ("extract", "--in", str(source), "--k", str(k), "--sigma", str(sigma), "--out", str(out))
        return Op(argv, {"n": n, "edges": edges, "k": k, "sigma": sigma, "out": out})

    def observe(self, index: int, op: Op, code: int, stdout: str):
        return code, _digest(op.params["out"])

    def check(self, ops: list[Op], failed: set[int]) -> dict:
        nodes = depth = 0
        for index, op in enumerate(ops):
            if index in failed:
                continue
            p = op.params
            tree_nodes, tree_depth = checks.check_separable_tree(
                _load_deep_json(p["out"]), p["n"], p["edges"], p["k"], p["sigma"])
            nodes += tree_nodes
            depth = max(depth, tree_depth)
        return {"tree": (nodes, depth)}

    def workload_metrics(self, rounds, ops: list[Op]) -> dict:
        return {"extract_s": (statistics.median(round_sums(rounds, ops, "extract")), "s")}


class ExtremalCertify:
    """construct then certify at large levels, and at one level small enough
    for the brute-force scan. The construction has no randomness, so the
    seed changes nothing here."""

    name = "extremal-certify"
    INSTANCES = ((2, 2, 3), (2, 2, 12), (2, 2, 13))

    def make_inputs(self, cli, seed: int, workdir: Path) -> list[Op]:
        ops = []
        self._certify_out: dict[int, tuple[int, str]] = {}
        for k, sigma_k, level in self.INSTANCES:
            path = workdir / f"instance-{k}-{sigma_k}-{level}.json"
            params = {"k": k, "sigma_k": sigma_k, "level": level, "path": path}
            ops.append(Op(("construct", "--k", str(k), "--sigma-k", str(sigma_k),
                           "--level", str(level), "--out", str(path)), params))
            ops.append(Op(("certify", "--in", str(path)), params))
        return ops

    def observe(self, index: int, op: Op, code: int, stdout: str):
        if op.subcommand == "construct":
            return code, _digest(op.params["path"])
        self._certify_out.setdefault(index, (code, stdout))
        return code, stdout

    def check(self, ops: list[Op], failed: set[int]) -> dict:
        for index, op in enumerate(ops):
            if index in failed:
                continue
            p = op.params
            if op.subcommand == "construct":
                with open(p["path"], encoding="utf-8") as fh:
                    checks.check_extremal_instance(json.load(fh), p["k"], p["sigma_k"], p["level"])
            else:
                code, stdout = self._certify_out[index]
                if code != 0:
                    raise checks.CheckError(f"certify at level {p['level']} exited {code}")
                checks.check_certify_output(stdout)
        return {}

    def workload_metrics(self, rounds, ops: list[Op]) -> dict:
        return {
            "construct_s": (statistics.median(round_sums(rounds, ops, "construct")), "s"),
            "certify_s": (statistics.median(round_sums(rounds, ops, "certify")), "s"),
        }


class BoundTable:
    """verify-bounds --alt all, once per round. The table has no inputs, so
    the seed changes nothing here."""

    name = "bound-table"

    def make_inputs(self, cli, seed: int, workdir: Path) -> list[Op]:
        self._first = None
        path = workdir / "bounds.json"
        return [Op(("verify-bounds", "--alt", "all", "--json", str(path)), {"path": path})]

    def observe(self, index: int, op: Op, code: int, stdout: str):
        if self._first is None:
            self._first = (code, stdout)
        return code, stdout, _digest(op.params["path"])

    def check(self, ops: list[Op], failed: set[int]) -> dict:
        if failed:
            return {}
        code, stdout = self._first
        with open(ops[0].params["path"], encoding="utf-8") as fh:
            reports = json.load(fh)
        if code != 0:
            raise checks.CheckError(f"verify-bounds exited {code}")
        checks.check_bound_reports(reports)
        last = stdout.strip().splitlines()[-1]
        if last != f"{len(reports)}/{len(reports)} obligations passed":
            raise checks.CheckError(f"verify-bounds summary reads {last!r}")
        return {}

    def workload_metrics(self, rounds, ops: list[Op]) -> dict:
        return {"bound_table_ms": (statistics.median(c.seconds for (c,) in rounds) * 1000, "ms")}


WORKLOADS = {w.name: w for w in (DensityTrials, SeparableExtract, ExtremalCertify, BoundTable)}
