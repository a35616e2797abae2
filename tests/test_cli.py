import bisect
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import hcs
from hcs import (
    ExperimentConfig,
    SimpleGraph,
    build_extremal,
    dispatch,
    extract,
    extremal_from_json_dict,
    run_experiment,
    verify_extremal,
)
from hcs.bounds import alternative_1, density_threshold, get_alternative, reports_to_json, verify_all_bounds
from hcs.cli import NOT_APPLICABLE_SATURATED, _shuffle, build_parser, rows_to_csv, run_trial
from hcs.graphs import VERTEX_CAP, graph_from_json_dict
from conftest import (brute_force_hcs, extremal_to_json_dict, graph_to_json_dict, random_graph,
                      result_to_json_dict, tree_check_oracle, tree_from_json_dict)
from test_golden import relabelled


INTEGERS = "'k', 'sigma_k' and 'level' must be integers"


def strip_elapsed(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


class TestDispatch:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert dispatch(["extract", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_verify_bounds_alt3(self, capsys):
        code = dispatch(["verify-bounds", "--alt", "3"])
        out = capsys.readouterr().out
        assert code == 0
        pass_rows = [l for l in out.splitlines() if l.endswith("PASS")]
        assert len(pass_rows) == 9
        assert "9/9 obligations passed" in out

    def test_verify_bounds_all_with_outputs(self, capsys, tmp_path):
        csv_path = tmp_path / "reports.csv"
        json_path = tmp_path / "reports.json"
        code = dispatch([
            "verify-bounds", "--alt", "all",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "obligation_id,params,lhs,rhs,margin,verdict"
        assert len(lines) == 25
        data = json.loads(json_path.read_text())
        assert all(entry["verdict"] == "PASS" for entry in data)

    def test_construct_extract_certify_round_trip(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        dot = tmp_path / "g.dot"
        assert dispatch([
            "construct", "--k", "2", "--sigma-k", "2", "--level", "1",
            "--out", str(out), "--dot", str(dot),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["graph"]["n"] == 6
        assert len(payload["graph"]["edges"]) == 11
        assert payload["metadata"]["k"] == 2
        assert dot.read_text().startswith("graph G {")

        result_path = tmp_path / "res.json"
        assert dispatch([
            "extract", "--in", str(out), "--k", "2", "--sigma", "0.2",
            "--out", str(result_path),
        ]) == 0
        capsys.readouterr()
        result = json.loads(result_path.read_text())
        assert result["outcome"] == "FOUND"
        assert len(result["subgraph"]) == 4

        assert dispatch(["certify", "--in", str(out)]) == 0
        out_text = capsys.readouterr().out
        assert "no-large-connected-subgraph: PASS" in out_text

    @pytest.mark.parametrize("level", [0, 3, 8])
    def test_construct_writes_compact_json(self, capsys, tmp_path, level):
        out = tmp_path / "g.json"
        assert dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", str(level),
                         "--out", str(out)]) == 0
        text = out.read_text()
        assert json.loads(text) == extremal_to_json_dict(build_extremal(2, 2, level))
        assert text.endswith("}\n") and not any(c in text[:-1] for c in " \t\n")
        assert dispatch(["certify", "--in", str(out)]) == 0
        capsys.readouterr()

    def test_one_parser_serves_every_dispatch(self, capsys, tmp_path):
        # the parser is built once per process; no call may see another's arguments
        first, second, dot = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "a.dot"
        assert dispatch(["construct", "--k", "1", "--sigma-k", "1", "--level", "2",
                         "--out", str(first), "--dot", str(dot)]) == 0
        parser = build_parser()
        assert dispatch(["certify", "--bogus"]) == 2
        assert dispatch(["certify", "--in", str(first)]) == 0
        assert dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1",
                         "--out", str(second)]) == 0
        assert dispatch(["verify-bounds", "--alt", "3"]) == 0
        assert build_parser() is parser
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.dot", "a.json", "b.json"]
        out = capsys.readouterr().out
        assert "no-large-connected-subgraph: PASS" in out and "obligations passed" in out

    def test_extract_with_alt(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "2",
                  "--out", str(out)])
        capsys.readouterr()
        assert dispatch(["extract", "--in", str(out), "--k", "2", "--alt", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["outcome"] == "SEPARABLE"

    def test_certify_fails_on_tampered_instance(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1",
                  "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["graph"]["edges"] = payload["graph"]["edges"][:-1]  # drop an edge
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 1
        capsys.readouterr()

    def test_certify_fails_on_complete_graph(self, capsys, tmp_path):
        # the complete graph on 18 vertices is 3-connected: extract finds it whole
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "3", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["graph"] = graph_to_json_dict(SimpleGraph.complete(payload["graph"]["n"]))
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 1
        assert "no-large-connected-subgraph: FAIL  (certificate=FAIL extract=FAIL)" in capsys.readouterr().out

    def test_certify_fails_on_truncated_instance(self, capsys, tmp_path):
        # one vertex short of its level: the certificate walk raised IndexError
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "4", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        last = payload["graph"]["n"] = payload["graph"]["n"] - 1
        payload["graph"]["edges"] = [e for e in payload["graph"]["edges"] if last not in e]
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 1
        text = capsys.readouterr().out
        assert "certificate=FAIL" in text and "vertex-count: FAIL" in text

    def test_certify_fails_on_a_huge_sigma_k_in_small_memory(self, capsys, tmp_path):
        # a 6-vertex level-1 file that claims sigma_k = 10^6: the certificate
        # walk must compare n with the size the metadata claims before it
        # builds a label list of that size (10^6 entries, about 93 MB)
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["metadata"]["sigma_k"] = 10**6
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 1
        text = capsys.readouterr().out
        assert "certificate=FAIL" in text and "vertex-count: FAIL" in text
        e = extremal_from_json_dict(payload)
        tracemalloc.start()
        try:
            report = verify_extremal(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.certificate_ok and not report.passed and peak < 2**20

    def test_missing_file_is_usage_error(self, capsys):
        assert dispatch(["extract", "--in", "/nonexistent.json", "--k", "2",
                         "--sigma", "0.2"]) == 2
        capsys.readouterr()

    def test_extract_long_cycle(self, capsys, tmp_path):
        source, result_path = tmp_path / "cycle.json", tmp_path / "res.json"
        source.write_text(json.dumps({"n": 700, "edges": sorted(SimpleGraph.cycle(700).edges)}))
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "1",
                         "--out", str(result_path)]) == 0
        capsys.readouterr()
        result = json.loads(result_path.read_text())
        assert result["outcome"] == "FOUND" and len(result["subgraph"]) == 700

    def test_extract_long_cycle_separable(self, capsys, tmp_path):
        # a tree about 700 levels deep, which the writer must not recurse into
        source, result_path = tmp_path / "cycle.json", tmp_path / "res.json"
        source.write_text(json.dumps({"n": 700, "edges": sorted(SimpleGraph.cycle(700).edges)}))
        assert dispatch(["extract", "--in", str(source), "--k", "2", "--sigma", "1",
                         "--out", str(result_path)]) == 0
        capsys.readouterr()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))  # json.loads recurses once per level
        try:
            result = json.loads(result_path.read_text())
        finally:
            sys.setrecursionlimit(limit)
        assert result["outcome"] == "SEPARABLE"
        assert result["tree"]["vertices"] == list(range(700))

    def test_extract_output_of_a_path_stays_small(self, capsys, tmp_path):
        # the tree of a path is as deep as the path is long; indented, its
        # nested JSON grew like n^3 (21 MB at n=300)
        source, result_path = tmp_path / "path.json", tmp_path / "res.json"
        source.write_text(json.dumps({"n": 300, "edges": sorted(SimpleGraph.path(300).edges)}))
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "1",
                         "--out", str(result_path)]) == 0
        capsys.readouterr()
        assert result_path.stat().st_size < 1_000_000

    @pytest.mark.parametrize("error", [
        RecursionError("maximum recursion depth exceeded"),
        MemoryError(),
    ])
    def test_resource_error_exits_2(self, capsys, monkeypatch, tmp_path, error):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr("hcs.cli.extract", exhausted)
        source = tmp_path / "g.json"
        source.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "1"]) == 2
        expected = {  # an empty message gets no colon
            RecursionError: "error: RecursionError: maximum recursion depth exceeded",
            MemoryError: "error: MemoryError",
        }
        assert capsys.readouterr().err.splitlines() == [expected[type(error)]]

    @pytest.mark.parametrize("payload", [
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, null]]}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[0.9, 2.2]]}',
        '5',
        '{"n": 3,',  # not JSON at all
    ])
    def test_malformed_graph_json_exits_2(self, capsys, tmp_path, payload):
        source = tmp_path / "g.json"
        source.write_text(payload)
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_construct_above_the_vertex_cap_exits_2(self, capsys, tmp_path):
        # level 16 at k=2, sigma_k=2 would need 131074 vertices; nothing is built
        out = tmp_path / "g.json"
        args = ["construct", "--k", "2", "--sigma-k", "2", "--level", "16", "--out", str(out)]
        assert dispatch(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(VERTEX_CAP) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("level", [1000, 1_000_000])
    def test_construct_at_a_huge_level_exits_2(self, capsys, tmp_path, level):
        # the level is bounded before 2^level, hundreds of thousands of digits, is computed
        out = tmp_path / "g.json"
        args = ["construct", "--k", "2", "--sigma-k", "2", "--level", str(level), "--out", str(out)]
        start = time.perf_counter()
        assert dispatch(args) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: level {level} ") and str(VERTEX_CAP) in err[0]
        assert len(err[0]) < 100 and not out.exists()

    @pytest.mark.parametrize("level", [1000, 1_000_000])
    def test_certify_at_a_huge_level_exits_2(self, capsys, tmp_path, level):
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["metadata"]["level"] = level
        out.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert dispatch(["certify", "--in", str(out)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: level {level} ") and err[0].endswith("the deepest for 6 vertices")

    def test_extract_above_the_vertex_cap_exits_2(self, capsys, tmp_path):
        # the cap is checked before any per-vertex structure is allocated
        source = tmp_path / "g.json"
        source.write_text(json.dumps({"n": VERTEX_CAP + 1, "edges": []}))
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(VERTEX_CAP) in err[0]

    def test_experiment_above_the_vertex_cap_exits_2(self, capsys, monkeypatch):
        # refused by the config, before any trial runs
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("hcs.cli.run_trial", no_trial)
        args = ["experiment", "--trials", "1", "--k", "2", "--alt", "3", "--seed", "1",
                "--n-min", "15", "--n-max", str(VERTEX_CAP + 1)]
        assert dispatch(args) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(VERTEX_CAP) in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("key, edit, message", [
        pytest.param("level", lambda meta: meta["level"] + 0.9, INTEGERS, id="level-float"),
        pytest.param("sigma_k", lambda meta: str(meta["sigma_k"]), INTEGERS, id="sigma_k-string"),
        pytest.param("level", lambda meta: True, INTEGERS, id="level-bool"),
        pytest.param("parts", lambda meta: [[v + 0.7 for v in meta["parts"][0]]] + meta["parts"][1:],
                     "'parts' must be a list of lists of integers", id="pool-vertex-float"),
        pytest.param("glue_history", lambda meta: [[float(v) for v in y] for y in meta["glue_history"]],
                     "'glue_history' must be a list of lists of integers", id="glue-vertex-float"),
        pytest.param("glue_history", lambda meta: ["".join(map(str, y)) for y in meta["glue_history"]],
                     "'glue_history' must be a list of lists of integers", id="glue-set-string"),
        pytest.param("parts", lambda meta: None, "'parts' must be a list of lists of integers", id="parts-null"),
        pytest.param("sigma_k", lambda meta: 1, "malformed parameters", id="sigma_k-below-k"),
        pytest.param("parts", lambda meta: [[1, 3, 4, 5]], "expected 2 pool parts, got 1", id="part-count"),
        pytest.param("parts", lambda meta: [[1, 3], [4, 6]], "pool vertex 6 out of range", id="pool-vertex-range"),
        pytest.param("parts", lambda meta: [[1, 3], [4]], "pool covers 3 vertices, expected 4", id="pool-cover"),
        pytest.param("glue_history", lambda meta: [], "one gluing set per level is required", id="glue-count"),
        pytest.param("glue_history", lambda meta: [[0, 5]], "gluing set 0 out of its level range",
                     id="glue-range"),
        pytest.param("glue_history", lambda meta: [[0, 2, 0]], "gluing set 0 must be 2 distinct vertices",
                     id="glue-vertex-repeated"),
    ])
    def test_malformed_extremal_metadata_exits_2(self, capsys, tmp_path, key, edit, message):
        # level 1 at k = 2, sigma_k = 2: six vertices, parts [[1, 3], [4, 5]], glue [[0, 2]]
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["metadata"][key] = edit(payload["metadata"])
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"] and captured.out == ""

    def test_unbalanced_pool_parts_fail_the_partition(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1", "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        payload["metadata"]["parts"] = [[1, 3, 4], [5]]  # the same four pool vertices, 3 against 1
        out.write_text(json.dumps(payload))
        assert dispatch(["certify", "--in", str(out)]) == 1
        assert "pool-partition: FAIL" in capsys.readouterr().out.splitlines()

    def test_unparsable_sigma_exits_2(self, capsys, tmp_path):
        source = tmp_path / "g.json"
        source.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert dispatch(["extract", "--in", str(source), "--k", "1", "--sigma", "abc"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: cannot parse sigma 'abc'"]

    def test_experiment_seed_above_64_bits_exits_2(self, capsys):
        args = ["experiment", "--trials", "1", "--k", "2", "--alt", "3", "--seed", str(2**64)]
        assert dispatch(args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: seed must fit in 64 bits"] and captured.out == ""

    def test_grid_step_flag_is_gone(self, capsys):
        assert dispatch(["verify-bounds", "--alt", "3", "--grid-step", "1/100"]) == 2
        capsys.readouterr()


class TestAlternativeChoices:
    """Every subcommand with ``--alt`` takes the ids 1, 2 and 3 and refuses 4 as
    a usage error."""

    @pytest.fixture
    def graph_file(self, tmp_path):
        source = tmp_path / "g.json"
        source.write_text(json.dumps(graph_to_json_dict(build_extremal(2, 2, 1).graph)))
        return str(source)

    def commands(self, graph_file: str, alt: str) -> dict[str, list[str]]:
        return {
            "extract": ["extract", "--in", graph_file, "--k", "2", "--alt", alt],
            "experiment": ["experiment", "--trials", "1", "--k", "1", "--alt", alt, "--seed", "1",
                           "--n-min", "6", "--n-max", "8"],
            "verify-bounds": ["verify-bounds", "--alt", alt],
        }

    @pytest.mark.parametrize("alt", ["1", "2", "3"])
    def test_each_id_is_accepted(self, capsys, graph_file, alt):
        for name, argv in self.commands(graph_file, alt).items():
            assert dispatch(argv) == 0, name
            captured = capsys.readouterr()
            assert captured.err == "" and captured.out, name

    def test_unknown_id_is_a_usage_error(self, capsys, graph_file):
        # argparse words the choices differently across Python versions; the
        # usage line's {...} and the start of the error line do not change
        for name, argv in self.commands(graph_file, "4").items():
            assert dispatch(argv) == 2, name
            usage, *_, error = capsys.readouterr().err.splitlines()
            choices = "{1,2,3,all}" if name == "verify-bounds" else "{1,2,3}"
            assert f"--alt {choices}" in usage, name
            assert error.startswith(f"hcs {name}: error: argument --alt: invalid choice: "), name

    def test_all_is_accepted_by_verify_bounds_alone(self, capsys, graph_file):
        assert dispatch(["verify-bounds", "--alt", "all"]) == 0
        assert capsys.readouterr().out.endswith("24/24 obligations passed\n")
        for name in ("extract", "experiment"):
            assert dispatch(self.commands(graph_file, "all")[name]) == 2, name
            error = capsys.readouterr().err.splitlines()[-1]
            assert error == f"hcs {name}: error: argument --alt: invalid int value: 'all'", name


def run_optimized(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -O -m hcs`` on argv with this checkout's sources."""
    src = str(Path(hcs.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-m", "hcs", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_extract_under_python_optimize(tmp_path):
    # -O strips assert statements: the answer must not rest on them
    g = relabelled(build_extremal(2, 2, 4).graph, 4)
    source = tmp_path / "g.json"
    source.write_text(json.dumps(graph_to_json_dict(g)))
    done = run_optimized("extract", "--in", str(source), "--k", "2", "--sigma", "1")
    assert done.returncode == 0, done.stderr
    expected = result_to_json_dict(extract(g, 2, 1))
    assert expected["outcome"] == "SEPARABLE"
    assert json.loads(done.stdout) == json.loads(json.dumps(expected))


def test_construct_and_certify_under_python_optimize(tmp_path):
    out = str(tmp_path / "g.json")
    done = run_optimized("construct", "--k", "2", "--sigma-k", "2", "--level", "6", "--out", out)
    assert done.returncode == 0, done.stderr
    done = run_optimized("certify", "--in", out)
    assert done.returncode == 0, done.stderr
    assert "no-large-connected-subgraph: PASS  (certificate=pass extract=pass)" in done.stdout


def test_verify_bounds_under_python_optimize(tmp_path):
    out = tmp_path / "bounds.json"
    done = run_optimized("verify-bounds", "--alt", "all", "--json", str(out))
    assert done.returncode == 0, done.stderr
    assert "24/24 obligations passed" in done.stdout
    assert json.loads(out.read_text()) == json.loads(json.dumps(reports_to_json(verify_all_bounds())))


def test_experiment_under_python_optimize(tmp_path):
    out = tmp_path / "rows.csv"
    done = run_optimized("experiment", "--trials", "8", "--k", "3", "--alt", "3", "--seed", "5",
                         "--n-min", "15", "--n-max", "50", "--csv", str(out))
    assert done.returncode == 0, done.stderr
    cfg = ExperimentConfig(trials=8, k=3, n_range=(15, 50), alternative_id=3, seed=5)
    rows, ok = run_experiment(cfg)
    assert ok and "8 found, 0 saturated, 8 trials: OK" in done.stdout
    assert strip_elapsed(out.read_text()) == strip_elapsed(rows_to_csv(rows))


def test_package_exports_no_submodules():
    assert not [name for name in hcs.__all__ if isinstance(getattr(hcs, name), ModuleType)]
    assert "extract" in hcs.__all__ and "connectivity" not in hcs.__all__


class TestExperiment:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0, k=2, n_range=(15, 50), alternative_id=3, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=1, k=2, n_range=(50, 15), alternative_id=3, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=1, k=0, n_range=(15, 50), alternative_id=3, seed=1)
        with pytest.raises(ValueError, match=str(VERTEX_CAP)):
            ExperimentConfig(trials=1, k=2, n_range=(15, VERTEX_CAP + 1), alternative_id=3, seed=1)
        ExperimentConfig(trials=1, k=2, n_range=(15, VERTEX_CAP), alternative_id=3, seed=1)

    def test_golden_seeded_trial(self):
        cfg = ExperimentConfig(trials=1, k=2, n_range=(20, 20), alternative_id=3, seed=42)
        rows, ok = run_experiment(cfg)
        assert ok
        row = rows[0]
        assert (row.trial, row.n, row.e) == (1, 20, 53)
        assert row.d_bar == Fraction(53, 10)
        assert row.outcome == "FOUND"
        assert row.h_size == 18
        assert row.h_size >= 3  # required size floor(1.2*2)+1

    def test_csv_deterministic_up_to_timing(self):
        cfg = ExperimentConfig(trials=4, k=2, n_range=(15, 25), alternative_id=3, seed=7)
        first = strip_elapsed(rows_to_csv(run_experiment(cfg)[0]))
        second = strip_elapsed(rows_to_csv(run_experiment(cfg)[0]))
        assert first == second
        assert first.splitlines()[0] == "trial,n,e,d_bar,outcome,h_size"

    def test_edge_count_follows_delta_not_the_id(self):
        # alternative_1(2) shares id 1 with get_alternative(1), at delta 25/6 against
        # about 3.63; each trial's edge count must follow its own delta
        k, n = 2, 20
        cfg = ExperimentConfig(trials=1, k=k, n_range=(n, n), alternative_id=1, seed=3)
        counts = []
        for alt in (alternative_1(2), get_alternative(1)):
            counts.append(run_trial(1, cfg, alt).e)
            assert counts[-1] == math.ceil(n * density_threshold(alt, k) / 2)
        assert counts == [74, 63]

    def test_saturation(self):
        cfg = ExperimentConfig(trials=2, k=2, n_range=(5, 5), alternative_id=3, seed=1)
        rows, ok = run_experiment(cfg)
        assert ok
        assert all(r.outcome == NOT_APPLICABLE_SATURATED for r in rows)
        assert all(r.h_size is None for r in rows)

    def test_cli_experiment(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        args = ["experiment", "--trials", "3", "--k", "2", "--alt", "3", "--seed", "11",
                "--n-min", "15", "--n-max", "20"]
        code = dispatch(args + ["--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 found, 0 saturated, 3 trials: OK" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,n,e,d_bar,outcome,h_size,elapsed_ms"
        assert len(lines) == 4
        # without --csv the same CSV goes to stdout, before the summary line
        assert dispatch(args) == 0
        *rows, summary = capsys.readouterr().out.splitlines()
        assert strip_elapsed("\n".join(rows)) == strip_elapsed("\n".join(lines))
        assert summary == "3 found, 0 saturated, 3 trials: OK"


class TestShuffle:
    # the seed -> graph contract of experiment: _shuffle must draw exactly as random.shuffle
    # does, at every length and across the power-of-two edges of the draw width
    BOUNDARIES = sorted({m for j in range(1, 12) for m in (2**j - 1, 2**j, 2**j + 1)} | {1225})

    @staticmethod
    def check(length):
        for seed in range(50):
            ours, ref = random.Random(seed), random.Random(seed)
            items, expected = list(range(length)), list(range(length))
            _shuffle(items, ours)
            ref.shuffle(expected)
            assert items == expected, (length, seed)
            assert ours.getstate() == ref.getstate(), (length, seed)  # the same number of draws

    def test_every_short_length(self):
        for length in range(301):
            self.check(length)

    @pytest.mark.parametrize("length", BOUNDARIES)
    def test_power_of_two_boundaries(self, length):
        self.check(length)


class TestUncheckedTrialGraph:
    # run_trial builds its graph without SimpleGraph's range check; the checked constructor
    # must accept it, and it must be the graph random.shuffle over the listed pairs draws
    @pytest.mark.parametrize("alt_id", [1, 2, 3])
    def test_trial_graph(self, monkeypatch, alt_id):
        alt = get_alternative(alt_id)
        captured = []

        def capture(g, k, sigma, **kwargs):
            captured.append(g)
            return extract(g, k, sigma, **kwargs)

        monkeypatch.setattr("hcs.cli.extract", capture)
        checked = 0
        for n in range(2, 61):
            cfg = ExperimentConfig(trials=1, k=1, n_range=(n, n), alternative_id=alt_id, seed=n)
            row = run_trial(1, cfg, alt)
            if row.outcome == NOT_APPLICABLE_SATURATED:
                continue
            g = captured.pop()
            assert SimpleGraph(n, g.edges) == g
            rng = random.Random(cfg.seed + 1)
            rng.randint(n, n)  # run_trial draws n first
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            assert g == SimpleGraph(n, frozenset(pairs[:row.e]))
            checked += 1
        assert not captured and checked >= 55  # saturated only below n = 4 at k = 1


class TestPinnedExtremalOutputs:
    # sha256 of the construct file and of certify's stdout; the builder skips the
    # graph's range check and certify pauses the collector, and neither may move a byte
    PINNED = {
        (2, 2, 10): ("5029c67d7e3716d3c96b597a5ca8936f1ff5b78c3ff3546783b35e2a340600d1",
                     "7575add7ffe09e4ddf69ff8cc5fcdd9df2c525d48ca1759bff39ade0e71c8f62"),
        (2, 2, 13): ("710596e51ff67289c4fd565429beaf8c5d380a3981a7071adba77846cd1abc17",
                     "408f050a69aa6325d1be4c9fbdd83579375853d7eec493d594926b22ea61c4e3"),
        (3, 3, 8): ("33ae8872d9efa1708ad9e67405b6fe016e961399f34ad4578e2811e5b4647d7c",
                    "6386185276e08049211fc62129a4fb9c95440ed8dc3fbb9aa7888d3d15b4937b"),
        (6, 6, 5): ("e720a7dc93d96c3c75adb0f4dd507fea7cfc86a07b8a9f46fbb634992e432453",
                    "b747d4273a688b065dfe23fdcaae9e297af1979862051240f06e76103dbedea0"),
        (1, 1, 12): ("f6fe64a0de372d154890ddeadad0e965721353187a2d621e631eb8c051495d21",
                     "79cb08068f0ded7fc4d28d86227fc9d7652b299a41bff61eb7fccc5326b1b2bb"),
        (2, 4, 9): ("856d1b92b25a007cb5e685098a5481317f1e55d80c367265c07fa3426b06c6c5",
                    "d6c5232243a83b653d5c606f6466decfca342348bf7c1e098dcd451891f66927"),
    }

    @pytest.mark.parametrize("k, sigma_k, level", sorted(PINNED))
    def test_construct_and_certify_bytes(self, capsys, tmp_path, k, sigma_k, level):
        out = tmp_path / "g.json"
        assert dispatch(["construct", "--k", str(k), "--sigma-k", str(sigma_k),
                         "--level", str(level), "--out", str(out)]) == 0
        capsys.readouterr()
        assert dispatch(["certify", "--in", str(out)]) == 0
        file_digest, stdout_digest = self.PINNED[k, sigma_k, level]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_digest
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


class TestPinnedDotOutputs:
    # sha256 of construct's --dot file: one line per vertex, then one per edge
    PINNED = {
        (2, 2, 8): "30bbb74936bb577e244fe07e5b6a54d881f70dcf3d1700d40e8b4976ff1c63bc",
        (2, 4, 5): "934a5efeb52cee947783545be989b10942b1c0c3a74384054b1012fa37188ec2",
    }

    @pytest.mark.parametrize("k, sigma_k, level", sorted(PINNED))
    def test_dot_bytes(self, capsys, tmp_path, k, sigma_k, level):
        dot = tmp_path / "g.dot"
        assert dispatch(["construct", "--k", str(k), "--sigma-k", str(sigma_k), "--level", str(level),
                         "--out", str(tmp_path / "g.json"), "--dot", str(dot)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == self.PINNED[k, sigma_k, level]


class TestPinnedBoundTable:
    # sha256 of verify-bounds' stdout per --alt, and of the --json and --csv files
    # of --alt all; BOUND_TABLE sees neither the printed table nor the JSON writer
    STDOUT = {
        "all": "1f750d5166a60b2e4db632fa1942fd9a6e56e2a5e0f229d2d6dec20a4015b88c",
        "1": "82ed70f87c1f8bf75d5880ee932c931008ed0adfb9e3a6a4eafd303bf75b5246",
        "2": "c52e99ad7157c559db70c4bde308b1f6f35eb5d15a87e8383eec5bd31635852a",
        "3": "64a29e3b93a0172e1e852e7265e87ca4a5d27d0ffafa312efc4d766ed3408d85",
    }
    JSON_FILE = "adfd2e0a447dd5fb466e31ba2d97bd1b5cc5eee56f95889be36c8a9dc0b639d5"
    CSV_FILE = "eaf6606a59da72fea35d713c7f89054ff946d3ce6a3c9e17cd80d8d544b21a09"

    @pytest.mark.parametrize("alt", sorted(STDOUT))
    def test_stdout_bytes(self, capsys, alt):
        assert dispatch(["verify-bounds", "--alt", alt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.STDOUT[alt]

    def test_file_bytes(self, capsys, tmp_path):
        out_json, out_csv = tmp_path / "bounds.json", tmp_path / "bounds.csv"
        assert dispatch(["verify-bounds", "--alt", "all", "--json", str(out_json), "--csv", str(out_csv)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.STDOUT["all"]
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == self.JSON_FILE
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == self.CSV_FILE


class TestCertifyAnyEdgeOrder:
    # certify keeps the file's edges as the ascending tuple when they are
    # strictly ascending, and as a set walked in hash order otherwise; its report
    # and exit code are the same either way
    PASS_STDOUT = "e9bf4c2103e8cd308bc0a51819f0e1282fd71cdf63a33dba80ccfb6e87faa821"
    FAIL_STDOUT = "f499f54ba4ecd0857e6e31282518c0a54a81a0a4d8ea5a794a63cca0bb22d5fa"

    @pytest.fixture
    def payload(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        assert dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "9",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    @staticmethod
    def _certify(capsys, tmp_path, payload, edges) -> tuple[int, str]:
        path = tmp_path / "variant.json"
        path.write_text(json.dumps({**payload, "graph": {**payload["graph"], "edges": edges}}))
        code = dispatch(["certify", "--in", str(path)])
        return code, capsys.readouterr().out

    def test_shuffled_or_repeated_edges(self, capsys, tmp_path, payload):
        edges = payload["graph"]["edges"]
        code, text = self._certify(capsys, tmp_path, payload, edges)
        assert code == 0 and hashlib.sha256(text.encode()).hexdigest() == self.PASS_STDOUT
        shuffled = edges[:]
        random.Random(9).shuffle(shuffled)
        repeated = edges[:]
        repeated.insert(100, edges[100])
        for variant in (shuffled, repeated):
            assert self._certify(capsys, tmp_path, payload, variant) == (code, text)

    def test_load_keeps_the_edges_in_one_form(self, capsys, monkeypatch, tmp_path, payload):
        seen = []
        verify = hcs.cli.verify_extremal

        def spy(e):
            seen.append(e)
            return verify(e)

        monkeypatch.setattr("hcs.cli.verify_extremal", spy)
        edges = payload["graph"]["edges"]
        assert self._certify(capsys, tmp_path, payload, edges)[0] == 0
        random.Random(9).shuffle(edges)
        assert self._certify(capsys, tmp_path, payload, edges)[0] == 0
        ordered, shuffled = (vars(e.graph) for e in seen)
        assert "edges" not in ordered and "sorted_edges" in ordered
        assert "sorted_edges" not in shuffled and "edges" in shuffled

    def test_cross_private_edge_in_order(self, capsys, tmp_path, payload):
        # an edge between the two copies' private labels at the top gluing
        n, meta = payload["graph"]["n"], payload["metadata"]
        v_prev = (n + meta["k"]) // 2  # the first copy's labels
        spare = set(meta["glue_history"][-1]).union(*meta["parts"])
        u = min(v for v in range(v_prev) if v not in spare)
        w = max(v for v in range(v_prev, n) if v not in spare)
        edges = payload["graph"]["edges"]
        edges.insert(bisect.bisect(edges, [u, w]), [u, w])
        assert "sorted_edges" in vars(graph_from_json_dict({"n": n, "edges": edges}))
        code, text = self._certify(capsys, tmp_path, payload, edges)
        assert code == 1 and "(certificate=FAIL extract=skipped)" in text
        assert hashlib.sha256(text.encode()).hexdigest() == self.FAIL_STDOUT
        random.Random(9).shuffle(edges)
        assert self._certify(capsys, tmp_path, payload, edges) == (code, text)


def _swap_labels(data: dict, a: int, b: int) -> None:
    """Exchange labels a and b in the edges, the pool and the gluing sets."""
    swap = {a: b, b: a}
    data["graph"]["edges"] = [[swap.get(u, u), swap.get(w, w)] for u, w in data["graph"]["edges"]]
    meta = data["metadata"]
    for key in ("parts", "glue_history"):
        meta[key] = [[swap.get(v, v) for v in s] for s in meta[key]]


def _mutate(rng: random.Random, data: dict) -> str:
    """Apply one random change to a construct file's dict in place; returns its kind."""
    graph, meta = data["graph"], data["metadata"]
    n, edges = graph["n"], graph["edges"]
    kind = rng.choice(["glue", "k", "sigma_k", "level", "pool-move", "pool-replace", "edge-add",
                       "edge-remove", "glue-order", "swap", "n"])
    if kind == "glue" and meta["glue_history"]:
        y = rng.choice(meta["glue_history"])
        y[rng.randrange(len(y))] = rng.randrange(-1, n + 1)
    elif kind in ("k", "sigma_k", "level"):
        meta[kind] += rng.choice((-1, 1))
    elif kind == "pool-move" and any(meta["parts"]):
        source = rng.choice([p for p in meta["parts"] if p])
        rng.choice(meta["parts"]).append(source.pop(rng.randrange(len(source))))
    elif kind == "pool-replace" and any(meta["parts"]):
        p = rng.choice([p for p in meta["parts"] if p])
        p[rng.randrange(len(p))] = rng.randrange(n)
    elif kind == "edge-add" and n >= 2:
        edges.append(sorted(rng.sample(range(n), 2)))
    elif kind == "edge-remove" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "glue-order" and len(meta["glue_history"]) >= 2:
        i, j = rng.sample(range(len(meta["glue_history"])), 2)
        meta["glue_history"][i], meta["glue_history"][j] = meta["glue_history"][j], meta["glue_history"][i]
    elif kind == "swap" and n >= 2:
        _swap_labels(data, *rng.sample(range(n), 2))
    elif kind == "n":
        graph["n"] += rng.choice((-1, 1))
    return kind


def _claims_hold(data: dict) -> bool:
    """Whether a certified file's claims hold, checked without hcs's checks.

    The claims: n = k + 2^level sigma_k; at least 2^L (C(k + sigma_k, 2) -
    (2/3)(1 - 4^-L) C(k, 2)) distinct edges; a pool in balanced, disjoint
    parts with no edge across two of them; and no (k+1)-connected subgraph
    on more than k + sigma_k vertices, by exhaustive search.
    """
    meta = data["metadata"]
    n, k, sigma_k, level, parts = data["graph"]["n"], meta["k"], meta["sigma_k"], meta["level"], meta["parts"]
    edges = {tuple(sorted(e)) for e in data["graph"]["edges"]}
    if k < 1 or level < 0 or n != k + sigma_k * 2**level:
        return False
    bound = 2**level * (math.comb(k + sigma_k, 2) - Fraction(2, 3) * (1 - Fraction(1, 4**level)) * math.comb(k, 2))
    if len(edges) < bound:
        return False
    part_of = {v: i for i, p in enumerate(parts) for v in p}
    if len(part_of) != sum(map(len, parts)) or max(map(len, parts)) - min(map(len, parts)) > 1:
        return False
    if any(u in part_of and w in part_of and part_of[u] != part_of[w] for u, w in edges):
        return False
    return brute_force_hcs(SimpleGraph.from_edges(n, sorted(edges)), k, Fraction(sigma_k, k)) is None


class TestCertifyMutations:
    """Seeded mutations of small construct files: certify may pass a file only
    when the claims it certifies hold, and otherwise exits 1 or 2 with one
    verdict or error and no traceback."""

    # (k, sigma_k, level) with n = 5 to 17, small enough for the exhaustive search
    INSTANCES = ((1, 1, 2), (1, 1, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (1, 2, 3),
                 (3, 3, 1), (3, 3, 2), (2, 4, 1))
    MUTATIONS = 300

    def test_seeded_mutations(self, capsys, tmp_path):
        files = {}
        for k, sigma_k, level in self.INSTANCES:
            out = tmp_path / f"{k}-{sigma_k}-{level}.json"
            assert dispatch(["construct", "--k", str(k), "--sigma-k", str(sigma_k), "--level", str(level),
                             "--out", str(out)]) == 0
            files[k, sigma_k, level] = json.loads(out.read_text())
            assert dispatch(["certify", "--in", str(out)]) == 0
        capsys.readouterr()
        rng = random.Random(37)
        path = tmp_path / "mutated.json"
        codes = []
        for i in range(self.MUTATIONS):
            instance = rng.choice(self.INSTANCES)
            data = json.loads(json.dumps(files[instance]))
            kinds = [_mutate(rng, data) for _ in range(rng.randint(1, 3))]
            path.write_text(json.dumps(data))
            case = f"mutation {i} of {instance}: {kinds}"
            try:
                code = dispatch(["certify", "--in", str(path)])
            except Exception as exc:  # a crash is a failure of the test, not of the file
                pytest.fail(f"{case} raised {exc!r}")
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err, case
            assert code in (0, 1, 2), case
            if code == 2:
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, case
            else:
                assert captured.err == "" and captured.out, case
            if code == 0:
                assert _claims_hold(data), case
            codes.append(code)
        assert set(codes) == {0, 1, 2}


def _mutate_graph(rng: random.Random, graph: dict) -> str:
    """Apply one random change to a graph file's dict in place that leaves it a
    valid graph; returns its kind."""
    n, edges = graph["n"], graph["edges"]
    kind = rng.choice(["add-edge", "remove-edge", "reverse-edge", "repeat-edge", "shuffle",
                       "grow-n", "swap-labels"])
    if kind == "add-edge":
        u, v = rng.sample(range(n), 2)
        edges.insert(rng.randint(0, len(edges)), [u, v])
    elif kind == "remove-edge" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "reverse-edge" and edges:
        edges[rng.randrange(len(edges))].reverse()
    elif kind == "repeat-edge" and edges:
        edges.insert(rng.randint(0, len(edges)), list(rng.choice(edges)))
    elif kind == "shuffle":
        rng.shuffle(edges)
    elif kind == "grow-n":
        graph["n"] = n + rng.randint(1, 3)
    elif kind == "swap-labels":
        a, b = rng.sample(range(n), 2)
        swap = {a: b, b: a}
        graph["edges"] = [[swap.get(u, u), swap.get(v, v)] for u, v in edges]
    return kind


def _malform(rng: random.Random, graph: dict) -> tuple[str, bytes]:
    """One random change that makes a graph file invalid: (its kind, the file's bytes)."""
    n, edges = graph["n"], graph["edges"]
    if not edges:
        edges.append([0, 1])
    i, side = rng.randrange(len(edges)), rng.randrange(2)
    u = edges[i][side]
    endpoints = {
        "float-endpoint": u + 0.5, "integral-float-endpoint": float(u), "bool-endpoint": rng.random() < 0.5,
        "string-endpoint": str(u), "null-endpoint": None, "nan-endpoint": math.nan,
        "out-of-range-endpoint": rng.choice([n, n + 7, -1, 10**30]),
    }
    kind = rng.choice([*endpoints, "loop", "edge-arity", "edge-not-a-list", "bad-n", "n-too-small",
                       "missing-key", "edges-not-a-list", "not-an-object", "bad-graph-entry",
                       "truncated", "not-utf-8"])
    data: object = graph
    if kind in endpoints:
        edges[i][side] = endpoints[kind]
    elif kind == "loop":
        edges[i] = [u, u]
    elif kind == "edge-arity":
        edges[i] = rng.choice([[u], edges[i] + [u], []])
    elif kind == "edge-not-a-list":
        edges[i] = rng.choice([u, {"u": u}, "0,1", None])
    elif kind == "bad-n":
        graph["n"] = rng.choice([float(n), str(n), None, True, -1, VERTEX_CAP + 1, [n]])
    elif kind == "n-too-small":
        graph["n"] = max(map(max, edges))
    elif kind == "missing-key":
        del graph[rng.choice(["n", "edges"])]
    elif kind == "edges-not-a-list":
        graph["edges"] = rng.choice([{}, "[]", None, 0, {"0": [0, 1]}])
    elif kind == "not-an-object":
        data = rng.choice([[n, edges], n, "graph", None])
    elif kind == "bad-graph-entry":
        data = {"graph": rng.choice([None, 5, [n, edges], {"n": n}])}
    text = json.dumps(data).encode()
    if kind == "truncated":
        text = text[:rng.randrange(len(text))]
    elif kind == "not-utf-8":
        text = b"\xff" + text
    return kind, text


class TestExtractMutations:
    """Seeded mutations of small graph files: extract must refuse a malformed
    file with exit code 2 and one error line, and answer a valid one with an
    answer that independent checks confirm: a FOUND set that networkx finds
    (k+1)-connected and large enough, or a SEPARABLE tree that
    ``tree_check_oracle`` accepts."""

    MUTATIONS = 600
    SIGMAS = ("1/5", "1/2", "1", "2")

    @staticmethod
    def graphs() -> list[dict]:
        rng = random.Random(12)
        built = [build_extremal(*a).graph for a in ((1, 1, 2), (1, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3),
                                                      (3, 3, 1), (2, 3, 2))]
        plain = [SimpleGraph.complete(7), SimpleGraph.cycle(9), SimpleGraph.path(6)]
        dense = [random_graph(rng, rng.randint(8, 20), p) for p in (0.3, 0.5, 0.7, 0.9)]
        return [graph_to_json_dict(g) for g in built + plain + dense]

    def check_answer(self, graph: dict, k: int, sigma: Fraction, answer: dict, case: str) -> str:
        nx = pytest.importorskip("networkx")
        n = graph["n"]
        if answer["outcome"] == "FOUND":
            found = answer["subgraph"]
            assert found == sorted(set(found)) and set(found) <= set(range(n)), case
            assert len(found) > math.floor((1 + sigma) * k), case
            h = nx.Graph(e for e in graph["edges"] if e[0] in found and e[1] in found)
            h.add_nodes_from(found)
            assert len(found) >= k + 2 and nx.node_connectivity(h) >= k + 1, case
        else:
            assert answer["outcome"] == "SEPARABLE", case
            g = SimpleGraph.from_edges(n, graph["edges"])
            assert tree_check_oracle(g, k, sigma, tree_from_json_dict(answer["tree"])), case
        return answer["outcome"]

    def test_seeded_mutations(self, capsys, tmp_path):
        graphs = self.graphs()
        rng = random.Random(38)
        path = tmp_path / "mutated.json"
        outcomes, codes = set(), []
        for i in range(self.MUTATIONS):
            graph = json.loads(json.dumps(rng.choice(graphs)))
            kinds = [_mutate_graph(rng, graph) for _ in range(rng.randint(0, 3))]
            malformed = rng.random() < 0.5
            if malformed:
                kind, text = _malform(rng, graph)
                kinds.append(kind)
            else:
                data = {"graph": graph, "metadata": {}} if rng.random() < 0.25 else graph
                text = json.dumps(data).encode()
            path.write_bytes(text)
            k, sigma = rng.randint(1, 3), rng.choice(self.SIGMAS)
            case = f"mutation {i}, k={k}, sigma={sigma}: {kinds}"
            try:
                code = dispatch(["extract", "--in", str(path), "--k", str(k), "--sigma", sigma])
            except Exception as exc:  # a crash is a failure of the test, not of the file
                pytest.fail(f"{case} raised {exc!r}")
            captured = capsys.readouterr()
            if malformed:
                assert code == 2, case
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, case
                assert captured.out == "", case
            else:
                assert code == 0 and captured.err == "", case
                outcomes.add(self.check_answer(graph, k, Fraction(sigma), json.loads(captured.out), case))
            codes.append(code)
        assert outcomes == {"FOUND", "SEPARABLE"} and set(codes) == {0, 2}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state for the test, enabled or disabled; restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCertifyCollectorState:
    @pytest.fixture
    def instance(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        assert dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", "1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def _certify(self, capsys, path) -> int:
        code = dispatch(["certify", "--in", str(path)])
        capsys.readouterr()
        return code

    def test_passing_instance(self, capsys, instance, collector):
        assert self._certify(capsys, instance) == 0
        assert gc.isenabled() is collector

    def test_tampered_instance(self, capsys, instance, collector):
        payload = json.loads(instance.read_text())
        payload["graph"]["edges"] = payload["graph"]["edges"][:-1]
        instance.write_text(json.dumps(payload))
        assert self._certify(capsys, instance) == 1
        assert gc.isenabled() is collector

    def test_malformed_json(self, capsys, instance, collector):
        instance.write_text(instance.read_text()[:-10])
        assert dispatch(["certify", "--in", str(instance)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert gc.isenabled() is collector

    def test_collector_is_off_while_the_instance_loads(self, capsys, monkeypatch, instance,
                                                       collector):
        seen = []
        load = hcs.cli.extremal_from_json_dict

        def spy(data):
            seen.append(gc.isenabled())
            return load(data)

        monkeypatch.setattr("hcs.cli.extremal_from_json_dict", spy)
        assert self._certify(capsys, instance) == 0
        assert seen == [False] and gc.isenabled() is collector


class TestConstructCollectorState:
    # construct pauses the collector while it builds and writes, and leaves it
    # as it found it however the command ends
    def _construct(self, capsys, out, level="3") -> int:
        code = dispatch(["construct", "--k", "2", "--sigma-k", "2", "--level", level,
                         "--out", str(out)])
        capsys.readouterr()
        return code

    def test_written_instance(self, capsys, tmp_path, collector):
        assert self._construct(capsys, tmp_path / "g.json") == 0
        assert gc.isenabled() is collector

    def test_refused_level(self, capsys, tmp_path, collector):
        assert self._construct(capsys, tmp_path / "g.json", level="1000") == 2
        assert gc.isenabled() is collector

    def test_output_in_a_missing_directory(self, capsys, tmp_path, collector):
        assert self._construct(capsys, tmp_path / "missing" / "g.json") == 2
        assert gc.isenabled() is collector

    def test_collector_is_off_while_the_instance_builds(self, capsys, monkeypatch, tmp_path,
                                                        collector):
        seen = []
        build = hcs.cli.build_extremal

        def spy(*args):
            seen.append(gc.isenabled())
            return build(*args)

        monkeypatch.setattr("hcs.cli.build_extremal", spy)
        assert self._construct(capsys, tmp_path / "g.json") == 0
        assert seen == [False] and gc.isenabled() is collector
