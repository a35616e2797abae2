"""Golden digests of outputs that must stay byte-identical.

Each digest is the SHA-256 of a canonical rendering of one output: JSON
with sorted keys and no whitespace, or CSV text without the timing
column. A change that alters one of these outputs on purpose says so in
CHANGES.md and updates the digest in the same change.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hcs import ExperimentConfig, SimpleGraph, build_extremal, dispatch, extract, run_experiment, verify_all_bounds
from hcs.bounds import reports_to_json
from hcs.cli import rows_to_csv
from hcs.connectivity import min_vertex_cut
from conftest import random_graph, result_to_json_dict


def digest(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def relabelled(g: SimpleGraph, seed: int) -> SimpleGraph:
    """g under a fixed random permutation of its vertex ids."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return SimpleGraph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def csv_digest(text: str) -> str:
    """The digest of experiment CSV text without its timing column."""
    return digest("\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()))


def experiment_digest(cfg: ExperimentConfig) -> str:
    """The digest of an experiment's CSV without its timing column; every trial must pass."""
    rows, ok = run_experiment(cfg)
    assert ok
    return csv_digest(rows_to_csv(rows))


def case_ids(table: dict) -> list[str]:
    return ["-".join(map(str, params)) for params in sorted(table)]


# (k, sigma_k, level) -> digest of the extraction JSON on the relabelled instance
EXTREMAL = {
    (2, 2, 3):
        "ef8955c1729b0cea2f446c7ee0dd6cc098ee8def3d8ac27790fee986ac2b35fa",
    (2, 2, 4):
        "e029b57fa77c0f8c0a6808a3f821f4511ac941b65be30b16dfdc32c17bfe6b08",
    (2, 2, 5):
        "4586806348bd48c9e02e7c3aad76e13127b03a62b190d8de1b3d4d4817fc5b8c",
    (2, 2, 6):
        "227a2cda11ac6984f52d0b40d988af381e0ca156a6aff815583bcdf2f0a7a5fc",
    (3, 3, 4):
        "4b21d48856245f22383a4d2631bd6cc1d34208a7b966c2efb6cfc22a85ff56db",
}

# acceptance configurations (k, alternative, seed) over n in 15..50, and the
# benchmark's largest size (k, alternative, seed, n_min, n_max) -> digest of 12 trials
EXPERIMENT = {
    (2, 3, 1001):
        "243499c157ba8d8bfb8253cda960d296784c8ea1f4a74483b6dd7a6850d90aa3",
    (3, 3, 1002):
        "d4911f055386c25f458b43c70d1a4164558884115d8e913b24541105c04f9cd6",
    (2, 1, 1003):
        "56d6d672cd168cbbf5e5b6f41b937d5411b2cbe0fcb98974ffd36a39ea5e7b3c",
    (2, 2, 1004):
        "ccd6df37a5e9133c09606739fdb44ad41375b23b33789d10439beda26f0f5496",
    (3, 3, 1005, 50, 50):
        "1474828513a04f48c14900509827760cd6a7441a7e79813e06b5bee55ef10b36",
}

# acceptance configurations (k, alternative, seed) at n in 100..200 -> digest
# of 5 trials, whose FOUND sets the pair loop's flows certify
EXPERIMENT_LARGE = {
    (2, 3, 1001):
        "50ac61c91d293552d92656d297c395b6c64f1514a78789916e445e3977054f9e",
    (3, 3, 1002):
        "287ac82ea68a1205184a4abc306af95ca64e9cd0f7cac98fe9ec83a66c026516",
    (2, 1, 1003):
        "9573fdf47d208b3a08752f64678b5cd99d31a2523f03ba8a74b3931efd53c479",
    (2, 2, 1004):
        "1d20c33b986d5c8ee00d67b902a28c4f915493d72d39b9efcac371d130739742",
}

RANDOM_EXTRACTIONS = "cd24cb9e709aaeaa53c04976bf7cb693ec937569a86f249d8143272f07e36755"
MIN_VERTEX_CUTS = "59f382e0e9c313db3eca4ad764e933e3a21f159efdfd11714dd6f716970621fa"
BOUND_TABLE = "ad747c5c1d761ca4ed387c0796fc815890bf48e56814b68a63761fe9c37da084"


@pytest.mark.parametrize(("params", "expected"), sorted(EXTREMAL.items()), ids=case_ids(EXTREMAL))
def test_extremal_extraction(params, expected):
    k, sigma_k, level = params
    e = build_extremal(k, sigma_k, level)
    result = extract(relabelled(e.graph, level), k, e.sigma)
    assert digest(result_to_json_dict(result)) == expected


def test_random_extractions():
    rng = random.Random(2718)
    results = []
    for _ in range(40):
        g = random_graph(rng, rng.randint(8, 30), rng.choice([0.2, 0.35, 0.5, 0.7]))
        for k in (2, 3):
            for sigma in (Fraction(1, 5), Fraction(1)):
                results.append(result_to_json_dict(extract(g, k, sigma)))
    assert digest(results) == RANDOM_EXTRACTIONS


def test_min_vertex_cuts():
    """(kappa, sorted separator) on seeded random graphs of 2 to 90 vertices
    and on extremal instances, as built and relabelled."""
    rng = random.Random(1975)
    graphs = [
        random_graph(rng, rng.randint(2, 90), rng.choice([0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9]))
        for _ in range(400)
    ]
    for k, sigma_k, level in [(2, 2, 5), (2, 2, 8), (3, 3, 6), (2, 4, 6), (2, 3, 7), (4, 4, 5)]:
        g = build_extremal(k, sigma_k, level).graph
        graphs += [g, relabelled(g, level)]
    answers = []
    for g in graphs:
        w = min_vertex_cut(g)
        answers.append([w.kappa, None if w.separator is None else sorted(w.separator)])
    assert digest(answers) == MIN_VERTEX_CUTS


@pytest.mark.parametrize(("params", "expected"), sorted(EXPERIMENT.items()), ids=case_ids(EXPERIMENT))
def test_experiment_csv(params, expected):
    k, alt_id, seed, *n_range = params
    cfg = ExperimentConfig(trials=12, k=k, n_range=tuple(n_range) or (15, 50), alternative_id=alt_id, seed=seed)
    assert experiment_digest(cfg) == expected


def test_experiment_csv_by_dispatch_interleaved(tmp_path):
    """The acceptance batches of alts 1, 2 and 3 through the CLI, twice and
    interleaved in one process: the thresholds memoized per process must
    give each batch the CSV it gives alone."""
    batches = [(2, 1, 1003), (2, 2, 1004), (2, 3, 1001)]
    for rep in range(2):
        for k, alt_id, seed in batches:
            out = tmp_path / f"alt{alt_id}-{rep}.csv"
            argv = ["experiment", "--trials", "12", "--k", str(k), "--alt", str(alt_id), "--seed", str(seed)]
            assert dispatch(argv + ["--csv", str(out)]) == 0
            assert csv_digest(out.read_text()) == EXPERIMENT[(k, alt_id, seed)], (rep, alt_id)


@pytest.mark.parametrize(("params", "expected"), sorted(EXPERIMENT_LARGE.items()), ids=case_ids(EXPERIMENT_LARGE))
def test_experiment_csv_large(params, expected):
    k, alt_id, seed = params
    cfg = ExperimentConfig(trials=5, k=k, n_range=(100, 200), alternative_id=alt_id, seed=seed)
    assert experiment_digest(cfg) == expected


def test_bound_table():
    assert digest(reports_to_json(verify_all_bounds())) == BOUND_TABLE
