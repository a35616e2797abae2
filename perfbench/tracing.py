"""Per-layer tracing from outside the program.

The tracer replaces module-level functions of hcs at the sites that import
them with timing wrappers, and restores them afterwards. Each wrapped call
adds one call and its inclusive wall time to a layer; a few layers also
classify the call by what it returned (a separation or none, an improving
flow or not). Totals are taken per round, so that rounds of identical
operations can be compared and their counts must agree exactly.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

ST_FLOW = "connectivity.st_flow"
SEPARATING = "connectivity.find_separation.separating"
CERTIFYING = "connectivity.find_separation.certifying"
IS_K1 = "connectivity.is_k1_connected"
EXTRACT = "extractor.extract"
INDUCED = "graphs.induced_subgraph"
LOAD = "cli.load_instance"
CERTIFY_INTERVAL = "bounds.certify_interval"
OBLIGATIONS = ("interval", "point", "identity")

# extra counts recorded by the classifiers
IMPROVING = "st_flow.improving"
FOUND = "extract.found"
INDUCED_VERTICES = "induced.vertices"
GRID = "bounds.grid_fallback"


def _st_flow(ret, args, kwargs, counts) -> str:
    limit = kwargs["limit"] if "limit" in kwargs else args[3]
    if ret[0] < limit:  # the flow lowered the best cut known to the caller
        counts[IMPROVING] += 1
    return ST_FLOW


def _find_separation(ret, args, kwargs, counts) -> str:
    return SEPARATING if ret is not None else CERTIFYING


def _extract(ret, args, kwargs, counts) -> str:
    if getattr(ret, "outcome", None) == "FOUND":
        counts[FOUND] += 1
    return EXTRACT


def _induced(ret, args, kwargs, counts) -> str:
    counts[INDUCED_VERTICES] += ret.graph.n
    return INDUCED


def _certify_interval(ret, args, kwargs, counts) -> str:
    if ret.method == "grid":
        counts[GRID] += 1
    return CERTIFY_INTERVAL


def _layer(name: str) -> Callable:
    return lambda ret, args, kwargs, counts: name


# (module, attribute at the import site, classifier naming the layer)
HOOKS = (
    ("hcs.connectivity", "_st_vertex_cut", _st_flow),
    ("hcs.extractor", "find_separation", _find_separation),
    ("hcs.extractor", "is_k1_connected", _layer(IS_K1)),
    ("hcs.cli", "is_k1_connected", _layer(IS_K1)),
    ("hcs.cli", "extract", _extract),
    ("hcs.extractor", "induced_subgraph", _induced),
    ("hcs.cli", "induced_subgraph", _induced),
    ("hcs.cli", "build_extremal", _layer("extremal.build_extremal")),
    ("hcs.cli", "verify_extremal", _layer("extremal.verify_extremal")),
    ("hcs.extremal", "_check_partition", _layer("extremal.check_partition")),
    ("hcs.extremal", "_certificate_check", _layer("extremal.certificate_walk")),
    ("hcs.extremal", "scan_connected_subgraph", _layer("extremal.brute_force_scan")),
    ("hcs.cli", "extremal_from_json_dict", _layer(LOAD)),
    ("hcs.cli", "graph_from_json_dict", _layer(LOAD)),
    ("hcs.bounds", "_interval_report", _layer("bounds.obligation.interval")),
    ("hcs.bounds", "_point_report", _layer("bounds.obligation.point")),
    ("hcs.bounds", "_identity_report", _layer("bounds.obligation.identity")),
    ("hcs.bounds", "certify_nonnegative_on_interval", _certify_interval),
    ("hcs.bounds", "sqrt_enclosure", _layer("enclosure.sqrt_enclosure")),
)


class _JsonModule:
    """Stands in for the json module at hcs.cli, with ``load`` traced."""

    def __init__(self, real, load):
        self._real = real
        self.load = load

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Counts and times calls into each layer while installed."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn: Callable, classify: Callable) -> Callable:
        calls, seconds, counts = self.calls, self.seconds, self.counts

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                ret = fn(*args, **kwargs)
            except BaseException:
                elapsed = perf_counter() - start
                calls["raised"] += 1
                seconds["raised"] += elapsed
                raise
            elapsed = perf_counter() - start
            layer = classify(ret, args, kwargs, counts)
            calls[layer] += 1
            seconds[layer] += elapsed
            return ret

        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, classify in HOOKS:
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._wrap(getattr(module, attr), classify))
        cli = sys.modules["hcs.cli"]
        json_module = cli.json
        self._patch(cli, "json", _JsonModule(json_module, self._wrap(json_module.load, _layer(LOAD))))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def take(self) -> dict:
        """The totals since the last take, which are then cleared."""
        snap = {"calls": dict(self.calls), "seconds": dict(self.seconds), "counts": dict(self.counts)}
        self.calls.clear()
        self.seconds.clear()
        self.counts.clear()
        return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_counts(snap: dict) -> dict[str, float]:
    """Per-layer counts of one round; they must repeat exactly across rounds."""
    calls, counts = snap["calls"], snap["counts"]

    def c(layer: str) -> int:
        return calls.get(layer, 0)

    out = {
        "connectivity.st_flow.calls": c(ST_FLOW),
        "connectivity.st_flow.improving_share": _ratio(counts.get(IMPROVING, 0), c(ST_FLOW)),
        "connectivity.find_separation.separating.calls": c(SEPARATING),
        "connectivity.find_separation.certifying.calls": c(CERTIFYING),
        "connectivity.is_k1_connected.calls": c(IS_K1),
        "extractor.extract.calls": c(EXTRACT),
        "extractor.certifications_per_found": _ratio(
            c(CERTIFYING) + c(IS_K1), counts.get(FOUND, 0)
        ),
        "graphs.induced_subgraph.calls": c(INDUCED),
        "graphs.induced_subgraph.vertices": counts.get(INDUCED_VERTICES, 0),
        "bounds.grid_fallback.calls": counts.get(GRID, 0),
        "enclosure.sqrt_enclosure.calls": c("enclosure.sqrt_enclosure"),
    }
    for kind in OBLIGATIONS:
        out[f"bounds.obligation.{kind}.calls"] = c(f"bounds.obligation.{kind}")
    return out


TIMED_LAYERS = (
    ST_FLOW, SEPARATING, CERTIFYING, IS_K1, EXTRACT, INDUCED,
    "extremal.build_extremal", "extremal.verify_extremal", "extremal.check_partition",
    "extremal.certificate_walk", "extremal.brute_force_scan", LOAD,
) + tuple(f"bounds.obligation.{kind}" for kind in OBLIGATIONS)


def layer_metrics(snaps: list[dict], tree: Optional[tuple[int, int]]) -> dict[str, float]:
    """Counts of the first round and the median per-round time of each layer."""
    out: dict[str, float] = dict(round_counts(snaps[0]))
    for layer in TIMED_LAYERS:
        out[f"{layer}.s"] = statistics.median(s["seconds"].get(layer, 0.0) for s in snaps)
    nodes, depth = tree if tree is not None else (0, 0)
    out["extractor.tree_nodes"] = nodes
    out["extractor.tree_depth"] = depth
    return out

