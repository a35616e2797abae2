"""Dense graphs, vertex connectivity, and large highly connected subgraphs."""

from types import ModuleType as _ModuleType

from .graphs import (
    AnticliqueProfile,
    EMPTY_PROFILE,
    SimpleGraph,
    average_degree,
    graph_from_json_dict,
    graph_to_dot,
)
from .connectivity import (
    CutWitness,
    Separation,
    find_separation,
    is_k1_connected,
    min_vertex_cut,
)
from .field import Surd, sqrt
from .extractor import (
    FOUND,
    LEAF_SMALL,
    SEPARABLE,
    SEPARATED,
    DecompositionNode,
    ExtractionResult,
    extract,
    size_threshold,
    validate_decomposition,
)
from .extremal import (
    ExtremalGraph,
    ExtremalReport,
    build_extremal,
    extremal_from_json_dict,
    sharpness_rate,
    verify_extremal,
)
from .bounds import (
    BoundReport,
    OptimizationInstance,
    ParameterAlternative,
    alternative_1,
    alternative_2,
    alternative_3,
    basic_edge_bound,
    certify_nonnegative_on_interval,
    core_side_edge_bound,
    density_threshold,
    get_alternative,
    iterated_edge_bound,
    separable_density_check,
    split_maximum,
    verify_all_bounds,
    verify_alternative,
    verify_basic_bounds,
)
from .cli import ExperimentConfig, dispatch, run_experiment

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
