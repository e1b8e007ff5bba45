"""Online multi-source transfer learning for non-stationary data streams.

Concepts observed on each stream are learned by independent online ensembles
of Hoeffding trees; target examples are projected onto every known concept's
geometry through centroid-anchored scaled rotations, and all sub-classifiers
vote with incrementally tracked performance weights.
"""

from .core import (
    NEG,
    POS,
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    Example,
    MarlineError,
)
from .drift import DDM, DriftStatus, HddmA, make_detector
from .evaluation import (
    ExperimentSpec,
    grid_search,
    run_experiment,
    run_schedule,
)
from .learners import (
    HoeffdingTree,
    HoeffdingTreeParams,
    OnlineBagging,
    OnlineBoosting,
    hoeffding_bound,
    make_ensemble,
)
from .mapping import AlignMap, CentroidTracker, build_align_map
from .model import (
    MarlineConfig,
    MarlineModel,
    Prediction,
    sub_classifier_weights,
    update_performance_stats,
)
from .streams import (
    CsvDataset,
    CsvStreamSpec,
    GaussianConceptSpec,
    RowFilter,
    StreamData,
    StreamSchedule,
    SyntheticDataset,
    SyntheticStreamSpec,
    benchmark_dataset,
    generate_synthetic,
    ingest_csv,
    interleave,
)

__version__ = "0.1.0"

__all__ = [
    "NEG",
    "POS",
    "AlignMap",
    "CentroidTracker",
    "ConfigurationError",
    "CsvDataset",
    "CsvStreamSpec",
    "DDM",
    "DataError",
    "DimensionMismatchError",
    "DriftStatus",
    "Example",
    "ExperimentSpec",
    "GaussianConceptSpec",
    "HddmA",
    "HoeffdingTree",
    "HoeffdingTreeParams",
    "MarlineConfig",
    "MarlineError",
    "MarlineModel",
    "OnlineBagging",
    "OnlineBoosting",
    "Prediction",
    "RowFilter",
    "StreamData",
    "StreamSchedule",
    "SyntheticDataset",
    "SyntheticStreamSpec",
    "benchmark_dataset",
    "build_align_map",
    "generate_synthetic",
    "grid_search",
    "hoeffding_bound",
    "ingest_csv",
    "interleave",
    "make_detector",
    "make_ensemble",
    "run_experiment",
    "run_schedule",
    "sub_classifier_weights",
    "update_performance_stats",
    "__version__",
]
