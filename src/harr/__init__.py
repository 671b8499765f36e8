"""Clustering for mixed numerical/nominal/ordinal data.

Categorical attributes are rebuilt as one-dimensional sub-attributes by
projecting their values onto spaces spanned by value pairs, using base
distances derived from conditional probability distributions. Clustering
then alternates partition and prototype updates with periodic attribute
weight learning (a shared weight vector, or one weight row per cluster).
Classical baselines and an evaluation harness round out the package.
"""

from .schema import (
    AttributeKind,
    AttributeSchema,
    DatasetSchema,
    Dataset,
    OrdinalView,
    SchemaError,
    DataError,
    parse_schema,
    ingest_table,
    normalize_numerical,
    discretize_numerical,
    default_bin_count,
    schema_to_text,
    dataset_to_text,
)
from .base_distance import (
    CpdTable,
    BaseDistanceTable,
    compute_cpd,
    build_base_distances,
)
from .projection import (
    ORDINAL_LINE,
    HAMMING_FALLBACK,
    ProjectedBlock,
    ReconstructedSpace,
    project_nominal,
    project_ordinal,
    reconstruct,
)
from .cluster import (
    VARIANTS,
    ConfigError,
    RunConfig,
    Partition,
    Prototypes,
    WeightVector,
    WeightMatrix,
    RunReport,
    prepare,
    run,
    run_prepared,
    assign,
    update_prototypes,
    update_weight_vector,
    update_weight_matrix,
)
from .evaluation import contingency, ari, ca, aggregate_runs, RunSummary
from .synth import SyntheticSpec, generate_synthetic, write_synthetic
from .bench import BenchConfig, load_dataset, cmd_cluster, cmd_bench_time, cmd_trace_plot

__version__ = "0.1.0"
