"""Hyperdimensional computing with a behavioral SOT-CAM accelerator model."""

from .cam import (
    AnalogParams,
    VoltageProfile,
    calibrate_profile,
    max_line_deviation,
    search_analog,
    transfer_curve,
)
from .config import ExperimentConfig, load_cost_table, load_experiment_config, save_profile
from .cost import CostLedger, CostTable, OpCost, ratios_vs_cmos
from .datasets import Dataset, SyntheticSpec, ingest, make_hv_blobs, make_language_corpus, make_record_blobs, purity
from .encoder import (
    EncodingConfig,
    build_item_memory,
    build_level_memory,
    encode_ngram,
    encode_record,
    quantize,
)
from .errors import (
    AlignmentError,
    CalibrationWarning,
    CapacityError,
    ConfigError,
    DimensionError,
    EmptyBundleError,
    EmptyDatasetError,
    GenerationError,
    HdcError,
    ParseError,
    SaturationError,
    TooManyLevelsError,
)
from .hvcore import (
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    hamming_matrix,
    majority,
    permute_drop,
    permute_shift,
    random_bits,
)
from .learner import (
    ClassMemory,
    ClusterSpec,
    ClusterState,
    Encoded,
    SimilarityBackend,
    cluster,
    predict,
    retrain,
    train,
)
from .lta import BatchComparison, LtaDecision, SensingSpec, argmin_serial

__version__ = "0.1.0"
