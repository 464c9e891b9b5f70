"""Hyperdimensional computing with a behavioral SOT-CAM accelerator model."""

from .cam import (
    AnalogParams,
    BankLayout,
    VoltageProfile,
    calibrate_profile,
    load_rows,
    max_line_deviation,
    search_analog,
    search_ideal,
    transfer_curve,
)
from .config import ExperimentConfig, load_cost_table, load_experiment_config, load_profile, save_profile
from .cost import CostLedger, CostReport, CostTable, OpCost, ratios_vs_cmos, report, tally
from .datasets import Dataset, SyntheticSpec, ingest, make_hv_blobs, make_language_corpus, make_record_blobs, purity
from .encoder import (
    EncodingConfig,
    ItemMemory,
    LevelMemory,
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
    AccumulatorHV,
    BipolarHV,
    Rng,
    binarize,
    bind,
    bundle_add,
    bundle_sub,
    dot_bipolar,
    hamming,
    permute_drop,
    permute_shift,
    random_hv,
)
from .learner import (
    ClassMemory,
    ClusterState,
    EncodedSample,
    SimilarityBackend,
    cluster,
    predict,
    retrain,
    train,
)
from .lta import BatchComparison, LtaDecision, SensingSpec, argmin_serial, compare_batch

__version__ = "0.1.0"
