"""slotcast: pre-execution query slot-time prediction for cloud warehouses.

Pipeline: lexical SQL complexity scoring, TF-IDF + truncated-SVD text
features fused with volume and categorical features, histogram gradient
boosting on a log1p target, complexity-routed dual models, and a tiered
evaluation harness with constant-predictor baselines.
"""
from .errors import SlotcastError
from .records import QueryRecord
from .sql_analyzer import (
    CleanedQuery,
    ComplexityReport,
    analyze_sql,
    clean_query,
    complexity_score,
    count_operators,
    default_weights,
)
from .featurizer import Featurizer, FeaturizerConfig, FeatureMatrix
from .gbrt import Forest, GBRTConfig
from .predictor import (
    ModelBundle,
    PredictionResult,
    Router,
    TrainConfig,
    inverse_target,
    load_bundle,
    predict,
    predict_many,
    save_bundle,
    train,
    transform_target,
)
from .evaluator import (
    TIERS,
    EvalReport,
    MetricSet,
    emit_report,
    metrics,
    tiered_eval,
)
from .synth import (
    EnvironmentProfile,
    OperatorPlan,
    OracleCostModel,
    WorkloadConfig,
    generate,
    render_query,
    split_by_environment,
)

__version__ = "0.1.0"
