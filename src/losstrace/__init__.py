"""Robust training for time-series anomaly detection on contaminated data.

The toolkit trains window-based reconstruction or prediction models whose
per-sample loss traces over a few trial epochs identify plausibly anomalous
training windows; those are discarded and the model is retrained from
scratch on the rest.
"""

from .data import (
    ContaminationSpec,
    MultivariateSeries,
    Normalizer,
    SyntheticConfig,
    WindowSet,
    apply_normalizer,
    fit_normalizer,
    generate_synthetic,
    inject_contamination,
    load_csv,
    make_windows,
    split_train_val,
    write_csv,
)
from .errors import (
    ConfigError,
    FilterError,
    MetricError,
    NumericError,
    ParseError,
    ShapeError,
    ToolkitError,
    TrainingError,
)
from .filtering import (
    FilterReport,
    LossTrace,
    RobustTrainConfig,
    final_fit,
    metric_m,
    metric_v,
    quantile_threshold,
    record_trial_traces,
    robust_train,
    select_discard,
)
from .metrics import auc_roc, best_f1, coverage
from .models import (
    FitResult,
    TrainConfig,
    TsadModel,
    anomaly_scores,
    build_model,
    fit,
    load_checkpoint,
    sample_losses,
    save_checkpoint,
    train_epoch,
)
from .experiment import (
    DEFAULT_RATIOS,
    ExperimentResult,
    ResultRow,
    SweepConfig,
    plan_cells,
    run_cell,
    run_sweep,
    summarize,
    write_results,
    write_summary,
)
from .nn import (
    DenseLayer,
    DenseNet,
    OptimizerState,
    backward,
    forward,
    init_network,
    init_optimizer,
    mse_per_sample,
)
from .seeding import derive_seed

__version__ = "0.1.0"
