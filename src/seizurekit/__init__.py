"""EEG seizure detection and prediction toolkit.

EDF reading and writing, seizure summary parsing, 2-second epoching with
detection/prediction labeling, statistical feature extraction with
train-only scaling, SMOTE oversampling, from-scratch classifiers (KNN,
logistic regression, random forest, RBF-SVM via SMO, LSTM), and
patient-independent evaluation with a leakage gate, plus a synthetic
dataset generator and a CLI (`seizurekit`) tying it all together.
"""

from .edf import (
    ChannelMeta,
    EdfCalibrationError,
    EdfParseError,
    EdfRangeError,
    Recording,
    SeizureInterval,
    SummaryError,
    parse_edf,
    parse_seizure_summary,
    write_edf,
)
from .epochs import (
    Epochs,
    LabeledEpochSet,
    SequenceDataset,
    Windows,
    build_sequences,
    denoise,
    label_detection,
    label_prediction,
    slice_epochs,
)
from .errors import ConfigError, DataError, LeakageError
from .evaluation import (
    MetricsReport,
    SplitPlan,
    assert_patient_disjoint,
    compute_metrics,
    kfold_patients,
    roc_auc,
    split_patients,
    summarize_folds,
)
from .features import (
    FeatureMatrix,
    Scaler,
    apply_scaler,
    extract_features,
    fit_scaler,
    read_feature_csv,
    write_feature_csv,
)
from .pipeline import PipelineConfig, RunResult, evaluate_split, run_cv, run_eval, run_holdout
from .smote import SmoteConfig, smote
from .synthetic import SynthConfig, generate_synthetic, generate_synthetic_recordings
from .version import SPEC_VERSION

__version__ = "0.1.0"

__all__ = [
    "ChannelMeta",
    "ConfigError",
    "DataError",
    "EdfCalibrationError",
    "EdfParseError",
    "EdfRangeError",
    "Epochs",
    "FeatureMatrix",
    "LabeledEpochSet",
    "LeakageError",
    "MetricsReport",
    "PipelineConfig",
    "Recording",
    "RunResult",
    "SPEC_VERSION",
    "Scaler",
    "SeizureInterval",
    "SequenceDataset",
    "SmoteConfig",
    "SplitPlan",
    "SummaryError",
    "SynthConfig",
    "Windows",
    "apply_scaler",
    "assert_patient_disjoint",
    "build_sequences",
    "compute_metrics",
    "denoise",
    "evaluate_split",
    "extract_features",
    "fit_scaler",
    "generate_synthetic",
    "generate_synthetic_recordings",
    "kfold_patients",
    "label_detection",
    "label_prediction",
    "parse_edf",
    "parse_seizure_summary",
    "read_feature_csv",
    "roc_auc",
    "run_cv",
    "run_eval",
    "run_holdout",
    "slice_epochs",
    "smote",
    "split_patients",
    "summarize_folds",
    "write_edf",
    "write_feature_csv",
]
