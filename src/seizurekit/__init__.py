"""EEG seizure detection and prediction toolkit.

EDF reading and writing, seizure summary parsing, 2-second epoching with
detection/prediction labeling, statistical feature extraction with
train-only scaling, SMOTE oversampling, from-scratch classifiers (KNN,
logistic regression, random forest, RBF-SVM via SMO, LSTM), and
patient-independent evaluation with a leakage gate, plus a synthetic
dataset generator and a CLI (`seizurekit`) tying it all together.

A public name, or a submodule such as `seizurekit.pipeline`, loads its
module on first use, so a command imports only the modules it runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"


def _lazy_exports(package: str, homes: dict[str, str]):
    """`__all__`, `__getattr__` and `__dir__` for package, whose public names
    are listed, space-separated, under their home module in homes. A name,
    or a submodule, is imported on first use and then kept in the package."""
    exports = {name: module for module, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name in exports:
            value = getattr(importlib.import_module(f"{package}.{exports[name]}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *exports})

    # Importing a submodule binds it on its package, which would hide a
    # public name that is spelled the same (smote, of seizurekit.smote).
    shadowed = {name for name in exports if name in homes}
    if shadowed:
        class Package(types.ModuleType):
            def __setattr__(self, name, value):
                if not (name in shadowed and isinstance(value, types.ModuleType)):
                    super().__setattr__(name, value)

        sys.modules[package].__class__ = Package
    return sorted(exports), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "edf": "ChannelMeta EdfCalibrationError EdfParseError EdfRangeError Recording "
           "SeizureInterval SummaryError parse_edf parse_seizure_summary write_edf",
    "epochs": "Epochs LabeledEpochSet SequenceDataset Windows build_sequences denoise "
              "label_detection label_prediction slice_epochs",
    "errors": "ConfigError DataError LeakageError",
    "evaluation": "MetricsReport SplitPlan assert_patient_disjoint compute_metrics "
                  "kfold_patients roc_auc split_patients summarize_folds",
    "features": "FeatureMatrix Scaler apply_scaler extract_features fit_scaler "
                "read_feature_csv write_feature_csv",
    "pipeline": "PipelineConfig RunResult evaluate_split run_cv run_eval run_holdout",
    "smote": "SmoteConfig smote",
    "synthetic": "SynthConfig generate_synthetic generate_synthetic_recordings",
    "version": "SPEC_VERSION",
})
