"""From-scratch classifiers: KNN, logistic regression, random forest,
RBF-kernel SVM, a single-layer LSTM, and trivial baselines."""

from .baseline import ConstantModel
from .forest import RFConfig, RFModel, best_split, gini, rf_fit, rf_scores
from .io import load_model, model_from_dict, model_to_dict, save_model
from .knn import KnnModel, knn_vote
from .logistic import (
    LogRegConfig,
    LogRegModel,
    logreg_fit,
    logreg_predict_proba,
    sigmoid,
)
from .lstm import (
    LstmParams,
    LstmTrainConfig,
    init_params,
    lstm_forward,
    lstm_grad,
    lstm_predict,
    lstm_train,
)
from .registry import MODELS, ModelSpec, spec_for
from .svm import SVMModel, rbf_kernel, svm_decision, svm_fit_smo

__all__ = [
    "ConstantModel",
    "KnnModel",
    "LogRegConfig",
    "LogRegModel",
    "LstmParams",
    "LstmTrainConfig",
    "MODELS",
    "ModelSpec",
    "RFConfig",
    "RFModel",
    "SVMModel",
    "best_split",
    "gini",
    "init_params",
    "knn_vote",
    "load_model",
    "logreg_fit",
    "logreg_predict_proba",
    "lstm_forward",
    "lstm_grad",
    "lstm_predict",
    "lstm_train",
    "model_from_dict",
    "model_to_dict",
    "rbf_kernel",
    "rf_fit",
    "rf_scores",
    "save_model",
    "sigmoid",
    "spec_for",
    "svm_decision",
    "svm_fit_smo",
]
