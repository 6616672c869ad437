"""From-scratch classifiers: KNN, logistic regression, random forest,
RBF-kernel SVM, a single-layer LSTM, and trivial baselines. A public name
loads its module on first use."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "baseline": "ConstantModel",
    "forest": "RFConfig RFModel best_split gini rf_fit rf_scores",
    "io": "load_model model_from_dict model_to_dict save_model",
    "knn": "KnnModel knn_vote",
    "logistic": "LogRegConfig LogRegModel logreg_fit logreg_predict_proba sigmoid",
    "lstm": "LstmParams LstmTrainConfig init_params lstm_forward lstm_grad lstm_predict lstm_train",
    "registry": "MODELS ModelSpec spec_for",
    "svm": "SVMModel rbf_kernel svm_decision svm_fit_smo",
})
