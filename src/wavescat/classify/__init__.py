from .data import Dataset
from .kfold import KFoldJob, KFoldResult, predict, run_kfold
from .metrics import (ConfusionMatrix, confusion_from_counts_csv,
                      confusion_stats, confusion_to_csv)
from .mlp import MlpModel, loss_and_grad, predict_mlp, train_mlp
from .svm import (OvaSvmModel, decision_values_svm, predict_svm,
                  train_svm_ova)
from .tree import (DecisionTreeModel, predict_tree, train_tree,
                   tree_complexity)

__all__ = [
    "Dataset", "KFoldJob", "KFoldResult", "predict", "run_kfold",
    "ConfusionMatrix", "confusion_from_counts_csv", "confusion_stats",
    "confusion_to_csv",
    "MlpModel", "loss_and_grad", "predict_mlp", "train_mlp",
    "OvaSvmModel", "decision_values_svm", "predict_svm", "train_svm_ova",
    "DecisionTreeModel", "predict_tree", "train_tree", "tree_complexity",
]
