from .data import Dataset
from .kfold import predict, run_kfold
from .metrics import (ConfusionMatrix, confusion_from_counts_csv,
                      confusion_stats, confusion_to_csv)
from .mlp import MlpModel, loss_and_grad, predict_mlp, train_mlp
from .svm import (OvaSvmModel, decision_values_svm, predict_svm,
                  train_svm_ova)
from .tree import (DecisionTreeModel, TreeNode, predict_tree,
                   train_tree, tree_complexity)

__all__ = [
    "Dataset", "predict", "run_kfold",
    "ConfusionMatrix", "confusion_from_counts_csv", "confusion_stats",
    "confusion_to_csv",
    "MlpModel", "loss_and_grad", "predict_mlp", "train_mlp",
    "OvaSvmModel", "decision_values_svm", "predict_svm", "train_svm_ova",
    "DecisionTreeModel", "TreeNode", "predict_tree", "train_tree",
    "tree_complexity",
]
