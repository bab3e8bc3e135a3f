"""Classifiers, the content baseline, and pipeline persistence."""

from .baseline import BaselineFeaturizer
from .forest import RandomForestModel, rf_predict, rf_train
from .neighbors import KnnModel, knn_predict, knn_train
from .persistence import MODEL_FORMAT_VERSION, load_pipeline, save_pipeline
from .pipeline import (
    CLASSIFIER_NAMES,
    ClassifierSettings,
    TrainedPipeline,
    classifier_predict,
    train_baseline_pipeline,
    train_classifier,
    train_tag_pipeline,
)
from .svm import LinearSvmModel, svm_predict, svm_train

__all__ = [
    "BaselineFeaturizer",
    "CLASSIFIER_NAMES",
    "ClassifierSettings",
    "KnnModel",
    "LinearSvmModel",
    "MODEL_FORMAT_VERSION",
    "RandomForestModel",
    "TrainedPipeline",
    "classifier_predict",
    "knn_predict",
    "knn_train",
    "load_pipeline",
    "rf_predict",
    "rf_train",
    "save_pipeline",
    "svm_predict",
    "svm_train",
    "train_baseline_pipeline",
    "train_classifier",
    "train_tag_pipeline",
]
