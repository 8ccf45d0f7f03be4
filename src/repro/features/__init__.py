"""Featurization: the paper's basic and derived features (Tables 2-3).

One :class:`FeatureInput` captures the raw statistics of an operator
instance; :func:`feature_vector` expands it into the ~30-dimensional derived
feature vector shared by all learned models.  :class:`FeatureTable` is the
columnar form (one ``(n, 9)`` feature array) that training, evaluation and
serving expand in bulk — one fused pass over all rows instead of one Python
call per operator.
"""

from repro.features.featurizer import (
    ALL_FEATURE_NAMES,
    BASIC_FEATURE_NAMES,
    CONTEXT_FEATURE_NAMES,
    DERIVED_FEATURE_NAMES,
    FEATURE_EXPRESSIONS,
    FEATURE_FUNCTIONS,
    FeatureInput,
    expand_columns,
    feature_matrix,
    feature_names,
    feature_vector,
    partition_feature_names,
)
from repro.features.table import FeatureTable

__all__ = [
    "ALL_FEATURE_NAMES",
    "BASIC_FEATURE_NAMES",
    "CONTEXT_FEATURE_NAMES",
    "DERIVED_FEATURE_NAMES",
    "FEATURE_EXPRESSIONS",
    "FEATURE_FUNCTIONS",
    "FeatureInput",
    "FeatureTable",
    "expand_columns",
    "feature_matrix",
    "feature_names",
    "feature_vector",
    "partition_feature_names",
]
