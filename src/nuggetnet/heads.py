"""Classifier heads and the span-class codec.

Two linear softmax heads sit on top of the fused features: one over span
classes (NIL plus every (length, position) pair up to the length cap) and
one over event subtypes.  The subtype head has no NIL class; it is only
ever trained and queried on characters inside gold or proposed nuggets.
"""

from __future__ import annotations

import numpy as np

from .labels import (
    NuggetLabel,
    decode_label,
    encode_label,
    label_for,
    label_to_class,
    num_nugget_classes,
)
from .ndcore import ParamStore, softmax

__all__ = [
    "NuggetLabel",
    "decode_label",
    "encode_label",
    "label_for",
    "label_to_class",
    "num_nugget_classes",
    "register_head_params",
    "head_scores",
    "head_backward",
    "nugget_distribution",
    "type_distribution",
]


def register_head_params(store: ParamStore, fused_dim: int, n_nugget_classes: int, n_subtypes: int) -> None:
    store.add("head.nugget_w", (n_nugget_classes, fused_dim), init="glorot")
    store.add("head.nugget_b", (n_nugget_classes,), init="zeros")
    store.add("head.type_w", (n_subtypes, fused_dim), init="glorot")
    store.add("head.type_b", (n_subtypes,), init="zeros")


def head_scores(store: ParamStore, head: str, features: np.ndarray) -> np.ndarray:
    """Scores for (m, fused_dim) feature rows, or for one feature vector."""
    return features @ store[f"head.{head}_w"].value.T + store[f"head.{head}_b"].value


def head_backward(store: ParamStore, head: str, features: np.ndarray, dscores: np.ndarray) -> np.ndarray:
    """Accumulate head gradients over (m, fused_dim) rows; returns dL/dfeatures."""
    store[f"head.{head}_w"].grad += dscores.T @ features
    store[f"head.{head}_b"].grad += dscores.sum(axis=0)
    return dscores @ store[f"head.{head}_w"].value


def nugget_distribution(store: ParamStore, features: np.ndarray) -> np.ndarray:
    return softmax(head_scores(store, "nugget", features))


def type_distribution(store: ParamStore, features: np.ndarray) -> np.ndarray:
    return softmax(head_scores(store, "type", features))
