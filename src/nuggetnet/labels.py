"""Nugget label codec.

A per-character label is either NIL (the character belongs to no trigger)
or a pair (length, position): the character is the position-th character of
a trigger nugget spanning `length` characters.  With a maximum nugget length
of L there are L*(L+1)/2 such pairs, so the class space has L*(L+1)/2 + 1
entries with index 0 reserved for NIL.  Non-NIL classes are ordered by
(length ascending, position ascending), which gives the closed form

    class_index(length, position) = length*(length-1)//2 + position
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class NuggetLabel:
    """Either NIL (length 0) or a (length, position) pair with 1 <= position <= length."""

    length: int
    position: int

    NIL: ClassVar["NuggetLabel"]

    @property
    def is_nil(self) -> bool:
        return self.length == 0

    def __repr__(self) -> str:
        if self.is_nil:
            return "NuggetLabel.NIL"
        return f"NuggetLabel(length={self.length}, position={self.position})"


NuggetLabel.NIL = NuggetLabel(0, 0)


def num_nugget_classes(max_len: int) -> int:
    """Size of the label space for nuggets of length up to `max_len`, NIL included."""
    if max_len < 1:
        raise ShapeError(f"max_len must be >= 1, got {max_len}")
    return max_len * (max_len + 1) // 2 + 1


def encode_label(length: int, position: int, max_len: int) -> int:
    """Class index of the non-NIL label (length, position); NIL is index 0."""
    if not 1 <= position <= length <= max_len:
        raise ShapeError(
            f"invalid nugget label: need 1 <= position <= length <= {max_len}, "
            f"got length={length}, position={position}"
        )
    return length * (length - 1) // 2 + position


def label_to_class(label: NuggetLabel, max_len: int) -> int:
    if label.is_nil:
        return 0
    return encode_label(label.length, label.position, max_len)


@cache
def class_table(max_len: int) -> np.ndarray:
    """(length, position) of every class index, the inverse of `encode_label`, read-only; NIL's row is (0, 0)."""
    table = np.zeros((num_nugget_classes(max_len), 2), dtype=np.int64)
    for length in range(1, max_len + 1):
        for position in range(1, length + 1):
            table[encode_label(length, position, max_len)] = (length, position)
    table.flags.writeable = False
    return table


def decode_label(class_index: int, max_len: int) -> NuggetLabel:
    """Inverse of `encode_label`; index 0 decodes to NIL."""
    table = class_table(max_len)
    if not 0 <= class_index < table.shape[0]:
        raise ShapeError(f"class index {class_index} out of range [0, {table.shape[0]})")
    length, position = table[class_index].tolist()
    return NuggetLabel(length, position) if length else NuggetLabel.NIL


def label_for(trigger, char_index: int) -> NuggetLabel:
    """Label of `char_index` relative to a trigger nugget covering it.

    `trigger` is anything with integer `start` and `length` attributes.
    """
    if not trigger.start <= char_index < trigger.start + trigger.length:
        raise ShapeError(
            f"character {char_index} lies outside trigger span "
            f"[{trigger.start}, {trigger.start + trigger.length})"
        )
    return NuggetLabel(trigger.length, char_index - trigger.start + 1)
