"""Deterministic random streams built on the Philox counter-based generator.

Every random draw in this package comes from numpy's Philox (Philox4x64-10),
keyed with a 128-bit value `(stream_tag << 64) | (value mod 2**64)`. Distinct
stream tags keep dataset generation, parameter initialization, and epoch
shuffling statistically independent and collision-free, and make every
artifact a pure function of the user-visible seeds.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .matrices import ValidationError

__all__ = [
    "STREAM_INSTANCE",
    "STREAM_PARAMS_ATTENTION",
    "STREAM_PARAMS_CLASSIFIER",
    "STREAM_SHUFFLE",
    "stream_rng",
    "instance_seed",
]

STREAM_INSTANCE = 1
STREAM_PARAMS_ATTENTION = 2
STREAM_PARAMS_CLASSIFIER = 3
STREAM_SHUFFLE = 4

_WORD = 2**64


def _check(stream_tag: int, value: int) -> None:
    if stream_tag < 1:
        raise ValidationError(f"stream_tag must be >= 1, got {stream_tag}")
    if value < 0:
        raise ValidationError(f"seed value must be >= 0, got {value}")


def stream_rng(stream_tag: int, value: int) -> np.random.Generator:
    """Generator for one named stream; pure function of (stream_tag, value)."""
    _check(stream_tag, value)
    key = (stream_tag << 64) | (value % _WORD)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed(stream_tag: int, values: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each value, a Generator that draws exactly what
    `stream_rng(stream_tag, value)` draws.

    It is one Generator, re-keyed in place for each value: the key is set,
    the counter zeroed, and the buffered words and the buffered 32-bit half
    dropped. That costs about a tenth of building a new Philox, which also
    seeds an unused SeedSequence from OS entropy. Finish with each Generator
    before taking the next.
    """
    rng = stream_rng(stream_tag, 0)
    bit_generator = rng.bit_generator
    fresh = bit_generator.state  # a copy: zero counter, empty buffers
    key = fresh["state"]["key"]  # (value word, stream_tag word)
    for value in values:
        _check(stream_tag, value)
        key[0] = value % _WORD
        bit_generator.state = fresh
        yield rng


def instance_seed(master_seed: int, split_tag: int, index: int) -> int:
    """Per-instance seed with disjoint train/test streams.

    split_tag 0 = train, 1 = test; index is the instance position within the
    split. Collision-free for indices below 2**32.
    """
    if master_seed < 0 or split_tag < 0 or index < 0:
        raise ValidationError("master_seed, split_tag and index must all be >= 0")
    return ((master_seed * 2 + split_tag) * 2**32 + index) % _WORD
