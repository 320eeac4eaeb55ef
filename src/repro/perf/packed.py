"""Packed-``uint64`` coverage kernels.

A boolean ``(m, n)`` coverage matrix is repacked once into an
``(n, ceil(m/64))`` array of ``uint64`` words (bit ``t`` of reader *i*'s row
= tag *t* covered), plus the matching Python big-int masks the
:class:`~repro.perf.incremental.GeneralizedWeightClimber` works on.  Packing is the
O(n·m) step every solver used to repeat per call; here it happens once per
system (cached by :attr:`RFIDSystem.packed_coverage`) and everything
downstream is O(n) or O(m/64).

Popcounts over the word array use :func:`numpy.bitwise_count` where
available (NumPy ≥ 2.0) and an 8-bit lookup table otherwise — identical
integers either way.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional, Tuple

import numpy as np

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)

if hasattr(np, "bitwise_count"):

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of an unsigned integer array."""
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - NumPy < 2.0 fallback

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of an unsigned integer array."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        counts = _BYTE_POPCOUNT[as_bytes].reshape(words.shape + (-1,))
        return counts.sum(axis=-1, dtype=np.int64)


def _bytes_to_words(packed8: np.ndarray, num_words: int) -> np.ndarray:
    """Reinterpret little-endian packed bytes as ``uint64`` words."""
    rows = packed8.shape[0]
    if sys.byteorder == "little":
        return packed8.view(np.uint64)
    # Big-endian hosts: the most significant byte of each word comes last
    # in the little-endian byte stream, so reverse bytes within each word.
    flipped = packed8.reshape(rows, num_words, 8)[..., ::-1]
    return np.ascontiguousarray(flipped).view(np.uint64).reshape(rows, num_words)


def pack_bool_to_words(arr: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into a ``(ceil(len/64),)`` ``uint64`` array
    (bit ``t`` = element ``t``)."""
    arr = np.asarray(arr, dtype=bool)
    m = arr.shape[-1]
    num_words = (m + 63) // 64
    if m == 0:
        return np.zeros(num_words, dtype=np.uint64)
    packed8 = np.packbits(arr, bitorder="little")
    pad = num_words * 8 - packed8.shape[0]
    if pad:
        packed8 = np.concatenate([packed8, np.zeros(pad, dtype=np.uint8)])
    return _bytes_to_words(packed8.reshape(1, -1), num_words)[0]


def bigint_to_words(value: int, num_words: int) -> np.ndarray:
    """Unpack a big-int tag mask into a ``(num_words,)`` ``uint64`` array —
    the inverse of :meth:`PackedCoverage.pack_mask` for masks of at most
    ``64 * num_words`` bits (bit ``t`` of the big-int = bit ``t % 64`` of
    word ``t // 64``)."""
    if num_words == 0:
        return np.zeros(0, dtype=np.uint64)
    raw = int(value).to_bytes(num_words * 8, "little")
    packed8 = np.frombuffer(raw, dtype=np.uint8).reshape(1, num_words * 8)
    return _bytes_to_words(packed8, num_words)[0]


def iter_bits(value: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative big-int, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def bigint_to_bool(value: int, length: int) -> np.ndarray:
    """Unpack a non-negative big-int into a ``(length,)`` boolean array
    (element ``i`` = bit ``i``); *value* must fit in *length* bits."""
    raw = int(value).to_bytes((length + 7) // 8, "little")
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8), count=length, bitorder="little"
    )
    return bits.view(bool)


class PackedCoverage:
    """Word-packed view of one system's coverage matrix.

    Attributes
    ----------
    words:
        ``(n, ceil(m/64))`` ``uint64``; bit ``t`` of row ``i`` = tag *t* in
        reader *i*'s interrogation region.
    masks:
        Per-reader Python big-int of the same bits (the climber currency),
        shared read-only by every climber built from this system, which is
        what makes climber construction O(n).
    full_mask:
        Big-int with all ``m`` tag bits set.
    """

    __slots__ = ("num_readers", "num_tags", "num_words", "words", "masks",
                 "full_mask")

    def __init__(self, coverage: np.ndarray):
        coverage = np.asarray(coverage, dtype=bool)
        m, n = coverage.shape
        self.num_tags = m
        self.num_readers = n
        self.num_words = (m + 63) // 64
        if n and m:
            packed8 = np.packbits(coverage.T, axis=1, bitorder="little")
            pad = self.num_words * 8 - packed8.shape[1]
            if pad:
                packed8 = np.concatenate(
                    [packed8, np.zeros((n, pad), dtype=np.uint8)], axis=1
                )
            self.words = _bytes_to_words(np.ascontiguousarray(packed8), self.num_words)
            self.masks = tuple(
                int.from_bytes(row.tobytes(), "little") for row in packed8
            )
        else:
            self.words = np.zeros((n, self.num_words), dtype=np.uint64)
            self.masks = (0,) * n
        self.words.setflags(write=False)
        self.full_mask = (1 << m) - 1 if m else 0

    def pack_mask(self, arr: np.ndarray) -> int:
        """Pack a boolean tag mask into a big-int, validating its shape."""
        arr = np.asarray(arr, dtype=bool)
        if arr.shape != (self.num_tags,):
            raise ValueError(f"unread mask must have shape ({self.num_tags},)")
        if self.num_tags == 0:
            return 0
        return int.from_bytes(
            np.packbits(arr, bitorder="little").tobytes(), "little"
        )

    def covered_counts(self, unread: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-reader count of covered (optionally unread) tags — equals
        ``(coverage & unread[:, None]).sum(axis=0)`` exactly."""
        if unread is None:
            return popcount_words(self.words).sum(axis=1, dtype=np.int64)
        unread = np.asarray(unread, dtype=bool)
        if unread.shape != (self.num_tags,):
            raise ValueError(f"unread mask must have shape ({self.num_tags},)")
        unread_words = pack_bool_to_words(unread)
        return popcount_words(self.words & unread_words).sum(axis=1, dtype=np.int64)


def pack_square_bool(matrix: np.ndarray) -> Tuple[int, ...]:
    """Pack each row of a boolean ``(n, n)`` matrix into a big-int over
    column indices (bit ``j`` of entry ``i`` = ``matrix[i, j]``)."""
    matrix = np.asarray(matrix, dtype=bool)
    n = matrix.shape[0]
    if n == 0:
        return ()
    packed8 = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed8)
