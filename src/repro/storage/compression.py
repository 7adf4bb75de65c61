"""Pluggable per-bucket compression codecs (Section 2.8).

"What compression algorithms to employ" is one of the paper's open storage
research questions; the engine therefore treats the codec as a per-bucket
choice.  Each codec encodes one numpy array (one attribute of one bucket)
to bytes and back.  :func:`best_codec` implements the simple policy the
benchmarks evaluate: try the candidates on a sample and keep the one with
the best compression ratio (:func:`best_encoding` also keeps its bytes).

Codecs:

* ``none`` — raw little-endian bytes (the speed baseline),
* ``zlib`` — DEFLATE over raw bytes,
* ``delta`` — per-element delta in the array's flattened order, then zlib;
  effective on smooth science fields and monotone dimensions,
* ``rle`` — run-length encoding of repeated values, then zlib; effective on
  masks, cloud flags and mostly-constant calibration planes.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Iterable, Optional

import numpy as np

from ..core.errors import StorageError

__all__ = [
    "Codec",
    "NoneCodec",
    "ZlibCodec",
    "DeltaZlibCodec",
    "RleCodec",
    "CODECS",
    "register_codec",
    "get_codec",
    "best_encoding",
    "best_codec",
]


class Codec:
    """Interface: byte-level compression of one ndarray."""

    name: str = "abstract"

    def encode(self, array: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        raise NotImplementedError

    # -- helpers shared by subclasses ------------------------------------------

    @staticmethod
    def _to_bytes(array: np.ndarray) -> bytes:
        if array.dtype == object:
            return pickle.dumps(list(array.ravel()), protocol=4)
        return np.ascontiguousarray(array).tobytes()

    @staticmethod
    def _from_bytes(payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        if dtype == object:
            try:
                flat = pickle.loads(payload)
            except Exception as exc:  # a torn pickle can raise anything
                raise ValueError(f"undecodable object plane: {exc!r}") from exc
            out = np.empty(int(np.prod(shape)) if shape else 1, dtype=object)
            out[:] = flat
            return out.reshape(shape)
        return np.frombuffer(bytearray(payload), dtype=dtype).reshape(shape)  # writable


class NoneCodec(Codec):
    """No compression; raw bytes."""

    name = "none"

    def encode(self, array: np.ndarray) -> bytes:
        return self._to_bytes(array)

    def decode(self, payload, dtype, shape):
        return self._from_bytes(payload, dtype, shape)


class ZlibCodec(Codec):
    """DEFLATE over the raw byte image."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def encode(self, array: np.ndarray) -> bytes:
        return zlib.compress(self._to_bytes(array), self.level)

    def decode(self, payload, dtype, shape):
        return self._from_bytes(zlib.decompress(payload), dtype, shape)


class DeltaZlibCodec(Codec):
    """First-order delta along the flattened order, then DEFLATE.

    Numeric dtypes only; falls back to plain zlib for object arrays.
    """

    name = "delta"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def encode(self, array: np.ndarray) -> bytes:
        if array.dtype == object:
            return b"O" + zlib.compress(self._to_bytes(array), self.level)
        flat = np.ascontiguousarray(array).ravel()
        if flat.size == 0:
            return b"D" + zlib.compress(b"", self.level)
        if np.issubdtype(flat.dtype, np.floating):
            # Delta floats via their integer bit patterns (lossless).
            bits = flat.view(np.uint64 if flat.dtype == np.float64 else np.uint32)
            delta = np.diff(bits, prepend=bits.dtype.type(0))
        elif flat.dtype == np.bool_:
            # Bool arithmetic is logical in numpy; delta the byte image.
            bits = flat.view(np.uint8)
            delta = np.diff(bits, prepend=np.uint8(0))
        else:
            delta = np.diff(flat, prepend=flat.dtype.type(0))
        return b"D" + zlib.compress(delta.tobytes(), self.level)

    def decode(self, payload, dtype, shape):
        raw = zlib.decompress(payload[1:])
        if payload[:1] == b"O":
            return self._from_bytes(raw, dtype, shape)
        dtype = np.dtype(dtype)
        # Floats and bools were delta'd as the unsigned integers of their
        # bytes, integers in wrapping arithmetic: one unsigned sum undoes both.
        bits = np.dtype(f"u{dtype.itemsize}") if dtype.kind in "fbiu" else dtype
        return np.cumsum(np.frombuffer(raw, bits), dtype=bits).view(dtype).reshape(shape)


class RleCodec(Codec):
    """Run-length encoding of equal consecutive values, then DEFLATE."""

    name = "rle"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def encode(self, array: np.ndarray) -> bytes:
        if array.dtype == object:
            return b"O" + zlib.compress(self._to_bytes(array), self.level)
        flat = np.ascontiguousarray(array).ravel()
        if flat.size == 0:
            runs = np.empty(0, dtype=np.int64)
            values = flat
        else:
            boundary = np.empty(flat.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = flat[1:] != flat[:-1]
            starts = np.flatnonzero(boundary)
            lengths = np.diff(np.append(starts, flat.size))
            values = flat[starts]
            runs = lengths.astype(np.int64)
        payload = runs.tobytes() + values.tobytes()
        header = struct.pack("<q", runs.size)
        return b"R" + header + zlib.compress(payload, self.level)

    def decode(self, payload, dtype, shape):
        if payload[:1] == b"O":
            return self._from_bytes(zlib.decompress(payload[1:]), dtype, shape)
        (n_runs,) = struct.unpack("<q", payload[1:9])
        raw = zlib.decompress(payload[9:])
        runs = np.frombuffer(raw[: 8 * n_runs], dtype=np.int64)
        values = np.frombuffer(raw[8 * n_runs :], dtype=dtype)
        return np.repeat(values, runs).reshape(shape)  # a new array


CODECS: dict[str, Codec] = {}


def register_codec(codec: Codec, replace: bool = False) -> Codec:
    if codec.name in CODECS and not replace:
        raise StorageError(f"codec {codec.name!r} already registered")
    CODECS[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return CODECS[name]
    except KeyError:
        raise StorageError(f"unknown codec {name!r}") from None


register_codec(NoneCodec())
register_codec(ZlibCodec())
register_codec(DeltaZlibCodec())
register_codec(RleCodec())


def best_encoding(
    sample: np.ndarray, candidates: Optional[Iterable[str]] = None
) -> tuple[Codec, bytes]:
    """The candidate with the smallest encoding of *sample*, and that
    encoding, so the winner is not encoded twice.

    Ties break toward the cheaper codec (candidate order).  This is the
    "auto" policy used when a bucket is spilled with ``codec='auto'``.
    """
    names = list(candidates) if candidates else ["none", "zlib", "delta", "rle"]
    codecs = [get_codec(name) for name in names]
    return min(((c, c.encode(sample)) for c in codecs), key=lambda cb: len(cb[1]))


def best_codec(
    sample: np.ndarray, candidates: Optional[Iterable[str]] = None
) -> Codec:
    """The codec :func:`best_encoding` picks for *sample*."""
    return best_encoding(sample, candidates)[0]
