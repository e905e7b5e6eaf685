"""Dense matrix helpers: validation and the numerically stable softmax,
and the readers and writers of the JSON files and dataclass fields the CLI reads.

All matrices in this package are 2-D float64 numpy arrays in row-major (C)
order, or (B, n, n) stacks of B such matrices where equal-n instances go
through a kernel at once. Public operations validate shapes and finiteness
at entry and raise :class:`ShapeError` / :class:`ValidationError` instead of
broadcasting silently; `_softmax` is the unchecked kernel behind them, for
callers whose input was checked where it entered.
"""

from __future__ import annotations

import base64
import json
import os
import sys
from dataclasses import MISSING, fields
from itertools import chain

import numpy as np

__all__ = [
    "ShapeError",
    "ValidationError",
    "NonFiniteError",
    "as_matrix",
    "check_finite",
    "check_same_shape",
    "softmax_matrix",
]


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ShapeError(ValidationError):
    """Matrix dimensions do not match what the operation requires."""


class NonFiniteError(ValidationError):
    """A matrix holds NaN or inf: bad input, or overflow during training."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array, validating shape and finiteness."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, got {m.shape}")
    check_finite(m, name)
    return m


def check_finite(m: np.ndarray, name: str = "matrix") -> None:
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains non-finite entries")


def _check_boxes(boxes: np.ndarray) -> None:
    """(..., 4) rows of (x1, y1, x2, y2) must be finite with x1 < x2 and y1 < y2."""
    if not np.isfinite(boxes).all():
        raise ValidationError("boxes contain non-finite coordinates")
    if (boxes[..., 0] >= boxes[..., 2]).any() or (boxes[..., 1] >= boxes[..., 3]).any():
        raise ValidationError("boxes must satisfy x1 < x2 and y1 < y2")


# The one order of the cells i < j (row-major) that packed targets, top-K
# candidates and relation pairs share, cached per entity count n. An entry
# takes ~16 bytes per cell i < j (int64 flat indices, and the int32 n x n
# position map, which covers each cell twice): ~0.7 MB at n = 300, ~134 MB at
# MAX_ITEMS. So the cache drops its least recently used sizes once they hold
# more than _UPPER_CELLS_BOUND cells (~2.1 MB), keeping the latest size
# whatever it holds. The bound keeps doc-medium's 17 sizes (48-64 tokens,
# 26,384 cells) cached next to n = 300 (44,850), and every n up to 92 at once.
# `take` copies a read-only index array to intp on every call, whatever its
# dtype, so an intp map would gather no faster (measured at n = 56 and 300)
# and cost ~24 bytes per cell, its build peaking at ~1.1 MB at n = 300 against
# ~0.8 MB. `upper` is intp and read by indexing, which copies nothing.
_UPPER_CELLS_BOUND = 2**17
_upper_cache: dict = {}  # n -> (upper, position), least recently used first


def _upper_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (upper, position) of the m = n(n-1)/2 cells i < j of an n x n
    matrix: `upper`, their flat indices i*n + j in row-major order, and
    `position`, the (n, n) int32 map from each cell (i, j) and (j, i) to its
    place in that order, with m on the diagonal. So `flat[upper]` reads the
    cells of a raveled matrix in order, and `cells.take(position)` turns
    m + 1 values, the last one the diagonal's, into the symmetric matrix."""
    entry = _upper_cache.pop(n, None)
    if entry is None:
        m = n * (n - 1) // 2
        mask = ~np.tri(n, dtype=bool)
        position = np.full((n, n), m, dtype=np.int32)
        order = np.arange(m, dtype=np.int32)
        position[mask] = order  # masked writes visit the cells row-major
        position.T[mask] = order
        del order  # before `upper`: no full-size temporaries side by side
        upper = np.flatnonzero(mask)
        entry = upper, position
        for a in entry:
            a.flags.writeable = False
        cached = m + sum(cells[0].size for cells in _upper_cache.values())
        for old in list(_upper_cache):
            if cached <= _UPPER_CELLS_BOUND:
                break
            cached -= _upper_cache.pop(old)[0].size
    _upper_cache[n] = entry  # re-inserted last: the most recently used
    return entry


_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_PAIRS.flags.writeable = False


def _index_pairs(raw, n: int, field: str) -> np.ndarray:
    """Parse a list of [i, j] index pairs into a read-only (m, 2) int64 array.

    Every entry must be two distinct integers in [0, n); otherwise a
    ValidationError names the field and the first bad entry. Types are
    checked on the list itself, because numpy turns a bool among ints into
    0/1; an array is checked as its list.
    """
    raw = raw.tolist() if isinstance(raw, np.ndarray) else raw
    if isinstance(raw, (list, tuple)) and not raw:
        return _NO_PAIRS
    flat = None
    try:
        if set(map(len, raw)) == {2} and set(map(type, chain.from_iterable(raw))) == {int}:
            flat = np.fromiter(chain.from_iterable(raw), np.int64, 2 * len(raw))
    except (TypeError, OverflowError):  # an unsized entry; an index beyond int64
        pass
    # as unsigned, a negative index wraps past any n: one max checks both ends
    in_range = flat is not None and flat.astype(np.uint64).max() < n
    if not in_range or np.count_nonzero(flat[::2] == flat[1::2]):
        listed = isinstance(raw, (list, tuple))
        bad = next(p for p in raw if not _is_index_pair(p, n)) if listed else raw
        raise ValidationError(
            f"{field}: bad index pair {bad!r}, need two distinct integers in [0, {n})"
        )
    pairs = flat.reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def _is_index_pair(p, n: int) -> bool:
    return isinstance(p, (list, tuple)) and len(p) == 2 and p[0] != p[1] and all(
        type(x) is int and 0 <= x < n for x in p
    )


def _json_number(value, field: str, integer: bool = False):
    """A number read from JSON, returned as given: a non-bool int, or with
    integer=False any real, where an int must not exceed the largest float."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        want = "an integer" if integer else "a real number"
        raise ValidationError(f"{field}: expected {want}, got {value!r}")
    if not integer and type(value) is int and abs(value) > sys.float_info.max:
        n = value.bit_length()
        raise ValidationError(f"{field}: expected a real number, got a {n}-bit integer")
    return value


def _json_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{field}: expected true or false, got {value!r}")
    return value


# How a JSON value becomes a dataclass field, by the field's annotation string.
# A real field holds a float, so a JSON 0 and 0.0 give the same object and output.
_FIELD_READERS = {
    "int": lambda raw, key: _json_number(raw, key, integer=True),
    "float": lambda raw, key: float(_json_number(raw, key)),
    "bool": _json_bool,
}


def _check_keys(d: dict, known, required, prefix: str = "") -> None:
    """Every key in `required` is in d and every key of d is in `known`;
    `prefix` names the object that holds d, e.g. "params."."""
    for key in required:
        if key not in d:
            raise ValidationError(f"{prefix}{key}: missing required field")
    for key in d:
        if key not in known:
            raise ValidationError(f"{prefix}{key}: unknown field")


def _from_json(cls, d: dict, prefix: str = ""):
    """An instance of dataclass `cls` from the JSON object d.

    `cls.json_keys` maps a field to its JSON key where the two differ, and
    `cls.json_readers` adds readers by annotation to the shared ones; a field
    with no reader is passed as given, for the class's own checks. A field
    without a default is required; `prefix` goes before each key in messages.
    An optional `cls.json_retired` maps a key that is no longer a field to the
    one value, of one JSON type, that it may still hold; it is checked and dropped.
    """
    retired = getattr(cls, "json_retired", {})
    for key, accepted in retired.items():
        if key in d and (type(d[key]) is not type(accepted) or d[key] != accepted):
            raise ValidationError(f"{prefix}{key}: retired field, only {json.dumps(accepted)} is accepted")
    by_key = {cls.json_keys.get(f.name, f.name): f for f in fields(cls)}
    required = [key for key, f in by_key.items() if f.default is MISSING]
    _check_keys(d, by_key.keys() | retired.keys(), required, prefix)
    readers = {**_FIELD_READERS, **cls.json_readers}
    return cls(**{
        f.name: readers[f.type](d[key], prefix + key) if f.type in readers else d[key]
        for key, f in by_key.items() if key in d
    })


def _plain(value):
    """A field value as JSON: tuples as lists, and an array or a pair table
    as the lists its `tolist` gives."""
    if isinstance(value, tuple):
        return list(map(_plain, value))
    return value.tolist() if hasattr(value, "tolist") else value


def _json_dict(obj) -> dict:
    """The fields of dataclass obj as a JSON object, each under its key in
    `obj.json_keys` (by default its name); the inverse of `_from_json`."""
    return {obj.json_keys.get(f.name, f.name): _plain(getattr(obj, f.name)) for f in fields(obj)}


def _load_json(path, parse):
    """parse(the JSON object in file path). A fault in the file, or a
    ValidationError from parse, raises ValidationError prefixed with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError(f"expected an object, got {type(doc).__name__}")
        return parse(doc)
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: file not found") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:  # from json.load, or from quoting such a value in a message
        raise ValidationError(f"{path}: nested too deeply") from exc
    except ValidationError as exc:  # keeps the subclass, e.g. NonFiniteError
        raise type(exc)(f"{path}: {exc}") from exc


def _write_whole(path, write, newline=None, mode="w") -> None:
    """Write the file at `path` whole or not at all: write(fh) fills a new
    temporary file beside it, opened in `mode` ("w" for text, "wb" for
    bytes), which then replaces `path`. On any error the temporary file goes
    and a file already at `path` stays as it was. The file gets the
    permissions a plain `open` gives, and an OSError names `path`."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open
        try:
            with open(fd, mode, newline=newline) as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def _write_json(path, doc) -> None:
    """Strict JSON: a NaN or inf raises ValueError, and the file is not written."""
    _write_whole(path, lambda fh: fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"))


def check_same_shape(a: np.ndarray, b: np.ndarray, what: str = "operands") -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what} shapes differ: {a.shape} vs {b.shape}")


def _softmax(w: np.ndarray, axis) -> np.ndarray:
    """Unchecked softmax kernel over `axis`, which numpy reads as usual.

    On a matrix, 1 (or -1) is per row, 0 (or -2) per column and None
    matrix-wide; on a (B, n, n) stack, -1 and -2 are per row and column and
    (-2, -1) is matrix-wide within each matrix of the stack. Stabilized by
    subtracting the maximum along the axis, so arbitrarily large finite
    logits do not overflow.
    """
    e = w - np.maximum.reduce(w, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax_matrix(m) -> np.ndarray:
    """Matrix-wise softmax: one distribution over all entries, summing to 1."""
    return _softmax(as_matrix(m, "logits"), None)


# --- array payloads ----------------------------------------------------------------
#
# {"shape": [...], "dtype": ..., "data": base64 of the raw little-endian bytes}:
# the encoding of checkpoint parameters and of v2 dataset lines. It round-trips
# bit for bit and stays inspectable with standard tools.

_PAYLOAD_DTYPES = {"<f8": np.dtype(np.float64), "<i8": np.dtype(np.int64), "u1": np.dtype(np.uint8)}


def _encode_array(a: np.ndarray, dtype: str = "<f8") -> dict:
    return _encode_bytes(np.ascontiguousarray(a, dtype=dtype).tobytes(), a.shape, dtype)


def _encode_bytes(data: bytes, shape, dtype: str = "<f8") -> dict:
    """The encoded form of an array of `shape` whose raw `dtype` bytes are `data`."""
    return {
        "shape": list(shape),
        "dtype": dtype,
        "data": base64.b64encode(data).decode("ascii"),
    }


def _decode_payload(d, name: str, dtype: str = "<f8") -> tuple[tuple, bytes]:
    """(shape, raw bytes) of an encoded array whose dtype must be `dtype`.

    The payload must be strict base64 and hold exactly the bytes its shape needs.
    """
    if not isinstance(d, dict):
        raise ValidationError(f"{name}: expected an encoded array object, got {type(d).__name__}")
    if d.get("dtype") != dtype:
        raise ValidationError(f"{name}: unsupported dtype {d.get('dtype')!r}, expected {dtype!r}")
    shape = d.get("shape")
    need = _PAYLOAD_DTYPES[dtype].itemsize
    for s in shape if isinstance(shape, list) else (None,):  # a shape that is not a list fails too
        if type(s) is not int or s < 0:
            raise ValidationError(f"{name}: shape must be a list of non-negative integers, got {shape!r}")
        need *= s
    try:
        raw = base64.b64decode(d.get("data"), validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValidationError(f"{name}: data is not base64 ({exc})") from exc
    if len(raw) != need:
        raise ValidationError(
            f"{name}: payload holds {len(raw)} bytes, shape {tuple(shape)} needs {need}"
        )
    return tuple(shape), raw


def _decode_array(d, name: str, dtype: str = "<f8") -> np.ndarray:
    """A writable native-order copy of an encoded array; `_decode_payload` checks it."""
    shape, raw = _decode_payload(d, name, dtype)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_PAYLOAD_DTYPES[dtype], copy=True)
