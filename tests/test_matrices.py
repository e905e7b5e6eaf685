"""Softmax primitives against hand-checked values; the array
codec; whole-file writes."""

import base64
import os
import re

import numpy as np
import pytest

from fanet.cli import _write_csv
from fanet.matrices import (
    NonFiniteError,
    ShapeError,
    ValidationError,
    _decode_array,
    _encode_array,
    _softmax,
    _write_json,
    _write_whole,
    as_matrix,
    check_same_shape,
    softmax_matrix,
)

# exp-normalized [[1, 2], [3, 5]], computed at 50-digit precision
ROWWISE_1235 = np.array(
    [
        [0.26894142136999512, 0.73105857863000488],
        [0.11920292202211756, 0.88079707797788244],
    ]
)
MATRIXWISE_1235 = np.array(
    [
        [0.015219428864155928, 0.041370696920960147],
        [0.11245721367093254, 0.83095266054395138],
    ]
)


def row_softmax(w):
    """The per-row softmax of the attention forward pass: the kernel over axis 1."""
    return _softmax(np.asarray(w, dtype=np.float64), 1)


class TestSoftmaxRows:
    def test_known_values(self):
        out = row_softmax([[1.0, 2.0], [3.0, 5.0]])
        np.testing.assert_allclose(out, ROWWISE_1235, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(9, 13)) * 10
        out = row_softmax(w)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(out > 0)

    def test_shift_invariance(self):
        """Adding a per-row constant must not change the distribution."""
        rng = np.random.default_rng(8)
        w = rng.normal(size=(5, 5))
        shift = rng.normal(size=(5, 1)) * 100
        np.testing.assert_allclose(
            row_softmax(w + shift), row_softmax(w), rtol=0, atol=1e-14
        )

    def test_large_logits_do_not_overflow(self):
        out = row_softmax([[1e308, 1e308 - 1e300], [0.0, -1e308]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_uniform_on_constant_input(self):
        out = row_softmax(np.full((3, 4), 2.5))
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-15)


class TestSoftmaxMatrix:
    def test_known_values(self):
        out = softmax_matrix([[1.0, 2.0], [3.0, 5.0]])
        np.testing.assert_allclose(out, MATRIXWISE_1235, rtol=0, atol=1e-15)

    def test_sums_to_one_overall(self):
        rng = np.random.default_rng(11)
        out = softmax_matrix(rng.normal(size=(8, 8)) * 30)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_global_shift_invariance(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            softmax_matrix(w + 123.0), softmax_matrix(w), rtol=0, atol=1e-14
        )

    def test_uniform_on_constant_input(self):
        out = softmax_matrix(np.zeros((4, 4)))
        np.testing.assert_allclose(out, 1.0 / 16.0, rtol=0, atol=0)


class TestValidation:
    def test_as_matrix_rejects_vectors(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0, 3.0])

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 3)))

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_matrix([[1.0, float("nan")]])

    def test_as_matrix_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_matrix([[1.0, float("inf")]])

    def test_non_finite_error_is_typed(self):
        """Non-finite input raises NonFiniteError, a ValidationError."""
        with pytest.raises(NonFiniteError, match="w contains non-finite entries"):
            as_matrix([[1.0, float("-inf")]], "w")
        assert issubclass(NonFiniteError, ValidationError)

    def test_check_same_shape(self):
        with pytest.raises(ShapeError):
            check_same_shape(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_as_matrix_preserves_values(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


class TestArrayCodec:
    @pytest.mark.parametrize(
        "a,dtype",
        [
            (np.array([[0.1, -2.5e-300], [np.pi, 1e308]]), "<f8"),
            (np.zeros((0, 4)), "<f8"),
            (np.array([-(2**63), 0, 2**63 - 1]), "<i8"),
            (np.array([0, 1, 255], dtype=np.uint8), "u1"),
            (np.zeros(0, dtype=np.uint8), "u1"),
        ],
    )
    def test_round_trip_is_exact_and_writable(self, a, dtype):
        d = _encode_array(a, dtype)
        assert d["shape"] == list(a.shape) and d["dtype"] == dtype
        assert base64.b64decode(d["data"]) == a.astype(dtype).tobytes()
        back = _decode_array(d, "a", dtype)
        assert back.dtype == a.dtype and back.shape == a.shape
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable and back.flags.c_contiguous

    def test_default_is_little_endian_float64(self):
        d = _encode_array(np.array([1.0]))
        assert d == {"shape": [1], "dtype": "<f8", "data": "AAAAAAAA8D8="}
        assert _decode_array(d, "a").tolist() == [1.0]

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"dtype": "<f4"}, "a: unsupported dtype '<f4', expected '<f8'"),
            ({"dtype": None}, "a: unsupported dtype None"),
            ({"shape": [3]}, "a: payload holds 16 bytes, shape (3,) needs 24"),
            ({"shape": [1]}, "a: payload holds 16 bytes, shape (1,) needs 8"),
            ({"shape": [-1, -2]}, "a: shape must be a list of non-negative integers"),
            ({"shape": [2.0]}, "a: shape must be a list of non-negative integers"),
            ({"shape": "2"}, "a: shape must be a list of non-negative integers"),
            ({"data": "AAAA AAAA"}, "a: data is not base64"),
            ({"data": "AAAAAAAA8D8"}, "a: data is not base64"),
            ({"data": "\u00e9"}, "a: data is not base64"),
            ({"data": 7}, "a: data is not base64"),
        ],
    )
    def test_rejects(self, change, message):
        d = {**_encode_array(np.array([1.0, 2.0])), **change}
        with pytest.raises(ValidationError, match=re.escape(message)):
            _decode_array(d, "a")

    def test_rejects_a_dtype_other_than_expected(self):
        d = _encode_array(np.array([1, 2]), "<i8")
        with pytest.raises(ValidationError, match="expected 'u1'"):
            _decode_array(d, "a", "u1")

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError, match="a: expected an encoded array object"):
            _decode_array([1.0, 2.0], "a")


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format this cell")


class TestWriteWhole:
    """A JSON artifact or a CSV table is written whole, or the old file stays."""

    @pytest.mark.parametrize("writer", [
        lambda p: _write_json(p, {"a": 1, "b": [2.5] * 1000, "z": object()}),
        lambda p: _write_csv(p, ["k", "recall"], [(k, 0.5) for k in range(1000)] + [(0, _Unprintable())]),
    ], ids=["json", "csv"])
    def test_failure_midway_keeps_the_old_file(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"the old artifact\n")
        with pytest.raises((TypeError, RuntimeError)):
            writer(path)
        assert path.read_bytes() == b"the old artifact\n"
        assert os.listdir(tmp_path) == ["artifact"]  # no temporary file left

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w") as fh:
                fh.write("x")
            _write_json(tmp_path / "whole", {"x": 1})
            _write_json(tmp_path / "whole", {"x": 2})  # replacing keeps the mode too
            assert os.umask(umask) == umask  # the writes left the umask as it was
        finally:
            os.umask(old)
        plain, whole = (os.stat(tmp_path / name).st_mode for name in ("plain", "whole"))
        assert whole == plain and plain & 0o777 == 0o666 & ~umask
        assert (tmp_path / "whole").read_text() == '{\n  "x": 2\n}\n'

    def test_os_error_names_the_path(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "out.json"
        with pytest.raises(FileNotFoundError) as info:
            _write_whole(missing, lambda fh: fh.write("x"))
        assert info.value.filename == str(missing) and str(missing) in str(info.value)
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            _write_whole(taken, lambda fh: fh.write("x"))
        assert info.value.filename == str(taken) and str(taken) in str(info.value)
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(taken) == []
