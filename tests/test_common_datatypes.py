"""Unit tests for repro.common.datatypes."""

import numpy as np
import pytest

from repro.common.datatypes import (
    CAS_DTYPES,
    DOUBLE,
    DTYPES,
    FLOAT,
    INT,
    ULL,
    DataType,
    dtype_by_name,
    dtype_of,
)


class TestDataTypeProperties:
    def test_four_paper_types(self):
        assert [dt.name for dt in DTYPES] == ["int", "ull", "float",
                                              "double"]

    def test_int_is_4_byte_integer(self):
        assert INT.size_bytes == 4
        assert INT.is_integer
        assert INT.bits == 32

    def test_ull_is_8_byte_integer(self):
        assert ULL.size_bytes == 8
        assert ULL.is_integer
        assert ULL.bits == 64

    def test_float_is_4_byte_fp(self):
        assert FLOAT.size_bytes == 4
        assert not FLOAT.is_integer

    def test_double_is_8_byte_fp(self):
        assert DOUBLE.size_bytes == 8
        assert not DOUBLE.is_integer

    def test_numpy_dtypes_match_width(self):
        for dt in DTYPES:
            assert dt.np_dtype.itemsize == dt.size_bytes

    def test_numpy_dtypes_match_kind(self):
        for dt in DTYPES:
            if dt.is_integer:
                assert dt.np_dtype.kind in ("i", "u")
            else:
                assert dt.np_dtype.kind == "f"

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            DataType("short", 2, True, np.dtype(np.int16))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            INT.size_bytes = 8  # type: ignore[misc]


class TestCasDtypes:
    def test_cas_supports_only_integers(self):
        # atomicCAS() does not natively support floating-point types.
        assert CAS_DTYPES == (INT, ULL)


class TestDtypeByName:
    @pytest.mark.parametrize("name", ["int", "ull", "float", "double"])
    def test_lookup_roundtrip(self, name):
        assert dtype_by_name(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown data type"):
            dtype_by_name("long double")


class TestDtypeOf:
    @pytest.mark.parametrize("dt", DTYPES, ids=lambda d: d.name)
    def test_paper_types_roundtrip(self, dt):
        assert dtype_of(dt.np_dtype) is dt
        assert dtype_of(dt.np_dtype.type) is dt

    @pytest.mark.parametrize("np_dtype", [np.int64, np.bool_, np.int16,
                                          np.dtype(">i4")])
    def test_other_dtypes_fall_back_to_int(self, np_dtype):
        assert dtype_of(np_dtype) is INT
