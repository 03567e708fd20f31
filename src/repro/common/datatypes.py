"""The four data types exercised by the paper's experiments.

The paper runs every arithmetic/memory experiment with ``int``,
``unsigned long long`` (ull), ``float``, and ``double`` (Section IV).  Each
:class:`DataType` carries the properties the cost models need: size in
bytes, whether arithmetic on it uses the integer or floating-point path, and
the numpy dtype used by the functional interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataType:
    """One of the C data types used throughout the experiments.

    Attributes:
        name: Short name used in figures and CSV output (``int``, ``ull``,
            ``float``, ``double``).
        size_bytes: Width of the type (4 or 8).
        is_integer: True for the integer types; integer atomics are faster
            than floating-point atomics on both CPUs and GPUs in the paper.
        np_dtype: numpy dtype used when the functional interpreters allocate
            real arrays of this type.
    """

    name: str
    size_bytes: int
    is_integer: bool
    np_dtype: np.dtype

    def __post_init__(self) -> None:
        if self.size_bytes not in (4, 8):
            raise ValueError(f"unsupported data type width: {self.size_bytes}")

    @property
    def bits(self) -> int:
        return self.size_bytes * 8

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


INT = DataType("int", 4, True, np.dtype(np.int32))
ULL = DataType("ull", 8, True, np.dtype(np.uint64))
FLOAT = DataType("float", 4, False, np.dtype(np.float32))
DOUBLE = DataType("double", 8, False, np.dtype(np.float64))

#: All four types, in the order the paper's figures list them.
DTYPES: tuple[DataType, ...] = (INT, ULL, FLOAT, DOUBLE)

#: Types natively supported by ``atomicCAS()`` (no floating-point support).
CAS_DTYPES: tuple[DataType, ...] = (INT, ULL)


def dtype_by_name(name: str) -> DataType:
    """Look up a :class:`DataType` by its short name.

    Raises:
        KeyError: if ``name`` is not one of int/ull/float/double.
    """
    for dt in DTYPES:
        if dt.name == name:
            return dt
    raise KeyError(f"unknown data type {name!r}; expected one of "
                   f"{[d.name for d in DTYPES]}")


_BY_NP_DTYPE: dict[np.dtype, DataType] = {dt.np_dtype: dt for dt in DTYPES}


def dtype_of(np_dtype) -> DataType:
    """The paper data type stored as ``np_dtype``; :data:`INT` for any
    other numpy dtype (the cost models' default)."""
    return _BY_NP_DTYPE.get(np.dtype(np_dtype), INT)
