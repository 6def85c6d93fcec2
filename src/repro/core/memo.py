"""Memoization tables for child-slice results.

The paper's crucial space reduction (Section IV-A): only the *last* tabulated
subproblem of each child slice needs to be retained, and a child slice is
identified by its origin pair ``(i1, i2)``, so a two-dimensional ``n x m``
table ``M`` replaces the four-dimensional table of the original formulation —
Theta(n^2 m^2) space becomes Theta(nm).

Two implementations share one interface:

* :class:`DenseMemoTable` — a NumPy array, what SRNA2/PRNA use (values
  default to 0, which is correct for never-spawned origins because SRNA2's
  stage one guarantees every origin it will read has been tabulated);
* :class:`SparseMemoTable` — a dictionary, retained for the SRNA1 ablation
  that measures lookup overhead and for memory comparisons.

``KEY_NOT_FOUND`` is the sentinel the paper's Algorithm 1 tests for.
"""

from __future__ import annotations

import mmap
from typing import Protocol

import numpy as np

__all__ = ["KEY_NOT_FOUND", "MemoProtocol", "DenseMemoTable", "SparseMemoTable"]


class _KeyNotFound:
    """Singleton sentinel mirroring the paper's ``KEY_NOT_FOUND``."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "KEY_NOT_FOUND"

    def __bool__(self) -> bool:
        return False


KEY_NOT_FOUND = _KeyNotFound()


class MemoProtocol(Protocol):
    """What the slice engines require of a memoization table."""

    @property
    def values(self) -> np.ndarray:  # (n, m) array of slice results
        ...

    def store(self, i1: int, i2: int, value: int) -> None:
        """Memoize the slice result at origin ``(i1, i2)``."""
        ...

    def lookup(self, i1: int, i2: int):
        """Value at origin ``(i1, i2)`` (or ``KEY_NOT_FOUND``)."""
        ...


class DenseMemoTable:
    """Dense ``n x m`` memo table backed by a NumPy array.

    ``track_known=True`` additionally maintains a boolean mask so SRNA1 can
    distinguish "never tabulated" from "tabulated with result 0" — the
    distinction behind the paper's ``KEY_NOT_FOUND`` test.
    """

    __slots__ = ("_values", "_known")

    def __init__(
        self,
        n: int,
        m: int,
        track_known: bool = False,
        dtype: np.dtype | type = np.int64,
    ):
        self._values = np.zeros((max(n, 1), max(m, 1)), dtype=dtype)
        self._known = np.zeros_like(self._values, dtype=bool) if track_known else None

    @classmethod
    def shared(cls, n: int, m: int) -> "DenseMemoTable":
        """Zeroed table in an anonymous shared mapping.

        ``mmap.mmap(-1, nbytes)`` is ``MAP_SHARED | MAP_ANONYMOUS``: a
        process forked after this call writes pages the caller sees, so a
        forked rank can fill the table without sending it back.  The
        mapping has no name to unlink and is freed with the array.
        """
        table = cls.__new__(cls)
        shape = (max(n, 1), max(m, 1))
        buffer = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(np.int64).itemsize)
        table._values = np.frombuffer(buffer, dtype=np.int64).reshape(shape)
        table._known = None
        return table

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def known(self) -> np.ndarray | None:
        return self._known

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape

    def store(self, i1: int, i2: int, value: int) -> None:
        """Memoize the slice result at origin ``(i1, i2)``."""
        self._values[i1, i2] = value
        if self._known is not None:
            self._known[i1, i2] = True

    def lookup(self, i1: int, i2: int):
        """Value at origin ``(i1, i2)``, or ``KEY_NOT_FOUND`` if tracking
        is enabled and the origin has never been stored."""
        if self._known is not None and not self._known[i1, i2]:
            return KEY_NOT_FOUND
        return int(self._values[i1, i2])

    def row(self, i1: int) -> np.ndarray:
        """Writable view of row ``i1`` (what PRNA's Allreduce synchronizes)."""
        return self._values[i1]

    def nbytes(self) -> int:
        """Resident bytes of the table (and mask, if tracking)."""
        total = self._values.nbytes
        if self._known is not None:
            total += self._known.nbytes
        return total


class SparseMemoTable:
    """Dictionary-backed memo table (origin pair -> value).

    Slower per lookup than :class:`DenseMemoTable` but only stores origins
    actually spawned; used by ablations contrasting SRNA1's lookup overhead
    with SRNA2's guaranteed-present dense reads.  The ``values`` array is
    materialized lazily for engines that need vectorized gathers.
    """

    __slots__ = ("_store", "_n", "_m", "_values", "_dirty")

    def __init__(self, n: int, m: int, dtype: np.dtype | type = np.int64):
        self._store: dict[tuple[int, int], int] = {}
        self._n, self._m = max(n, 1), max(m, 1)
        self._values = np.zeros((self._n, self._m), dtype=dtype)
        self._dirty = False

    @property
    def values(self) -> np.ndarray:
        return self._values

    def store(self, i1: int, i2: int, value: int) -> None:
        """Memoize the slice result at origin ``(i1, i2)``."""
        self._store[(i1, i2)] = int(value)
        self._values[i1, i2] = value

    def lookup(self, i1: int, i2: int):
        """Value at origin ``(i1, i2)``, or ``KEY_NOT_FOUND``."""
        return self._store.get((i1, i2), KEY_NOT_FOUND)

    def __len__(self) -> int:
        return len(self._store)

    def nbytes(self) -> int:
        """Approximate resident bytes (dict overhead dominates)."""
        # Rough accounting: dict entry overhead dominates.
        return len(self._store) * 100 + self._values.nbytes
