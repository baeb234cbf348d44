"""Shared storage: the example store behind ``feed`` and ``refine``.

Every ``feed`` lands the input/output pair in the centralized store
(Figure 1's "Shared Storage"); ``refine`` exposes all pairs a user has
ever fed and lets them be turned on and off — the data-cleaning loop
the paper describes for weak/distant supervision.

The store is columnar: one ``(n, d)`` float64 input block, one
``(n, c)`` output block and a bool ``enabled`` mask, grown by capacity
doubling.  A fed row costs its ``8 (d + c)`` bytes and one mask byte;
no Python object is kept per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

#: Rows allocated for a store's first block (then doubled as needed).
_MIN_CAPACITY = 16


@dataclass(frozen=True)
class Example:
    """One stored input/output pair, read out of the store's columns.

    Built on demand by :meth:`ExampleStore.get`; ``x`` and ``y`` are
    flat copies of the stored rows.
    """

    example_id: int
    x: np.ndarray
    y: np.ndarray
    enabled: bool = True


class ExampleStore:
    """Append-only example collection with enable/disable flags.

    Rows are published by bumping the row count after they are written,
    so a lock-free reader that reads ``len(store)`` first only ever sees
    whole rows.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 0
        self._X = np.zeros((0, 0))
        self._Y = np.zeros((0, 0))
        self._enabled = np.zeros(0, dtype=bool)
        #: Maintained by ``add_block`` / ``set_enabled`` (the only
        #: writers of the mask), so reading it is O(1).
        self.n_enabled = 0

    def add_block(self, X: np.ndarray, Y: np.ndarray) -> range:
        """Store ``len(X)`` pairs at once; returns their ids.

        Each row of ``X`` / ``Y`` is flattened; every row of a store
        has the width of the first one it was fed.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        k = len(X)
        if len(Y) != k:
            raise ValueError(f"got {k} inputs but {len(Y)} outputs")
        n = self._n
        if k == 0:
            return range(n, n)
        X = X.reshape(k, -1)
        Y = Y.reshape(k, -1)
        if len(self._X) == 0:  # the first block sets the row widths
            self._X = np.empty((0, X.shape[1]))
            self._Y = np.empty((0, Y.shape[1]))
        elif (X.shape[1], Y.shape[1]) != (self._X.shape[1], self._Y.shape[1]):
            raise ValueError(
                f"rows of {X.shape[1]} input and {Y.shape[1]} output "
                f"scalars do not fit store {self.name!r}, which holds "
                f"{self._X.shape[1]} and {self._Y.shape[1]}"
            )
        if n + k > len(self._X):
            self._grow(max(2 * len(self._X), n + k, _MIN_CAPACITY))
        self._X[n:n + k] = X
        self._Y[n:n + k] = Y
        self._enabled[n:n + k] = True
        self.n_enabled += k
        self._n = n + k
        return range(n, n + k)

    def _grow(self, capacity: int) -> None:
        # New arrays are filled before they are swapped in, so a reader
        # holding the old ones still sees every published row.
        n = self._n
        X, Y, enabled = self._X, self._Y, self._enabled
        new_X = np.empty((capacity, X.shape[1]))
        new_Y = np.empty((capacity, Y.shape[1]))
        new_enabled = np.zeros(capacity, dtype=bool)
        new_X[:n] = X[:n]
        new_Y[:n] = Y[:n]
        new_enabled[:n] = enabled[:n]
        self._X, self._Y, self._enabled = new_X, new_Y, new_enabled

    def add(self, x: np.ndarray, y: np.ndarray) -> int:
        """Store one pair; returns its id."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        y = np.asarray(y, dtype=float).reshape(1, -1)
        return self.add_block(x, y)[0]

    def add_pairs(
        self, pairs: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> List[int]:
        """Store many pairs; returns their ids."""
        return [self.add(x, y) for x, y in pairs]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Example]:
        return (self.get(i) for i in range(self._n))

    @property
    def nbytes(self) -> int:
        """Bytes of the stored input and output rows."""
        return self._n * (self._X.shape[1] + self._Y.shape[1]) * 8

    def get(self, example_id: int) -> Example:
        if not 0 <= example_id < self._n:
            raise IndexError(
                f"example {example_id} out of range [0, {self._n})"
            )
        return Example(
            example_id=example_id,
            x=self._X[example_id].copy(),
            y=self._Y[example_id].copy(),
            enabled=bool(self._enabled[example_id]),
        )

    def set_enabled(self, example_id: int, enabled: bool) -> None:
        """The ``refine`` toggle."""
        if not 0 <= example_id < self._n:
            raise IndexError(
                f"example {example_id} out of range [0, {self._n})"
            )
        enabled = bool(enabled)
        self.n_enabled += enabled - bool(self._enabled[example_id])
        self._enabled[example_id] = enabled

    def flags(self) -> List[Tuple[int, bool]]:
        """``(example id, enabled)`` for every stored pair, in id order."""
        n = self._n
        return list(enumerate(self._enabled[:n].tolist()))

    def enabled_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked (X, Y) of the enabled examples.

        X rows are flattened inputs; Y rows are flattened outputs.  Both
        are fresh C-ordered float64 copies.
        """
        if self.n_enabled == 0:
            raise ValueError(
                f"store {self.name!r} has no enabled examples"
            )
        n = self._n
        mask = self._enabled[:n]
        return self._X[:n][mask], self._Y[:n][mask]

    def summary(self) -> Dict[str, int]:
        return {
            "total": self._n,
            "enabled": self.n_enabled,
            "disabled": self._n - self.n_enabled,
        }


class SharedStorage:
    """The server-side registry of per-app example stores."""

    def __init__(self) -> None:
        self._stores: Dict[str, ExampleStore] = {}

    def create(self, app_name: str) -> ExampleStore:
        if app_name in self._stores:
            raise ValueError(f"store {app_name!r} already exists")
        store = ExampleStore(app_name)
        self._stores[app_name] = store
        return store

    def get(self, app_name: str) -> ExampleStore:
        if app_name not in self._stores:
            raise KeyError(f"no store named {app_name!r}")
        return self._stores[app_name]

    def __contains__(self, app_name: str) -> bool:
        return app_name in self._stores

    def names(self) -> List[str]:
        return sorted(self._stores)

    def total_examples(self) -> int:
        return sum(len(s) for s in self._stores.values())
