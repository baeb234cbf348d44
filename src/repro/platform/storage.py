"""Shared storage: the example store behind ``feed`` and ``refine``.

Every ``feed`` lands the input/output pair in the centralized store
(Figure 1's "Shared Storage"); ``refine`` exposes all pairs a user has
ever fed and lets them be turned on and off — the data-cleaning loop
the paper describes for weak/distant supervision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


@dataclass
class Example:
    """One stored input/output pair."""

    example_id: int
    x: np.ndarray
    y: np.ndarray
    enabled: bool = True


class ExampleStore:
    """Append-only example collection with enable/disable flags."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._examples: List[Example] = []
        #: Maintained by ``add`` / ``set_enabled`` (the only writers
        #: of ``Example.enabled``), so reading it is O(1).
        self.n_enabled = 0

    def add(self, x: np.ndarray, y: np.ndarray) -> int:
        """Store one pair; returns its id."""
        example = Example(
            example_id=len(self._examples),
            x=np.asarray(x, dtype=float),
            y=np.asarray(y, dtype=float),
        )
        self._examples.append(example)
        self.n_enabled += 1
        return example.example_id

    def add_pairs(
        self, pairs: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> List[int]:
        """Store many pairs; returns their ids."""
        return [self.add(x, y) for x, y in pairs]

    def __len__(self) -> int:
        return len(self._examples)

    def __iter__(self):
        return iter(self._examples)

    def get(self, example_id: int) -> Example:
        if not 0 <= example_id < len(self._examples):
            raise IndexError(
                f"example {example_id} out of range [0, {len(self._examples)})"
            )
        return self._examples[example_id]

    def set_enabled(self, example_id: int, enabled: bool) -> None:
        """The ``refine`` toggle."""
        example = self.get(example_id)
        self.n_enabled += bool(enabled) - example.enabled
        example.enabled = bool(enabled)

    def enabled_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked (X, Y) of the enabled examples.

        X rows are flattened inputs; Y rows are flattened outputs.
        """
        enabled = [e for e in self._examples if e.enabled]
        if not enabled:
            raise ValueError(
                f"store {self.name!r} has no enabled examples"
            )
        X = np.stack([e.x.ravel() for e in enabled])
        Y = np.stack([e.y.ravel() for e in enabled])
        return X, Y

    def summary(self) -> Dict[str, int]:
        return {
            "total": len(self._examples),
            "enabled": self.n_enabled,
            "disabled": len(self._examples) - self.n_enabled,
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
