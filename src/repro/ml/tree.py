"""CART decision trees (Gini impurity, axis-aligned splits).

Split search is the cost of a fit, and a restart replays every fit the
journal recorded, so it is done in numpy: per candidate feature, one
sort and one pass over all thresholds (see
:meth:`DecisionTreeClassifier._best_split`).  Which split wins, and
``work_units`` — the deterministic cost the platform charges as
``gpu_time`` — are defined by the scalar threshold-at-a-time search kept
in ``tests/ml/test_tree_split.py``; this module must agree with it
exactly, because both end up in the journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml.base import ClassifierMixin, Estimator, check_X_y, encode_labels
from repro.utils.rng import RandomState, SeedLike


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    prediction: int
    distribution: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray, total) -> np.ndarray:
    """Gini impurity of class counts along the last axis.

    ``counts`` is one count vector or a stack of them (a row per
    candidate split) and ``total`` what each sums to (never zero: a
    split leaves a sample on each side).  Every row is reduced by the
    same operations in the same order, so a row of a stack scores
    exactly what it scores alone.
    """
    p = counts / total
    return 1.0 - (p * p).sum(axis=-1)


class DecisionTreeClassifier(Estimator, ClassifierMixin):
    """Greedy CART classifier.

    Parameters
    ----------
    max_depth:
        Depth cap (``None`` grows until pure / min samples).
    min_samples_split:
        Minimum node size eligible for splitting.
    max_features:
        Features considered per split: ``None`` (all), an int, or the
        string ``"sqrt"`` (random forests pass this).
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        max_features: Optional[object] = None,
        *,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if not (
            max_features is None
            or max_features == "sqrt"
            or (isinstance(max_features, int) and max_features >= 1)
        ):
            raise ValueError(
                "max_features must be None, 'sqrt' or a positive int; "
                f"got {max_features!r}"
            )
        self.max_features = max_features
        self._seed = seed
        self._root: Optional[_Node] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.n_nodes_: int = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _n_split_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return min(int(self.max_features), d)

    def _best_split(
        self,
        X: np.ndarray,
        encoded: np.ndarray,
        n_classes: int,
        features: np.ndarray,
    ):
        """Best (feature, threshold, gain) over candidate features.

        Per feature: a stable argsort, running class counts left of
        each threshold, and left/right Gini for every threshold that
        separates two distinct values, as arrays — with the arithmetic,
        operation for operation, of scoring one threshold at a time.
        """
        n = X.shape[0]
        parent_counts = np.bincount(encoded, minlength=n_classes)
        parent_impurity = _gini(parent_counts, n)
        classes = np.arange(n_classes)
        # Start below zero so a zero-gain split on an impure node is
        # still taken: XOR-style data has no single split that reduces
        # Gini at the root, yet splitting is what lets depth-2 resolve
        # it (this matches standard CART implementations).
        best = (None, 0.0, -1.0)  # feature, threshold, gain
        for feature in features:
            column = X[:, feature]
            order = column.argsort(kind="stable")
            values = column[order]
            # cannot split between equal values
            cut = np.flatnonzero(~(values[1:] <= values[:-1] + 1e-12))
            if cut.size == 0:
                continue
            # Row i: class counts of the i + 1 smallest values.
            left_counts = (encoded[order][:, None] == classes).cumsum(
                axis=0
            )[cut]
            n_left = cut + 1
            n_right = n - n_left
            weighted = (
                n_left * _gini(left_counts, n_left[:, None])
                + n_right
                * _gini(parent_counts - left_counts, n_right[:, None])
            ) / n
            gains = (parent_impurity - weighted).tolist()
            # The first gain wins ties: a later one must be strictly
            # better, in feature order and then in threshold order.
            for i, gain in zip(cut.tolist(), gains):
                if gain > best[2] + 1e-15:
                    threshold = 0.5 * (values[i] + values[i + 1])
                    best = (int(feature), float(threshold), gain)
        return best

    def _build(
        self,
        X: np.ndarray,
        encoded: np.ndarray,
        n_classes: int,
        depth: int,
        rng: np.random.Generator,
    ) -> _Node:
        counts = np.bincount(encoded, minlength=n_classes)
        node = _Node(
            prediction=int(np.argmax(counts)),
            distribution=counts / max(counts.sum(), 1),
        )
        self.n_nodes_ += 1
        if (
            X.shape[0] < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.count_nonzero(counts) <= 1
        ):
            return node
        d = X.shape[1]
        k = self._n_split_features(d)
        features = (
            np.arange(d) if k == d else rng.choice(d, k, replace=False)
        )
        feature, threshold, gain = self._best_split(
            X, encoded, n_classes, features
        )
        self._add_work(float(X.shape[0]) * len(features))
        if feature is None:
            return node
        mask = X[:, feature] <= threshold
        if not mask.any() or mask.all():  # pragma: no cover - guarded above
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(
            X[mask], encoded[mask], n_classes, depth + 1, rng
        )
        node.right = self._build(
            X[~mask], encoded[~mask], n_classes, depth + 1, rng
        )
        return node

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        encoded, self.classes_ = encode_labels(y)
        self.n_features_ = X.shape[1]
        self.n_nodes_ = 0
        rng = RandomState(self._seed)
        self._root = self._build(
            X, encoded, self.classes_.shape[0], 0, rng
        )
        self._mark_fitted()
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _walk(self, x: np.ndarray) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = check_X_y(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, fitted on {self.n_features_}"
            )
        out = np.array([self._walk(x).prediction for x in X])
        self._add_work(float(X.shape[0]) * 16.0)
        return self.classes_[out]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        X = check_X_y(X)
        return np.vstack([self._walk(x).distribution for x in X])
