"""The one-pass CART split search against the scalar loop it replaced.

``DecisionTreeClassifier._best_split`` scores every threshold of a
feature in one array pass.  The loop below is the body it had before —
a scalar ``_gini`` pair per threshold — kept here as the oracle: trees,
``n_nodes_`` and ``work_units`` (the simulated ``gpu_time``, hence
journal bytes) must be the loop's, bit for bit.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.zoo import default_zoo
from repro.persist import open_gateway, state_digest
from repro.service.api import (
    FeedRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def reference_best_split(self, X, encoded, n_classes, features):
    """Best (feature, threshold, gain): one Python step per threshold."""
    n = X.shape[0]
    parent_counts = np.bincount(encoded, minlength=n_classes)
    parent_impurity = _gini(parent_counts)
    best = (None, 0.0, -1.0)  # feature, threshold, gain
    for feature in features:
        order = np.argsort(X[:, feature], kind="stable")
        values = X[order, feature]
        labels = encoded[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.astype(float).copy()
        for i in range(n - 1):
            k = labels[i]
            left_counts[k] += 1
            right_counts[k] -= 1
            if values[i + 1] <= values[i] + 1e-12:
                continue  # cannot split between equal values
            n_left = i + 1
            n_right = n - n_left
            weighted = (
                n_left * _gini(left_counts)
                + n_right * _gini(right_counts)
            ) / n
            gain = parent_impurity - weighted
            if gain > best[2] + 1e-15:
                threshold = 0.5 * (values[i] + values[i + 1])
                best = (int(feature), float(threshold), float(gain))
    return best


class ReferenceTree(DecisionTreeClassifier):
    _best_split = reference_best_split


class Recording(DecisionTreeClassifier):
    """Answers with the one-pass search, checks the loop agrees."""

    def _best_split(self, X, encoded, n_classes, features):
        features = np.array(features)  # both searches see the same draw
        fast = super()._best_split(X, encoded, n_classes, features)
        assert fast == reference_best_split(
            self, X, encoded, n_classes, features
        )
        return fast


def same_tree(a, b):
    if a is None or b is None:
        return a is b
    return (
        a.prediction == b.prediction
        and np.array_equal(a.distribution, b.distribution)
        and a.feature == b.feature
        and a.threshold == b.threshold
        and same_tree(a.left, b.left)
        and same_tree(a.right, b.right)
    )


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d))
    if draw(st.integers(0, 2)) == 0:
        # Ties within a column, and whole duplicate columns.
        X = np.round(X, 1)
        if d > 1:
            X[:, -1] = X[:, 0]
    y = rng.integers(0, n_classes, n)
    return X, y


TREE_SHAPES = {
    "max_depth": st.sampled_from([None, 2, 4]),
    "max_features": st.sampled_from([None, "sqrt", 1]),
    "seed": st.integers(0, 1000),
}


@settings(deadline=None, max_examples=60)
@given(data=datasets(), **TREE_SHAPES)
def test_one_pass_split_is_the_loop(data, max_depth, max_features, seed):
    X, y = data
    shape = dict(max_depth=max_depth, max_features=max_features, seed=seed)
    fast = Recording(**shape).fit(X, y)  # every node's triple
    slow = ReferenceTree(**shape).fit(X, y)
    assert same_tree(fast._root, slow._root)
    assert fast.n_nodes_ == slow.n_nodes_
    assert fast.work_units == slow.work_units


def test_twelve_classes_reduce_in_the_loops_order():
    # From eight addends on numpy sums pairwise, in blocks: a stack of
    # count rows must still reduce each row as the loop reduced it alone.
    rng = np.random.default_rng(12)
    X = np.round(rng.standard_normal((200, 3)), 1)
    y = rng.integers(0, 12, 200)
    fast = Recording(seed=3).fit(X, y)
    slow = ReferenceTree(seed=3).fit(X, y)
    assert same_tree(fast._root, slow._root)
    assert fast.work_units == slow.work_units


@settings(deadline=None, max_examples=15)
@given(data=datasets(), seed=st.integers(0, 1000))
def test_forest_votes_are_the_loops(data, seed):
    X, y = data
    fast = RandomForestClassifier(6, max_depth=6, seed=seed).fit(X, y)
    with patch.object(
        DecisionTreeClassifier, "_best_split", reference_best_split
    ):
        slow = RandomForestClassifier(6, max_depth=6, seed=seed).fit(X, y)
    assert fast.work_units == slow.work_units
    for a, b in zip(fast.trees_, slow.trees_):
        assert same_tree(a._root, b._root)
    assert np.array_equal(fast.predict(X), slow.predict(X))


#: ``state_digest`` after GOLDEN_CYCLES cycles, recorded on the commit
#: before the one-pass split search landed.  Accuracies and
#: ``gpu_time`` (= ``work_units``) of every fit are in it, so a tree
#: that differs anywhere differs here.
GOLDEN_CYCLES = 40
GOLDEN_DIGEST = (
    "70bff6747da47685a5544e8031781f542b80821802774140157f26cdfd54bdb0"
)


def test_forty_cycles_end_in_the_recorded_digest(tmp_path):
    from repro.ml.data import TaskSpec, make_task

    gateway, _ = open_gateway(
        tmp_path / "state", sync="buffered", seed=7, zoo=default_zoo(),
        placement="partition", n_gpus=4,
    )
    try:
        token = gateway.create_tenant("golden", token="tok-golden")
        X, y = make_task(TaskSpec("moons", 60 + 5 * GOLDEN_CYCLES, 0.3, seed=7))
        rows = [tuple(float(v) for v in row) for row in X]
        labels = [int(v) for v in y]
        program = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
        gateway.handle(
            RegisterAppRequest(auth_token=token, app="moons", program=program)
        )

        def feed(lo, hi):
            return gateway.handle(
                FeedRequest(
                    auth_token=token, app="moons",
                    inputs=tuple(rows[lo:hi]), outputs=tuple(labels[lo:hi]),
                )
            )

        feed(0, 60)
        picked = set()
        for k in range(GOLDEN_CYCLES):
            fed = feed(60 + 5 * k, 65 + 5 * k)
            gateway.handle(
                SetExampleEnabledRequest(
                    auth_token=token, app="moons",
                    example_id=fed.example_ids[0], enabled=False,
                )
            )
            (handle,) = gateway.handle(
                SubmitTrainingRequest(auth_token=token, app="moons", steps=1)
            ).handles
            status = gateway.handle(
                JobStatusRequest(
                    auth_token=token, job_id=handle.job_id, wait=30.0
                )
            )
            assert status.state == "finished"
            picked.add(status.candidate)
        # The golden is only worth its name if trees were in it.
        assert picked & {"tree-d4", "tree-deep"}
        assert picked & {"forest-10", "forest-40"}
        assert state_digest(gateway) == GOLDEN_DIGEST
    finally:
        gateway.store.close()
