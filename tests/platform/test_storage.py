"""Tests for the shared example store (feed/refine backing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.storage import ExampleStore, SharedStorage


class TestExampleStore:
    def test_add_and_len(self):
        store = ExampleStore("app")
        eid = store.add(np.ones(4), np.array([1.0, 0.0]))
        assert len(store) == 1
        assert eid == 0

    def test_add_pairs(self):
        store = ExampleStore()
        ids = store.add_pairs([(np.ones(2), np.zeros(2))] * 3)
        assert ids == [0, 1, 2]

    def test_enable_disable(self):
        store = ExampleStore()
        store.add(np.ones(2), np.zeros(1))
        store.add(np.ones(2), np.zeros(1))
        store.set_enabled(0, False)
        assert store.n_enabled == 1
        assert not store.get(0).enabled
        store.set_enabled(0, True)
        assert store.n_enabled == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),  # add a row
                st.tuples(st.integers(0, 30), st.booleans()),  # toggle
            ),
            max_size=60,
        )
    )
    def test_n_enabled_counter_equals_the_scan(self, ops):
        """``n_enabled`` is a maintained counter, not a scan: it must
        agree with one after any add/toggle sequence — including
        re-enabling an enabled row and disabling a disabled one."""
        store = ExampleStore()
        for op in ops:
            if op is None:
                store.add(np.ones(1), np.zeros(1))
            elif len(store):
                store.set_enabled(op[0] % len(store), op[1])
            assert store.n_enabled == sum(1 for e in store if e.enabled)
            assert store.summary()["disabled"] == (
                len(store) - store.n_enabled
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 3),
        st.lists(
            st.one_of(
                st.integers(1, 7),  # feed a block of this many rows
                st.tuples(st.integers(0, 60), st.booleans()),  # toggle
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_enabled_arrays_match_stacking_the_rows(self, d, c, ops):
        """Block feeds and a masked copy give the bytes, dtype, shape
        and C order of stacking the enabled rows one by one."""
        rng = np.random.default_rng(d * 10 + c)
        store, rows, flags = ExampleStore(), [], []
        for op in ops:
            if isinstance(op, int):
                X, Y = rng.standard_normal((op, d)), rng.standard_normal((op, c))
                assert list(store.add_block(X, Y)) == list(
                    range(len(rows), len(rows) + op)
                )
                rows += list(zip(X, Y))
                flags += [True] * op
            elif rows:
                i = op[0] % len(rows)
                store.set_enabled(i, op[1])
                flags[i] = op[1]
        assert store.flags() == list(enumerate(flags))
        kept = [row for row, on in zip(rows, flags) if on]
        if not kept:
            return
        X, Y = store.enabled_arrays()
        for got, want in (
            (X, np.stack([x for x, _ in kept])),
            (Y, np.stack([y for _, y in kept])),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_enabled_arrays_filters(self):
        store = ExampleStore()
        store.add(np.array([1.0, 2.0]), np.array([1.0]))
        store.add(np.array([3.0, 4.0]), np.array([0.0]))
        store.set_enabled(0, False)
        X, Y = store.enabled_arrays()
        assert X.shape == (1, 2)
        assert np.allclose(X[0], [3.0, 4.0])

    def test_enabled_arrays_flattens(self):
        store = ExampleStore()
        store.add(np.ones((2, 2)), np.ones((1, 3)))
        X, Y = store.enabled_arrays()
        assert X.shape == (1, 4)
        assert Y.shape == (1, 3)

    def test_empty_enabled_rejected(self):
        store = ExampleStore("empty")
        with pytest.raises(ValueError, match="enabled"):
            store.enabled_arrays()

    def test_bad_id_rejected(self):
        store = ExampleStore()
        with pytest.raises(IndexError):
            store.get(0)

    def test_summary(self):
        store = ExampleStore()
        store.add(np.ones(1), np.ones(1))
        store.add(np.ones(1), np.ones(1))
        store.set_enabled(1, False)
        assert store.summary() == {
            "total": 2, "enabled": 1, "disabled": 1
        }


class TestSharedStorage:
    def test_create_and_get(self):
        shared = SharedStorage()
        store = shared.create("app1")
        assert shared.get("app1") is store
        assert "app1" in shared

    def test_duplicate_rejected(self):
        shared = SharedStorage()
        shared.create("app1")
        with pytest.raises(ValueError, match="already"):
            shared.create("app1")

    def test_missing_rejected(self):
        with pytest.raises(KeyError):
            SharedStorage().get("ghost")

    def test_totals(self):
        shared = SharedStorage()
        a = shared.create("a")
        b = shared.create("b")
        a.add(np.ones(1), np.ones(1))
        b.add_pairs([(np.ones(1), np.ones(1))] * 2)
        assert shared.total_examples() == 3
        assert shared.names() == ["a", "b"]
