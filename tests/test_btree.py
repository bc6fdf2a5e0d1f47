"""B+-tree unit and property tests (the disk-Ode index substrate)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.btree import BTree
from repro.storage.mainmem import MainMemoryStorageManager


@pytest.fixture
def store():
    sm = MainMemoryStorageManager(None)
    sm.begin_transaction(1)
    yield sm
    try:
        sm.commit_transaction(1)
    except Exception:
        pass
    sm.close()


@pytest.fixture
def tree(store):
    return BTree.create(store, 1, order=4)  # tiny order: force splits


def k(i: int) -> bytes:
    return f"{i:08d}".encode()


class TestBasics:
    def test_empty_tree(self, store, tree):
        assert tree.get(1, k(5)) == []
        assert list(tree.items(1)) == []
        assert tree.depth(1) == 1

    def test_insert_and_get(self, store, tree):
        tree.insert(1, k(5), 500)
        assert tree.get(1, k(5)) == [500]
        assert tree.contains(1, k(5))
        assert not tree.contains(1, k(6))

    def test_duplicate_values_per_key(self, store, tree):
        tree.insert(1, k(5), 500)
        tree.insert(1, k(5), 501)
        tree.insert(1, k(5), 500)  # idempotent
        assert sorted(tree.get(1, k(5))) == [500, 501]

    def test_many_inserts_force_splits(self, store, tree):
        for i in range(200):
            tree.insert(1, k(i), i)
        assert tree.depth(1) >= 3
        for i in range(200):
            assert tree.get(1, k(i)) == [i]
        assert tree.check_invariants(1) == []

    def test_reverse_and_shuffled_insert_orders(self, store):
        import random

        for seed in (1, 2):
            tree = BTree.create(store, 1, order=4)
            keys = list(range(150))
            random.Random(seed).shuffle(keys)
            for i in keys:
                tree.insert(1, k(i), i)
            assert [key for key, _ in tree.items(1)] == [k(i) for i in range(150)]
            assert tree.check_invariants(1) == []


class TestRange:
    def test_range_inclusive(self, store, tree):
        for i in range(50):
            tree.insert(1, k(i), i)
        values = [v for _, v in tree.range(1, k(10), k(20))]
        assert values == list(range(10, 21))

    def test_open_ended_ranges(self, store, tree):
        for i in range(20):
            tree.insert(1, k(i), i)
        assert [v for _, v in tree.range(1, None, k(4))] == [0, 1, 2, 3, 4]
        assert [v for _, v in tree.range(1, k(16), None)] == [16, 17, 18, 19]

    def test_full_scan_ordered(self, store, tree):
        for i in (5, 1, 9, 3, 7):
            tree.insert(1, k(i), i)
        assert [v for _, v in tree.items(1)] == [1, 3, 5, 7, 9]


class TestDelete:
    def test_delete_key(self, store, tree):
        tree.insert(1, k(1), 10)
        assert tree.delete(1, k(1))
        assert tree.get(1, k(1)) == []
        assert not tree.delete(1, k(1))

    def test_delete_single_value(self, store, tree):
        tree.insert(1, k(1), 10)
        tree.insert(1, k(1), 11)
        assert tree.delete(1, k(1), 10)
        assert tree.get(1, k(1)) == [11]
        assert not tree.delete(1, k(1), 999)

    def test_delete_after_splits(self, store, tree):
        for i in range(100):
            tree.insert(1, k(i), i)
        for i in range(0, 100, 2):
            assert tree.delete(1, k(i))
        assert [v for _, v in tree.items(1)] == list(range(1, 100, 2))
        assert tree.check_invariants(1) == []


class TestTransactional:
    def test_abort_rolls_back_inserts(self):
        sm = MainMemoryStorageManager(None)
        sm.begin_transaction(1)
        tree = BTree.create(sm, 1, order=4)
        header = tree.header_rid
        sm.commit_transaction(1)

        sm.begin_transaction(2)
        tree2 = BTree(sm, header, order=4)
        for i in range(50):
            tree2.insert(2, k(i), i)
        sm.abort_transaction(2)

        sm.begin_transaction(3)
        assert list(BTree(sm, header, order=4).items(3)) == []
        sm.commit_transaction(3)
        sm.close()

    def test_survives_reopen_on_disk(self, tmp_path):
        from repro.storage.disk import DiskStorageManager

        path = str(tmp_path / "bt")
        sm = DiskStorageManager(path)
        sm.begin_transaction(1)
        tree = BTree.create(sm, 1)
        header = tree.header_rid
        for i in range(300):
            tree.insert(1, k(i), i)
        sm.commit_transaction(1)
        sm.close()

        sm2 = DiskStorageManager(path)
        sm2.begin_transaction(1)
        tree2 = BTree(sm2, header)
        assert tree2.count(1) == 300
        assert tree2.get(1, k(123)) == [123]
        assert tree2.check_invariants(1) == []
        sm2.commit_transaction(1)
        sm2.close()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(0, 60),
            st.integers(0, 3),
        ),
        max_size=120,
    )
)
def test_btree_matches_model(ops):
    """Random insert/delete sequences behave like a dict of sets."""
    sm = MainMemoryStorageManager(None)
    sm.begin_transaction(1)
    tree = BTree.create(sm, 1, order=4)
    model: dict[bytes, set[int]] = {}
    try:
        for op, key_i, value in ops:
            key = k(key_i)
            if op == "insert":
                tree.insert(1, key, value)
                model.setdefault(key, set()).add(value)
            else:
                tree.delete(1, key, value)
                if key in model:
                    model[key].discard(value)
                    if not model[key]:
                        del model[key]
        for key, values in model.items():
            assert sorted(tree.get(1, key)) == sorted(values)
        flattened = sorted(
            (key, value) for key, values in model.items() for value in values
        )
        assert sorted(tree.items(1)) == flattened
        assert tree.check_invariants(1) == []
    finally:
        sm.abort_transaction(1)
        sm.close()
