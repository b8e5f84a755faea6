"""Delta/main column store unit tests (System C architecture)."""

from repro.engine.storage.column_store import ColumnStore


def test_append_and_fetch_from_delta():
    store = ColumnStore(3, merge_threshold=100)
    rid = store.append([1, "x", 2.5])
    assert store.fetch(rid) == [1, "x", 2.5]
    assert store.delta_size == 1
    assert store.main_size == 0


def test_merge_moves_delta_to_main():
    store = ColumnStore(2, merge_threshold=100)
    rids = [store.append([i, str(i)]) for i in range(5)]
    store.merge()
    assert store.delta_size == 0
    assert store.main_size == 5
    for rid in rids:
        assert store.fetch(rid) == [rid, str(rid)]
    assert store.merge_count == 1


def test_automatic_merge_at_threshold():
    store = ColumnStore(1, merge_threshold=4)
    for i in range(4):
        store.append([i])
    assert store.main_size == 4
    assert store.delta_size == 0


def test_rids_stable_across_merge():
    store = ColumnStore(1, merge_threshold=3)
    rids = [store.append([i]) for i in range(7)]
    assert rids == list(range(7))
    for rid in rids:
        assert store.fetch(rid) == [rid]


def test_delete_in_delta_and_main():
    store = ColumnStore(1, merge_threshold=100)
    a = store.append([1])
    store.append([2])
    store.merge()
    c = store.append([3])
    assert store.delete(a)
    assert store.delete(c)
    assert not store.delete(a)
    assert store.fetch(a) is None
    assert store.fetch(c) is None
    assert [row[0] for _rid, row in store.scan()] == [2]
    assert len(store) == 1


def test_deleted_delta_slot_survives_merge():
    store = ColumnStore(1, merge_threshold=100)
    a = store.append([1])
    b = store.append([2])
    store.delete(a)
    store.merge()
    assert store.fetch(a) is None
    assert store.fetch(b) == [2]


def test_update_in_place_both_sides():
    store = ColumnStore(2, merge_threshold=100)
    a = store.append([1, "a"])
    store.merge()
    b = store.append([2, "b"])
    store.update_in_place(a, [10, "aa"])
    store.update_in_place(b, [20, "bb"])
    assert store.fetch(a) == [10, "aa"]
    assert store.fetch(b) == [20, "bb"]


def test_scan_column():
    store = ColumnStore(2, merge_threshold=3)
    for i in range(6):
        store.append([i, i * 10])
    # one column across main and delta, through the projected batch scan
    values = [v for batch in store.scan_batches(4, columns=[1]) for (v,) in batch.to_rows()]
    assert values == [0, 10, 20, 30, 40, 50]


def test_dictionary_encoding_reuses_codes():
    store = ColumnStore(1, merge_threshold=2)
    for _ in range(6):
        store.append(["same"])
    # all six rows decode to the same value
    assert [row[0] for _rid, row in store.scan()] == ["same"] * 6
