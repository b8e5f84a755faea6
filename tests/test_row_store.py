"""Row store / append log unit tests."""

from repro.engine.storage.row_store import AppendLog, RowStore


def test_append_fetch():
    store = RowStore(page_size=4)
    rids = [store.append([i, f"row{i}"]) for i in range(10)]
    assert rids == list(range(10))
    assert store.fetch(3) == (3, "row3")
    assert store.fetch(99) is None


def test_paging():
    store = RowStore(page_size=4)
    for i in range(10):
        store.append([i])
    assert store.page_count == 3


def test_delete_tombstones():
    store = RowStore(page_size=4)
    for i in range(6):
        store.append([i])
    assert store.delete(2)
    assert not store.delete(2)
    assert store.fetch(2) is None
    assert len(store) == 5
    assert [row[0] for _rid, row in store.scan()] == [0, 1, 3, 4, 5]


def test_update_in_place():
    store = RowStore()
    rid = store.append([1, "a"])
    store.update_in_place(rid, [1, "b"])
    assert store.fetch(rid) == (1, "b")


def test_scan_yields_rids_in_order():
    store = RowStore(page_size=3)
    for i in range(7):
        store.append([i])
    rids = [rid for rid, _row in store.scan()]
    assert rids == list(range(7))


def test_clear():
    store = RowStore()
    store.append([1])
    store.clear()
    assert len(store) == 0
    assert list(store.scan()) == []


def test_append_log_drain():
    log = AppendLog()
    log.append("a")
    log.append("b")
    assert len(log) == 2
    assert log.peek() == ["a", "b"]
    assert log.drain() == ["a", "b"]
    assert len(log) == 0
    assert log.drain() == []
