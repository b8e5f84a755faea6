"""Generator-side versioned store: the linked-list structure of §4.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import GeneratorStore, VersionChain, VersionNode
from repro.engine.catalog import Column, PeriodDef, TableSchema
from repro.engine.storage.versioned import CURRENT, StorageOptions, VersionedTable
from repro.engine.types import Period, SqlType
from tests.test_temporal_semantics import _insert, sequenced_update

SPEC = [("t", ("id",), {"app": ("ab", "ae")})]


def _store():
    return GeneratorStore(SPEC)


def _values(key, value, ab=0, ae=100):
    return {"id": key, "v": value, "ab": ab, "ae": ae}


class TestVersionChain:
    def test_insert_keeps_app_order(self):
        chain = VersionChain("ab")
        for begin in (50, 10, 90, 30):
            chain.insert(VersionNode({"ab": begin}, 1))
        assert [n.values["ab"] for n in chain] == [10, 30, 50, 90]

    def test_remove_relinks(self):
        chain = VersionChain("ab")
        nodes = [VersionNode({"ab": i}, 1) for i in (1, 2, 3)]
        for node in nodes:
            chain.insert(node)
        chain.remove(nodes[1])
        assert [n.values["ab"] for n in chain] == [1, 3]
        chain.remove(nodes[0])
        chain.remove(nodes[2])
        assert len(chain) == 0
        assert chain.head is None and chain.tail is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1000), max_size=80))
    def test_property_always_sorted(self, begins):
        chain = VersionChain("ab")
        for begin in begins:
            chain.insert(VersionNode({"ab": begin}, 1))
        ordered = [n.values["ab"] for n in chain]
        assert ordered == sorted(begins)
        assert len(chain) == len(begins)


class TestGeneratorTable:
    def test_insert_and_nontemporal_update_spills(self):
        store = _store()
        table = store.table("t")
        table.insert(_values(1, "a"), tick=1)
        table.nontemporal_update((1,), {"v": "b"}, tick=2)
        assert store.closed["t"][0][1:] == (1, 2)  # sys_begin, sys_end
        assert [v["v"] for v, _ in table.current_versions()] == ["b"]

    def test_sequenced_update_splits(self):
        store = _store()
        table = store.table("t")
        table.insert(_values(1, "a", 0, 100), tick=1)
        affected = table.sequenced_update(
            (1,), {"v": "x"}, Period(20, 50), tick=2, period_name="app"
        )
        assert affected == 1
        spans = sorted(
            (v["ab"], v["ae"], v["v"]) for v, _ in table.current_versions()
        )
        assert spans == [(0, 20, "a"), (20, 50, "x"), (50, 100, "a")]

    def test_sequenced_delete_counts_as_overwrite(self):
        store = _store()
        table = store.table("t")
        table.insert(_values(1, "a", 0, 100), tick=1)
        table.sequenced_delete((1,), Period(0, 100), tick=2, period_name="app")
        assert table.stats.app_time_overwrites == 1
        assert table.chain((1,)) is None

    def test_delete_spills_everything(self):
        store = _store()
        table = store.table("t")
        table.insert(_values(1, "a", 0, 50), tick=1)
        table.insert(_values(1, "b", 50, 100), tick=1)
        assert table.delete((1,), tick=3) == 2
        assert len(store.closed["t"]) == 2
        assert store.closed_count() == 2

    def test_unknown_period_rejected(self):
        table = _store().table("t")
        table.insert(_values(1, "a"), tick=1)
        with pytest.raises(ValueError):
            table.sequenced_update((1,), {}, Period(0, 1), 2, period_name="zz")

    def test_stats_accumulate(self):
        store = _store()
        table = store.table("t")
        table.insert(_values(1, "a"), tick=1)
        table.insert(_values(2, "b"), tick=1)
        table.nontemporal_update((1,), {"v": "c"}, tick=2)
        table.sequenced_update((2,), {"v": "d"}, Period(0, 10), 3, period_name="app")
        table.delete((1,), tick=4)
        stats = table.stats.as_dict()
        assert stats["app_time_insert"] == 2
        assert stats["nontemporal_update"] == 1
        assert stats["app_time_update"] == 1
        assert stats["delete"] == 1


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 90), st.integers(1, 20), st.integers(0, 99)),
        max_size=20,
    )
)
def test_property_generator_matches_engine_semantics(ops):
    """The generator-side sequenced update must produce exactly the same
    visible state as the engine's temporal module — otherwise replayed
    systems would diverge from the generator's bookkeeping."""
    schema = TableSchema(
        "t",
        [
            Column("id", SqlType.INTEGER), Column("v", SqlType.INTEGER),
            Column("ab", SqlType.DATE), Column("ae", SqlType.DATE),
            Column("sb", SqlType.TIMESTAMP), Column("se", SqlType.TIMESTAMP),
        ],
        primary_key=("id",),
        periods=[
            PeriodDef("app", "ab", "ae"),
            PeriodDef("system_time", "sb", "se", is_system=True),
        ],
    )
    engine_table = VersionedTable(schema, StorageOptions())
    _insert(engine_table, 1, 0, 0, 120, 1)
    store = GeneratorStore(SPEC)
    gen_table = store.table("t")
    gen_table.insert({"id": 1, "v": 0, "ab": 0, "ae": 120}, tick=1)

    tick = 2
    for begin, width, value in ops:
        portion = Period(begin, begin + width)
        sequenced_update(engine_table, (1,), {"v": value}, "app", portion, tick)
        gen_table.sequenced_update((1,), {"v": value}, portion, tick, period_name="app")
        tick += 1

    engine_state = sorted(
        (row[2], row[3], row[1]) for _rid, row in engine_table.walk(CURRENT)
    )
    generator_state = sorted(
        (v["ab"], v["ae"], v["v"]) for v, _ in gen_table.current_versions()
    )
    assert engine_state == generator_state
