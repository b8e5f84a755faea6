"""Catalog unit tests: schemas, periods, indexes."""

import pytest

from repro.engine.catalog import Catalog, Column, IndexDef, PeriodDef, TableSchema
from repro.engine.errors import CatalogError
from repro.engine.types import SqlType


def _schema():
    return TableSchema(
        "t",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("v", SqlType.VARCHAR),
            Column("ab", SqlType.DATE),
            Column("ae", SqlType.DATE),
            Column("sb", SqlType.TIMESTAMP),
            Column("se", SqlType.TIMESTAMP),
        ],
        primary_key=("id",),
        periods=[
            PeriodDef("app", "ab", "ae"),
            PeriodDef("system_time", "sb", "se", is_system=True),
        ],
    )


class TestTableSchema:
    def test_positions(self):
        schema = _schema()
        assert schema.position("id") == 0
        assert schema.position("se") == 5
        with pytest.raises(CatalogError):
            schema.position("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", SqlType.INTEGER), Column("a", SqlType.INTEGER)])

    def test_pk_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", SqlType.INTEGER)], primary_key=("b",))

    def test_period_columns_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [Column("a", SqlType.INTEGER)],
                periods=[PeriodDef("p", "a", "zz")],
            )

    @pytest.mark.parametrize("kind", [SqlType.DECIMAL, SqlType.VARCHAR, SqlType.BOOLEAN])
    def test_period_columns_hold_integers(self, kind):
        # scans read AS OF t as the window [t, t + 1): exact on integers only
        for columns in ([Column("a", kind), Column("b", SqlType.DATE)],
                        [Column("a", SqlType.TIMESTAMP), Column("b", kind)]):
            with pytest.raises(CatalogError, match="must be date, timestamp or integer"):
                TableSchema("t", columns, periods=[PeriodDef("p", "a", "b")])

    def test_system_and_application_periods(self):
        schema = _schema()
        assert schema.system_period.name == "system_time"
        assert [p.name for p in schema.application_periods] == ["app"]
        assert schema.resolve_period("APP").begin_column == "ab"
        assert schema.resolve_period("business_time").name == "app"
        assert schema.resolve_period("system_time") is schema.system_period
        with pytest.raises(CatalogError, match="no period 'nope' on table t"):
            schema.resolve_period("nope")

    def test_key_of(self):
        schema = _schema()
        assert schema.key_of([7, "x", 0, 1, 0, 1]) == (7,)

    def test_without_periods_strips_columns(self):
        plain = _schema().without_periods()
        assert plain.column_names() == ["id", "v"]
        assert not plain.is_temporal
        assert plain.primary_key == ("id",)

    def test_names_lowercased(self):
        schema = TableSchema("MiXeD", [Column("a", SqlType.INTEGER)])
        assert schema.name == "mixed"


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_table(_schema())
        assert catalog.has_table("T")
        assert catalog.table("t").name == "t"
        with pytest.raises(CatalogError):
            catalog.add_table(_schema())

    def test_drop_table_removes_indexes(self):
        catalog = Catalog()
        catalog.add_table(_schema())
        catalog.add_index(IndexDef("i1", "t", ("v",)))
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        assert catalog.indexes() == []

    def test_index_validation(self):
        catalog = Catalog()
        catalog.add_table(_schema())
        with pytest.raises(CatalogError):
            catalog.add_index(IndexDef("bad", "t", ("nope",)))
        with pytest.raises(CatalogError):
            IndexDef("bad2", "t", ("v",), kind="zigzag")
        with pytest.raises(CatalogError):
            IndexDef("bad3", "t", ("v",), kind="rtree")  # needs 2 columns

    def test_indexes_on(self):
        catalog = Catalog()
        catalog.add_table(_schema())
        catalog.add_index(IndexDef("i1", "t", ("v",)))
        catalog.add_index(IndexDef("i2", "t", ("ab",), partition="history"))
        assert {d.name for d in catalog.indexes_on("t")} == {"i1", "i2"}
        catalog.drop_index("i1")
        assert {d.name for d in catalog.indexes_on("t")} == {"i2"}
        with pytest.raises(CatalogError):
            catalog.drop_index("i1")
