"""The paper's §5.1 tuning surface: index settings A/B/C.

Three settings are defined verbatim from the paper:

* **Time Index** — *"indexes on all time dimensions for RDBMSs, i.e., app
  time index on current table, app+system time indexes for history
  tables"*;
* **Key+Time Index** — *"efficient (primary) key-based access on the
  history tables"* on top of the time indexes;
* **Value Index** — *"for a specific query we added a value index"*.

Indexes can be realised as B-Trees or (on System D) GiST/R-Trees.  All
tuning indexes are named ``tune_*`` so they can be dropped between
experiment cells.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from ..engine.catalog import IndexDef
from ..engine.errors import CatalogError


class IndexSetting(Enum):
    NONE = "none"
    TIME = "time"
    KEY_TIME = "key+time"
    VALUE = "value"


def _index_name(table, columns, partition, kind):
    return "tune_{}_{}_{}_{}".format(table, "_".join(columns), partition, kind)


def _create(db, table_name, columns, partition, kind):
    name = _index_name(table_name, columns, partition, kind)
    index = IndexDef(
        name=name,
        table=table_name,
        columns=tuple(columns),
        kind=kind,
        partition=partition,
    )
    try:
        db.create_index(index)
    except CatalogError:
        pass  # idempotent: already present from a previous cell
    return name


def time_indexes(system, table_names: Optional[List[str]] = None, kind="btree") -> List[str]:
    """Setting A — indexes on all time dimensions."""
    db = system.db
    created = []
    for schema in db.catalog.tables():
        if table_names is not None and schema.name not in table_names:
            continue
        table = db.table(schema.name)
        sys_period = schema.system_period
        for app in schema.application_periods:
            cols = (
                [app.begin_column, app.end_column]
                if kind == "rtree"
                else [app.begin_column]
            )
            created.append(_create(db, schema.name, cols, "current", kind))
            if table.has_split:
                created.append(_create(db, schema.name, cols, "history", kind))
        if sys_period is not None:
            cols = (
                [sys_period.begin_column, sys_period.end_column]
                if kind == "rtree"
                else [sys_period.begin_column]
            )
            if table.has_split:
                created.append(_create(db, schema.name, cols, "history", kind))
            else:
                # System D: system time is an ordinary column on the one table
                created.append(_create(db, schema.name, cols, "current", kind))
    return created


def key_time_indexes(system, table_names: Optional[List[str]] = None, kind="btree") -> List[str]:
    """Setting B — Time indexes plus key access on the history tables."""
    created = time_indexes(system, table_names, kind=kind)
    db = system.db
    for schema in db.catalog.tables():
        if table_names is not None and schema.name not in table_names:
            continue
        if not schema.primary_key:
            continue
        table = db.table(schema.name)
        if kind == "rtree":
            continue  # an R-Tree cannot index scalar keys
        partition = "history" if table.has_split else "current"
        created.append(
            _create(db, schema.name, list(schema.primary_key), partition, "btree")
        )
    return created


def value_index(system, table_name: str, column: str, kind="btree", on_history=True) -> List[str]:
    """Setting C — a value index for one specific query."""
    db = system.db
    table = db.table(table_name)
    created = [_create(db, table_name, [column], "current", kind)]
    if on_history and table.has_split:
        created.append(_create(db, table_name, [column], "history", kind))
    return created


def apply_index_setting(
    system,
    setting: IndexSetting,
    table_names: Optional[List[str]] = None,
    kind="btree",
    value_column=None,
    value_table=None,
) -> List[str]:
    """Apply one of the paper's index settings to *system*."""
    if setting is IndexSetting.NONE:
        return []
    if setting is IndexSetting.TIME:
        return time_indexes(system, table_names, kind=kind)
    if setting is IndexSetting.KEY_TIME:
        return key_time_indexes(system, table_names, kind=kind)
    if setting is IndexSetting.VALUE:
        if not (value_table and value_column):
            raise ValueError("VALUE setting needs value_table and value_column")
        return value_index(system, value_table, value_column, kind=kind)
    raise ValueError(f"unknown setting {setting}")


def drop_tuning_indexes(system) -> int:
    """Remove every ``tune_*`` index (reset between experiment cells)."""
    db = system.db
    dropped = 0
    for index in list(db.catalog.indexes()):
        if index.name.startswith("tune_"):
            db.drop_index(index.name)
            dropped += 1
    return dropped
