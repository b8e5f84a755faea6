"""System archetypes: the §5.2 architecture analysis as assertions."""

import pytest

from repro.systems import all_system_names, make_system
from repro.systems.system_a import SystemA


def test_registry():
    assert all_system_names() == ["A", "B", "C", "D"]
    assert isinstance(make_system("a"), SystemA)
    with pytest.raises(ValueError):
        make_system("Z")


def test_system_a_architecture():
    system = make_system("A")
    opts = system.db.default_options
    assert opts.store_kind == "row"
    assert opts.split_history
    assert not opts.vertical_partition_current
    assert not opts.undo_log
    assert system.db.profile.uses_indexes


def test_system_b_architecture():
    system = make_system("B")
    opts = system.db.default_options
    assert opts.vertical_partition_current
    assert opts.undo_log
    assert opts.record_metadata


def test_system_c_architecture():
    system = make_system("C")
    opts = system.db.default_options
    assert opts.store_kind == "column"
    assert not system.db.profile.uses_indexes
    assert not system.native_application_time


def test_system_d_architecture():
    system = make_system("D")
    opts = system.db.default_options
    assert not opts.split_history
    assert system.db.profile.manual_system_time
    assert not system.native_system_time


def test_describe_mentions_key_traits():
    text = make_system("B").describe()
    assert "System B" in text
    assert "vertical partitioning: True" in text


def test_all_systems_accept_same_temporal_sql():
    sql = (
        "CREATE TABLE v (id integer NOT NULL, x integer,"
        " sb timestamp, se timestamp, PRIMARY KEY (id),"
        " PERIOD FOR system_time (sb, se))"
    )
    for name in all_system_names():
        system = make_system(name)
        system.execute(sql)
        system.execute("INSERT INTO v (id, x) VALUES (1, 10)")
        system.execute("UPDATE v SET x = 20 WHERE id = 1")
        now = system.execute("SELECT x FROM v").rows
        past = system.execute("SELECT x FROM v FOR SYSTEM_TIME AS OF 1").rows
        allv = system.execute("SELECT count(*) FROM v FOR SYSTEM_TIME ALL").scalar()
        assert now == [(20,)], name
        assert past == [(10,)], name
        assert allv == 2, name


def test_connect_returns_dbapi_connection():
    system = make_system("A")
    conn = system.connect()
    cur = conn.cursor()
    cur.execute("CREATE TABLE z (a integer)")
    cur.execute("INSERT INTO z (a) VALUES (1)")
    cur.execute("SELECT a FROM z")
    assert cur.fetchall() == [(1,)]
