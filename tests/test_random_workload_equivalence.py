"""The strongest cross-architecture property: a *random* bitemporal DML
workload, applied through SQL to every archetype in multi-statement
transactions, meets the same refusals on all of them (an INSERT of a live
key, a key-changing UPDATE onto one) and leaves them with identical logical
content at every probed point in both time dimensions.  A transaction that
writes one key twice closes a version at the tick it began; no archetype
stores such a version."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import DatabaseError
from repro.systems import make_system

DDL = (
    "CREATE TABLE w ("
    " id integer NOT NULL, v integer,"
    " ab date, ae date, sb timestamp, se timestamp,"
    " PRIMARY KEY (id),"
    " PERIOD FOR business_time (ab, ae),"
    " PERIOD FOR system_time (sb, se))"
)

# an operation: (kind, key, value, lo, width)
operations = st.lists(
    st.tuples(
        st.sampled_from([
            "insert", "insert_live", "update", "rekey", "seq_update",
            "seq_delete", "delete",
        ]),
        st.integers(1, 4),        # key
        st.integers(0, 99),       # value
        st.integers(0, 90),       # portion lo
        st.integers(1, 30),       # portion width
    ),
    max_size=18,
)
# statements per transaction: all of a transaction's writes share its tick
per_txn = st.integers(2, 6)


def _statement(kind, key, value, lo, hi):
    if kind == "insert_live":  # the key may be live: refused on overlap
        return ("INSERT INTO w (id, v, ab, ae) VALUES (?, ?, ?, ?)",
                [key, value, lo, hi])
    if kind == "rekey":  # may land on a live key: refused on overlap
        return "UPDATE w SET id = ? WHERE id = ?", [1 + value % 4, key]
    if kind == "update":
        return "UPDATE w SET v = ? WHERE id = ?", [value, key]
    if kind == "seq_update":
        return ("UPDATE w FOR PORTION OF business_time FROM ? TO ?"
                " SET v = ? WHERE id = ?", [lo, hi, value, key])
    if kind == "seq_delete":
        return ("DELETE FROM w FOR PORTION OF business_time FROM ? TO ?"
                " WHERE id = ?", [lo, hi, key])
    return "DELETE FROM w WHERE id = ?", [key]


def _apply(db, ops, size):
    """Run *ops*, *size* statements per transaction; returns each one's
    outcome: None, or the error class (a refused statement writes nothing,
    and its transaction goes on)."""
    inserted = set()
    outcomes = []
    for start in range(0, len(ops), size):
        with db.begin():
            for kind, key, value, lo, width in ops[start:start + size]:
                if kind == "insert":
                    if key in inserted:
                        continue
                    inserted.add(key)
                    sql, params = (
                        "INSERT INTO w (id, v, ab, ae) VALUES (?, ?, 0, 120)",
                        [key, value],
                    )
                else:
                    if kind == "delete":
                        inserted.discard(key)
                    sql, params = _statement(kind, key, value, lo, lo + width)
                try:
                    db.execute(sql, params)
                    outcomes.append(None)
                except DatabaseError as error:
                    outcomes.append(type(error).__name__)
    return outcomes


def _logical_content(db, ticks, days):
    """Visible (id, v) sets at a grid of bitemporal points, plus ALL."""
    snapshot = []
    for tick in ticks:
        for day in days:
            rows = db.execute(
                "SELECT id, v FROM w FOR SYSTEM_TIME AS OF :t"
                " FOR BUSINESS_TIME AS OF :d ORDER BY id",
                {"t": tick, "d": day},
            ).rows
            snapshot.append((tick, day, tuple(rows)))
    everything = db.execute(
        "SELECT id, v, ab, ae, sb, se FROM w FOR SYSTEM_TIME ALL"
        " ORDER BY id, sb, ab"
    ).rows
    return snapshot, tuple(everything)


@settings(max_examples=10, deadline=None)
@given(operations, per_txn)
def test_property_all_archetypes_agree_on_random_workloads(ops, size):
    systems = {name: make_system(name) for name in "ABCDE"}
    outcomes = {}
    for name, system in systems.items():
        system.execute(DDL)
        outcomes[name] = _apply(system.db, ops, size)
        empty = [
            row for _part, _rid, row in system.db.table("w").scan_versions()
            if row[4] >= row[5]  # sb >= se: held at no system time
        ]
        assert not empty, (name, empty)
    assert len({tuple(o) for o in outcomes.values()}) == 1, outcomes
    last_tick = max(s.db.now() for s in systems.values())
    ticks = [1, max(1, last_tick // 2), max(1, last_tick)]
    days = [0, 30, 60, 119]
    reference_name = None
    reference = None
    for name, system in systems.items():
        content = _logical_content(system.db, ticks, days)
        if reference is None:
            reference_name, reference = name, content
        else:
            assert content[0] == reference[0], (
                f"{name} disagrees with {reference_name} on a snapshot"
            )
            assert content[1] == reference[1], (
                f"{name} disagrees with {reference_name} on the full history"
            )


@settings(max_examples=8, deadline=None)
@given(operations, per_txn)
def test_property_timeline_snapshot_equals_scan(ops, size):
    """System E's timeline snapshots agree with a filtered full scan for
    every tick that ever appeared in the history."""
    system = make_system("E")
    system.execute(DDL)
    _apply(system.db, ops, size)
    as_of = "SELECT id FROM w FOR SYSTEM_TIME AS OF ?"
    plan = system.db.explain_analyze(as_of, [system.db.now()])
    assert "single: timeline" in plan, plan
    for tick in system.db.timeline("w").boundaries():
        via_timeline = sorted(row[0] for row in system.execute(as_of, [tick]).rows)
        via_sql = sorted(
            row[0]
            for row in system.db.execute(
                "SELECT id FROM w FOR SYSTEM_TIME ALL"
                " WHERE sb <= ? AND se > ?", [tick, tick]
            ).rows
        )
        assert via_timeline == via_sql, tick
