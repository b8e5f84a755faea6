"""Class R: range-timeslice queries (paper §3.3, §5.6).

Application-derived analyses that fix one time dimension to a point while
ranging over the other.  These are the paper's pain points: temporal
aggregation (R3) costs *"more than two orders of magnitude more ... than a
full access to the history"* on some systems because SQL:2011 offers no
native operator — the rewrites below are exactly the joins-over-boundaries
formulations the paper had to use.
"""

from __future__ import annotations

from ...engine.types import END_OF_TIME
from . import BenchmarkQuery


def _bind(meta):
    return {
        "app_point": meta.mid_day(),
        "sys_point": meta.mid_tick(),
        "sys_end": meta.last_tick,
        "sys_sentinel": END_OF_TIME,
        "price": 400000.0,
        "balance": 5000.0,
    }


QUERIES = [
    # ---- R1: state modeling — captured state changes ------------------------
    BenchmarkQuery(
        "R1",
        "state changes: successive versions whose order status differs",
        "SELECT count(*)"
        " FROM orders FOR SYSTEM_TIME ALL v1,"
        "      orders FOR SYSTEM_TIME ALL v2"
        " WHERE v1.o_orderkey = v2.o_orderkey"
        "   AND v2.sys_begin = v1.sys_end"
        "   AND v1.o_orderstatus <> v2.o_orderstatus",
        _bind,
        group="R",
    ),
    # ---- R2: state durations -------------------------------------------------
    BenchmarkQuery(
        "R2",
        "state durations: how long orders stay in each status (system time)",
        # The duration average must ignore still-open versions: their
        # ``sys_end`` is the END_OF_TIME sentinel, and ``sys_end - sys_begin``
        # would count them as astronomically long states.  The default bind
        # (``sys_end < :sys_end`` at last_tick) happens to exclude them, but a
        # current-inclusive bind would silently corrupt the average without
        # the CASE clamp.
        "SELECT o_orderstatus, count(*),"
        "       avg(CASE WHEN sys_end < :sys_sentinel"
        "                THEN sys_end - sys_begin ELSE NULL END)"
        " FROM orders FOR SYSTEM_TIME ALL"
        " WHERE sys_end < :sys_end"
        " GROUP BY o_orderstatus",
        _bind,
        group="R",
    ),
    # ---- R3: temporal aggregation ------------------------------------------------
    BenchmarkQuery(
        "R3a",
        "temporal aggregation (count) — one result row per version boundary",
        # The boundary list must union *both* interval endpoints: a version
        # that ends without a successor still changes the aggregate at its
        # ``sys_end``, and begins-only misses that boundary entirely.  (The
        # begins-only variant also undercounts whenever a deletion is the
        # only event at a tick.)
        "SELECT b.t, count(*)"
        " FROM (SELECT sys_begin AS t FROM orders FOR SYSTEM_TIME ALL"
        "       UNION"
        "       SELECT sys_end AS t FROM orders FOR SYSTEM_TIME ALL) b,"
        "      orders FOR SYSTEM_TIME ALL o"
        " WHERE o.sys_begin <= b.t AND o.sys_end > b.t"
        " GROUP BY b.t",
        _bind,
        group="R",
    ),
    BenchmarkQuery(
        "R3b",
        "temporal aggregation (sum of open order value) per boundary",
        "SELECT b.t, sum(o.o_totalprice)"
        " FROM (SELECT sys_begin AS t FROM orders FOR SYSTEM_TIME ALL"
        "       UNION"
        "       SELECT sys_end AS t FROM orders FOR SYSTEM_TIME ALL) b,"
        "      orders FOR SYSTEM_TIME ALL o"
        " WHERE o.sys_begin <= b.t AND o.sys_end > b.t"
        " GROUP BY b.t",
        _bind,
        group="R",
    ),
    # ---- R4: smallest stock-level difference over the history -------------------------
    BenchmarkQuery(
        "R4",
        "products with the smallest stock-level spread over their history",
        "SELECT ps_partkey, ps_suppkey,"
        "       max(ps_availqty) - min(ps_availqty) AS spread"
        " FROM partsupp FOR SYSTEM_TIME ALL"
        " GROUP BY ps_partkey, ps_suppkey"
        " HAVING count(*) > 1"
        " ORDER BY spread ASC, ps_partkey, ps_suppkey"
        " LIMIT 10",
        _bind,
        group="R",
    ),
    # ---- R5: temporal join ---------------------------------------------------------------
    BenchmarkQuery(
        "R5",
        "temporal join: low-balance customers while placing expensive orders",
        "SELECT count(DISTINCT c.c_custkey)"
        " FROM customer FOR SYSTEM_TIME ALL c,"
        "      orders FOR SYSTEM_TIME ALL o"
        " WHERE c.c_custkey = o.o_custkey"
        "   AND c.c_acctbal < :balance"
        "   AND o.o_totalprice > :price"
        "   AND c.sys_begin < o.sys_end AND o.sys_begin < c.sys_end",
        _bind,
        group="R",
    ),
    # ---- R6: temporal aggregation + join ----------------------------------------------------
    BenchmarkQuery(
        "R6",
        "temporal aggregation joined with a temporal table",
        "SELECT n.n_name, count(*)"
        " FROM customer FOR SYSTEM_TIME ALL c,"
        "      orders FOR SYSTEM_TIME ALL o,"
        "      nation n"
        " WHERE c.c_custkey = o.o_custkey"
        "   AND n.n_nationkey = c.c_nationkey"
        "   AND c.sys_begin < o.sys_end AND o.sys_begin < c.sys_end"
        " GROUP BY n.n_name",
        _bind,
        group="R",
    ),
    # ---- R7: previous-version deltas for all keys ---------------------------------------------
    BenchmarkQuery(
        "R7",
        "suppliers raising a price by more than 7.5% in one update",
        "SELECT DISTINCT v2.ps_suppkey"
        " FROM partsupp FOR SYSTEM_TIME ALL v1,"
        "      partsupp FOR SYSTEM_TIME ALL v2"
        " WHERE v1.ps_partkey = v2.ps_partkey"
        "   AND v1.ps_suppkey = v2.ps_suppkey"
        "   AND v2.sys_begin = v1.sys_end"
        "   AND v2.ps_supplycost > 1.075 * v1.ps_supplycost",
        _bind,
        group="R",
    ),
]
