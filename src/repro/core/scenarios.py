"""The nine update scenarios of the history generator (paper Table 1).

Probabilities follow Table 1; two entries are illegible in the available
copy of the paper (Update Supplier, Manipulate Order Data) and are
reconstructed so the mix sums to 1.0 — documented in DESIGN.md.  The "New
Customer" / "Select existing Customer" rows of Table 1 are conditional
sub-choices inside the New Order scenario (0.5 / 0.5).

Each scenario mutates the :class:`~repro.core.history.GeneratorStore` *and*
appends replayable operations to the current transaction, so the same
scenario stream can later populate any system under test (§4.1: a
system-independent intermediate result).

Operation tuples (the archive format):

* ``("insert", table, values_dict)``
* ``("update", table, key, changes_dict)`` — non-temporal update
* ``("seq_update", table, key, changes, period, lo, hi)``
* ``("seq_delete", table, key, period, lo, hi)``
* ``("delete", table, key)``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..engine.types import END_OF_TIME, Period
from .dbgen import (
    INSTRUCTIONS,
    PRIORITIES,
    SEGMENTS,
    SHIPMODES,
    retail_price,
    supplier_for_part,
)
from .history import GeneratorStore
from .rng import Rng


@dataclass
class ScenarioContext:
    """Mutable state threaded through scenario execution."""

    store: GeneratorStore
    rng: Rng
    day: int                      # current application-time day
    next_orderkey: int
    next_custkey: int
    part_count: int
    supplier_count: int
    ops: List[tuple] = field(default_factory=list)
    #: orders currently open ('O') / delivered with open receivable
    open_orders: List[int] = field(default_factory=list)
    receivable_orders: List[int] = field(default_factory=list)
    #: orderkey -> linenumbers, so scenarios avoid scanning all lineitems
    order_lines: Dict[int, List[int]] = field(default_factory=dict)
    executed: Dict[str, int] = field(default_factory=dict)
    skipped: Dict[str, int] = field(default_factory=dict)

    def emit(self, op: tuple):
        self.ops.append(op)

    def record(self, name, applied: bool):
        bucket = self.executed if applied else self.skipped
        bucket[name] = bucket.get(name, 0) + 1


# ---------------------------------------------------------------------------
# individual scenarios
# ---------------------------------------------------------------------------


def _lineitems_for_order(ctx: ScenarioContext, orderkey: int, tick: int):
    rng = ctx.rng
    count = rng.uniform_int(1, 7)
    totalprice = 0.0
    rows = []
    for linenumber in range(1, count + 1):
        partkey = rng.uniform_int(1, ctx.part_count)
        suppkey = supplier_for_part(
            partkey, rng.uniform_int(0, 3), ctx.supplier_count
        )
        quantity = rng.uniform_int(1, 50)
        extendedprice = round(quantity * retail_price(partkey), 2)
        discount = rng.uniform_int(0, 10) / 100.0
        tax = rng.uniform_int(0, 8) / 100.0
        values = {
            "l_orderkey": orderkey,
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": linenumber,
            "l_quantity": float(quantity),
            "l_extendedprice": extendedprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": "N",
            "l_linestatus": "O",
            "l_shipdate": ctx.day + rng.uniform_int(1, 60),
            "l_commitdate": ctx.day + rng.uniform_int(14, 45),
            "l_receiptdate": ctx.day + rng.uniform_int(2, 90),
            "l_shipinstruct": rng.choice(INSTRUCTIONS),
            "l_shipmode": rng.choice(SHIPMODES),
            "l_comment": "pending line",
            "l_active_begin": ctx.day,
            "l_active_end": END_OF_TIME,
        }
        totalprice += extendedprice * (1 + tax) * (1 - discount)
        rows.append(values)
    return rows, round(totalprice, 2)


def new_order(ctx: ScenarioContext, tick: int) -> bool:
    """New Order (p=0.30): insert an order + lineitems, touching CUSTOMER
    either with an insert (new customer, 50%) or a balance update."""
    rng = ctx.rng
    customers = ctx.store.table("customer")
    if rng.random() < 0.5 or not customers.chains:
        custkey = ctx.next_custkey
        ctx.next_custkey += 1
        values = {
            "c_custkey": custkey,
            "c_name": f"Customer#{custkey:09d}",
            "c_address": "new customer address",
            "c_nationkey": rng.uniform_int(0, 24),
            "c_phone": "00-000-000-0000",
            "c_acctbal": round(rng.uniform(0.0, 9999.99), 2),
            "c_mktsegment": rng.choice(SEGMENTS),
            "c_comment": "joined during history",
            "c_visible_begin": ctx.day,
            "c_visible_end": END_OF_TIME,
        }
        customers.insert(values, tick)
        ctx.emit(("insert", "customer", values))
    else:
        keys = customers.live_keys()
        custkey = keys[rng.skewed_index(len(keys))][0]
        delta = round(rng.uniform(-500.0, 500.0), 2)
        chain = customers.chain((custkey,))
        base = chain.tail.values["c_acctbal"] if chain and chain.tail else 0.0
        changes = {"c_acctbal": round(base + delta, 2)}
        portion = Period(ctx.day, END_OF_TIME)
        customers.sequenced_update(
            (custkey,), changes, portion, tick, period_name="visible_time",
            overwrite=True,
        )
        ctx.emit(
            ("seq_update", "customer", (custkey,), changes, "visible_time",
             ctx.day, END_OF_TIME)
        )

    orderkey = ctx.next_orderkey
    ctx.next_orderkey += 1
    lineitems, totalprice = _lineitems_for_order(ctx, orderkey, tick)
    order = {
        "o_orderkey": orderkey,
        "o_custkey": custkey,
        "o_orderstatus": "O",
        "o_totalprice": totalprice,
        "o_orderdate": ctx.day,
        "o_orderpriority": rng.choice(PRIORITIES),
        "o_clerk": f"Clerk#{rng.uniform_int(1, 1000):09d}",
        "o_shippriority": 0,
        "o_comment": "history order",
        "o_active_begin": ctx.day,
        "o_active_end": END_OF_TIME,
        "o_receivable_begin": END_OF_TIME - 1,
        "o_receivable_end": END_OF_TIME,
    }
    ctx.store.table("orders").insert(order, tick)
    ctx.emit(("insert", "orders", order))
    lineitem_table = ctx.store.table("lineitem")
    ctx.order_lines[orderkey] = []
    for values in lineitems:
        lineitem_table.insert(values, tick)
        ctx.emit(("insert", "lineitem", values))
        ctx.order_lines[orderkey].append(values["l_linenumber"])
    ctx.open_orders.append(orderkey)
    return True


def cancel_order(ctx: ScenarioContext, tick: int) -> bool:
    """Cancel Order (p=0.05): delete an open order and its lineitems."""
    if not ctx.open_orders:
        return False
    rng = ctx.rng
    index = rng.uniform_int(0, len(ctx.open_orders) - 1)
    orderkey = ctx.open_orders.pop(index)
    orders = ctx.store.table("orders")
    if orders.chain((orderkey,)) is None:
        return False
    orders.delete((orderkey,), tick)
    ctx.emit(("delete", "orders", (orderkey,)))
    lineitems = ctx.store.table("lineitem")
    for linenumber in ctx.order_lines.pop(orderkey, []):
        key = (orderkey, linenumber)
        if lineitems.chain(key) is not None:
            lineitems.delete(key, tick)
            ctx.emit(("delete", "lineitem", key))
    return True


def deliver_order(ctx: ScenarioContext, tick: int) -> bool:
    """Deliver Order (p=0.25): close the active period, open the
    receivable period, flip statuses."""
    if not ctx.open_orders:
        return False
    rng = ctx.rng
    index = rng.uniform_int(0, len(ctx.open_orders) - 1)
    orders = ctx.store.table("orders")
    chain = orders.chain((ctx.open_orders[index],))
    if chain is not None and len(chain) > 1:
        # manipulate_order split the active period: one end cannot close
        # every slice, so the order stays open
        return False
    orderkey = ctx.open_orders.pop(index)
    if chain is None or chain.head is None:
        return False
    begin = chain.head.values["o_active_begin"]
    day = max(ctx.day, begin + 1)
    changes = {
        "o_orderstatus": "F",
        "o_active_end": day,
        "o_receivable_begin": day,
        "o_receivable_end": END_OF_TIME,
    }
    orders.nontemporal_update((orderkey,), changes, tick)
    ctx.emit(("update", "orders", (orderkey,), changes))
    # roughly half of the lineitems get their final status recorded now
    lineitems = ctx.store.table("lineitem")
    for linenumber in ctx.order_lines.get(orderkey, []):
        key = (orderkey, linenumber)
        if lineitems.chain(key) is None or rng.random() < 0.5:
            continue
        line_changes = {
            "l_linestatus": "F",
            "l_returnflag": rng.choice("RAN"),
            "l_receiptdate": day,
            "l_active_end": day,
        }
        lineitems.nontemporal_update(key, line_changes, tick)
        ctx.emit(("update", "lineitem", key, line_changes))
    ctx.receivable_orders.append(orderkey)
    return True


def receive_payment(ctx: ScenarioContext, tick: int) -> bool:
    """Receive Payment (p=0.20): close the receivable period; book the
    amount on the customer's balance (an app-time CUSTOMER update)."""
    if not ctx.receivable_orders:
        return False
    rng = ctx.rng
    index = rng.uniform_int(0, len(ctx.receivable_orders) - 1)
    orderkey = ctx.receivable_orders.pop(index)
    orders = ctx.store.table("orders")
    chain = orders.chain((orderkey,))
    if chain is None or chain.head is None:
        return False
    values = chain.head.values
    day = max(ctx.day, values["o_receivable_begin"] + 1)
    if rng.random() < 0.5:
        changes = {"o_receivable_end": day}
        orders.nontemporal_update((orderkey,), changes, tick)
        ctx.emit(("update", "orders", (orderkey,), changes))
    custkey = values["o_custkey"]
    customers = ctx.store.table("customer")
    cust_chain = customers.chain((custkey,))
    if cust_chain is not None and cust_chain.tail is not None:
        base = cust_chain.tail.values["c_acctbal"]
        changes = {"c_acctbal": round(base - values["o_totalprice"], 2)}
        customers.sequenced_update(
            (custkey,), changes, Period(day, END_OF_TIME), tick,
            period_name="visible_time", overwrite=True,
        )
        ctx.emit(
            ("seq_update", "customer", (custkey,), changes, "visible_time",
             day, END_OF_TIME)
        )
    return True


def update_stock(ctx: ScenarioContext, tick: int) -> bool:
    """Update Stock (p=0.05): new available quantity from today onwards."""
    rng = ctx.rng
    partsupp = ctx.store.table("partsupp")
    keys = partsupp.live_keys()
    if not keys:
        return False
    key = keys[rng.skewed_index(len(keys))]
    changes = {"ps_availqty": rng.uniform_int(0, 9999)}
    portion = Period(ctx.day, END_OF_TIME)
    partsupp.sequenced_update(
        key, changes, portion, tick, period_name="validity_time", overwrite=True
    )
    ctx.emit(("seq_update", "partsupp", key, changes, "validity_time",
              ctx.day, END_OF_TIME))
    return True


def delay_availability(ctx: ScenarioContext, tick: int) -> bool:
    """Delay Availability (p=0.05): punch an unavailability window into a
    part's availability period (an app-time overwrite on PART)."""
    rng = ctx.rng
    parts = ctx.store.table("part")
    keys = parts.live_keys()
    if not keys:
        return False
    key = keys[rng.skewed_index(len(keys))]
    gap_begin = ctx.day + rng.uniform_int(0, 14)
    gap_end = gap_begin + rng.uniform_int(7, 30)
    affected = parts.sequenced_delete(
        key, Period(gap_begin, gap_end), tick, period_name="availability_time"
    )
    if not affected:
        return False
    ctx.emit(("seq_delete", "part", key, "availability_time", gap_begin, gap_end))
    return True


def change_price(ctx: ScenarioContext, tick: int) -> bool:
    """Change Price by Supplier (p=0.05): new supply cost from today on."""
    rng = ctx.rng
    partsupp = ctx.store.table("partsupp")
    keys = partsupp.live_keys()
    if not keys:
        return False
    key = keys[rng.skewed_index(len(keys))]
    chain = partsupp.chain(key)
    base = chain.tail.values["ps_supplycost"] if chain and chain.tail else 100.0
    factor = 1.0 + rng.uniform(-0.15, 0.15)
    changes = {"ps_supplycost": round(max(0.01, base * factor), 2)}
    portion = Period(ctx.day, END_OF_TIME)
    partsupp.sequenced_update(
        key, changes, portion, tick, period_name="validity_time", overwrite=True
    )
    ctx.emit(("seq_update", "partsupp", key, changes, "validity_time",
              ctx.day, END_OF_TIME))
    return True


def update_supplier(ctx: ScenarioContext, tick: int) -> bool:
    """Update Supplier (p=0.04): balance/address change on the degenerate
    (system-time-only) SUPPLIER table."""
    rng = ctx.rng
    suppliers = ctx.store.table("supplier")
    keys = suppliers.live_keys()
    if not keys:
        return False
    key = keys[rng.skewed_index(len(keys))]
    changes = {"s_acctbal": round(rng.uniform(-999.99, 9999.99), 2)}
    if rng.random() < 0.25:
        changes["s_address"] = f"relocated on day {ctx.day}"
    suppliers.nontemporal_update(key, changes, tick)
    ctx.emit(("update", "supplier", key, changes))
    return True


def manipulate_order(ctx: ScenarioContext, tick: int) -> bool:
    """Manipulate Order Data (p=0.01): retroactive correction of an order,
    overwriting part of its recorded active period."""
    rng = ctx.rng
    orders = ctx.store.table("orders")
    keys = orders.live_keys()
    if not keys:
        return False
    key = keys[rng.skewed_index(len(keys))]
    chain = orders.chain(key)
    if chain is None or chain.head is None:
        return False
    begin = chain.head.values["o_active_begin"]
    changes = {"o_orderpriority": rng.choice(PRIORITIES),
               "o_clerk": f"Clerk#{rng.uniform_int(1, 1000):09d}"}
    portion = Period(begin, begin + rng.uniform_int(3, 10))
    orders.sequenced_update(
        key, changes, portion, tick, period_name="active_time", overwrite=True
    )
    ctx.emit(("seq_update", "orders", key, changes, "active_time",
              portion.begin, portion.end))
    return True


@dataclass(frozen=True)
class Scenario:
    name: str
    probability: float
    run: Callable[[ScenarioContext, int], bool]


#: Table 1 of the paper (see module docstring for the reconstruction note)
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("new_order", 0.30, new_order),
    Scenario("cancel_order", 0.05, cancel_order),
    Scenario("deliver_order", 0.25, deliver_order),
    Scenario("receive_payment", 0.20, receive_payment),
    Scenario("update_stock", 0.05, update_stock),
    Scenario("delay_availability", 0.05, delay_availability),
    Scenario("change_price", 0.05, change_price),
    Scenario("update_supplier", 0.04, update_supplier),
    Scenario("manipulate_order", 0.01, manipulate_order),
)


def scenario_table() -> List[Tuple[str, float]]:
    """(name, probability) pairs — reproduces Table 1."""
    return [(s.name, s.probability) for s in SCENARIOS]


def pick_scenario(rng: Rng) -> Scenario:
    return rng.weighted_choice(SCENARIOS, [s.probability for s in SCENARIOS])
