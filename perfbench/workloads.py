"""The benchmark's own inputs: SQL templates, the ad-hoc query generator
and the ETL load batches.

Nothing here imports the program's traffic generator, so a change to the
program cannot change what the benchmark asks of it.  Every function
draws from a ``random.Random`` the caller seeds; the same seed gives the
same operations.
"""

from __future__ import annotations

import datetime
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

YEARS = (1993, 1994, 1995, 1996, 1997)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SHIP_INSTRUCT = ("DELIVER IN PERSON", "COLLECT COD", "NONE",
                 "TAKE BACK RETURN")
BRANDS = tuple(f"Brand#{a}{b}" for a in range(1, 6) for b in range(1, 6))
CONTAINERS = ("SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE",
              "LG BOX", "JUMBO PKG", "WRAP CASE")


@dataclass(frozen=True)
class Op:
    """One operation of a run: a read (``sql``) or a load (``orders``
    plus their ``lineitems``)."""

    kind: str                      # "read" or "load"
    template: str                  # template / generator label
    sql: Optional[str] = None
    orders: Tuple[tuple, ...] = ()
    lineitems: Tuple[tuple, ...] = ()

    @property
    def rows(self) -> int:
        return len(self.orders) + len(self.lineitems)


# -- dashboard templates ---------------------------------------------------------

def _date(rng: random.Random, day: int = 1) -> str:
    return f"{rng.choice(YEARS)}-{rng.randint(1, 12):02d}-{day:02d}"


def pricing_summary(rng: random.Random) -> str:
    """TPC-H Q1: one lineitem scan, grouped aggregate."""
    return f"""
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '{_date(rng)}'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


def revenue_forecast(rng: random.Random) -> str:
    """TPC-H Q6: one lineitem scan, scalar aggregate."""
    year = rng.choice(YEARS)
    low = rng.choice((0.02, 0.03, 0.05, 0.06))
    return f"""
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '{year}-01-01'
  AND l_shipdate < DATE '{year + 1}-01-01'
  AND l_discount BETWEEN {low} AND {round(low + 0.02, 2)}
  AND l_quantity < {rng.choice((24, 25, 30, 35))}
"""


def shipping_priority(rng: random.Random) -> str:
    """TPC-H Q3: three-table join; customer moves to meet orders."""
    date = _date(rng, 15)
    return f"""
SELECT l_orderkey,
       SUM(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '{rng.choice(SEGMENTS)}'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '{date}'
  AND l_shipdate > DATE '{date}'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


def local_supplier_volume(rng: random.Random) -> str:
    """TPC-H Q5: six-table join with shuffles of the large inputs."""
    year = rng.choice(YEARS)
    return f"""
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = '{rng.choice(REGIONS)}'
  AND o_orderdate >= DATE '{year}-01-01'
  AND o_orderdate < DATE '{year + 1}-01-01'
GROUP BY n_name
ORDER BY revenue DESC
"""


def big_orders(rng: random.Random) -> str:
    """Two-table join of orders and customer on the customer key."""
    return f"""
SELECT c_custkey, o_orderdate
FROM orders, customer
WHERE o_custkey = c_custkey
  AND o_totalprice > {rng.choice((300000, 350000, 400000, 425000))}
"""


@dataclass(frozen=True)
class Template:
    name: str
    make_sql: Callable[[random.Random], str]
    weight: int


#: The dashboard mix, in blocks of ten reads: scans dominate, joins
#: arrive steadily.  The slowest template (Q5) fills the top fifth of the
#: latency distribution, so p90 falls inside its cluster, not on the
#: edge between two templates.
DASHBOARD: Sequence[Template] = (
    Template("q1", pricing_summary, 2),
    Template("q6", revenue_forecast, 3),
    Template("q3", shipping_priority, 1),
    Template("q5", local_supplier_volume, 2),
    Template("join", big_orders, 2),
)


def warmup_reads() -> List[Op]:
    """One read of every dashboard template, with fixed literals."""
    rng = random.Random("warmup")
    return [Op("read", t.name, sql=t.make_sql(rng)) for t in DASHBOARD]


def blocks(rng: random.Random, items: Sequence, count: int) -> list:
    """``count`` items made of whole copies of ``items``, each copy
    shuffled: every run holds the same mix, spread evenly over time, and
    only the order varies with the seed.  ``count`` rounds up to whole
    copies."""
    result: list = []
    while len(result) < count:
        block = list(items)
        rng.shuffle(block)
        result.extend(block)
    return result


def dashboard_reads(rng: random.Random, count: int) -> List[Op]:
    mix = [t for t in DASHBOARD for _ in range(t.weight)]
    return [Op("read", t.name, sql=t.make_sql(rng))
            for t in blocks(rng, mix, count)]


# -- ad-hoc generator ------------------------------------------------------------

#: Key/foreign-key edges the generator joins along: a tree, so every
#: join follows a key.  Supplier-nation is left out on purpose: with
#: customer-nation it forms a many-to-many path, and even alone the
#: node-local join order it gets makes execution dominate the query.
EDGES: Dict[frozenset, str] = {
    frozenset(("region", "nation")): "n_regionkey = r_regionkey",
    frozenset(("nation", "customer")): "c_nationkey = n_nationkey",
    frozenset(("customer", "orders")): "o_custkey = c_custkey",
    frozenset(("orders", "lineitem")): "l_orderkey = o_orderkey",
    frozenset(("lineitem", "part")): "l_partkey = p_partkey",
    frozenset(("lineitem", "supplier")): "l_suppkey = s_suppkey",
}
TABLE_ORDER = ("region", "nation", "customer", "orders", "lineitem",
               "part", "supplier")

FilterFn = Callable[[random.Random], str]

FILTERS: Dict[str, Tuple[Tuple[str, FilterFn], ...]] = {
    "region": (("r_name", lambda r: f"r_name = '{r.choice(REGIONS)}'"),),
    "nation": (("n_nationkey", lambda r: f"n_nationkey < {r.randint(5, 20)}"),),
    "customer": (
        ("c_mktsegment", lambda r: f"c_mktsegment = '{r.choice(SEGMENTS)}'"),
        ("c_acctbal", lambda r: f"c_acctbal > {r.randint(0, 8000)}"),
    ),
    "orders": (
        ("o_orderdate", lambda r: f"o_orderdate >= DATE '{_date(r)}'"),
        ("o_orderpriority",
         lambda r: f"o_orderpriority = '{r.choice(PRIORITIES)}'"),
        ("o_totalprice", lambda r: f"o_totalprice > {r.randint(1, 40) * 10000}"),
    ),
    "lineitem": (
        ("l_shipdate", lambda r: f"l_shipdate < DATE '{_date(r)}'"),
        ("l_quantity", lambda r: f"l_quantity < {r.randint(5, 45)}"),
        ("l_shipmode", lambda r: f"l_shipmode = '{r.choice(SHIP_MODES)}'"),
    ),
    "part": (
        ("p_size", lambda r: f"p_size < {r.randint(5, 45)}"),
        ("p_brand", lambda r: f"p_brand = '{r.choice(BRANDS)}'"),
        ("p_container", lambda r: f"p_container = '{r.choice(CONTAINERS)}'"),
    ),
    "supplier": (("s_acctbal", lambda r: f"s_acctbal > {r.randint(0, 8000)}"),),
}

GROUP_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "region": ("r_name",),
    "nation": ("n_name",),
    "customer": ("c_mktsegment",),
    "orders": ("o_orderpriority", "o_orderstatus"),
    "lineitem": ("l_returnflag", "l_linestatus", "l_shipmode"),
    "part": ("p_brand", "p_container"),
    "supplier": ("s_nationkey",),
}

MEASURES: Dict[str, Tuple[str, ...]] = {
    "customer": ("c_acctbal",),
    "orders": ("o_totalprice",),
    "lineitem": ("l_quantity", "l_extendedprice",
                 "l_extendedprice * (1 - l_discount)"),
    "part": ("p_retailprice",),
    "supplier": ("s_acctbal",),
}
AGGREGATES = ("SUM", "MIN", "MAX", "AVG")
#: Every ad-hoc query has two filters, one grouping column and two
#: aggregates: which columns and functions vary, their number does not,
#: because the number drives compile cost and so run-to-run spread.
FILTERS_PER_QUERY = 2


def _connected(tables: frozenset) -> bool:
    start = next(iter(tables))
    seen, frontier = {start}, [start]
    while frontier:
        table = frontier.pop()
        for other in tables - seen:
            if frozenset((table, other)) in EDGES:
                seen.add(other)
                frontier.append(other)
    return seen == tables


def join_sets() -> List[Tuple[str, ...]]:
    """Every connected 3-6 table set along :data:`EDGES`, in a fixed
    order."""
    result = []
    for size in range(3, 7):
        for combo in itertools.combinations(TABLE_ORDER, size):
            if _connected(frozenset(combo)):
                result.append(combo)
    return result


def adhoc_query(rng: random.Random, tables: Tuple[str, ...]
                ) -> Tuple[tuple, str]:
    """One ad-hoc join over ``tables`` and its structural signature.

    The signature names everything but the literals, so two queries with
    equal signatures would share a plan-cache shape."""
    joins = [EDGES[frozenset(pair)]
             for pair in itertools.combinations(tables, 2)
             if frozenset(pair) in EDGES]
    candidates = [(table, column, make)
                  for table in tables for column, make in FILTERS[table]]
    filters = sorted(rng.sample(candidates, FILTERS_PER_QUERY),
                     key=lambda f: (f[0], f[1]))
    group = rng.choice([c for t in tables for c in GROUP_COLUMNS[t]])
    measure_pool = [m for t in tables for m in MEASURES.get(t, ())]
    aggregates = ("COUNT(*)",
                  f"{rng.choice(AGGREGATES)}({rng.choice(measure_pool)})")
    signature = (tables, tuple((t, c) for t, c, _m in filters), group,
                 aggregates)
    select = [group] + [f"{agg} AS a{i}" for i, agg in enumerate(aggregates)]
    where = joins + [make(rng) for _t, _c, make in filters]
    sql = (f"SELECT {', '.join(select)}\nFROM {', '.join(tables)}\n"
           f"WHERE {' AND '.join(where)}\nGROUP BY {group}\nORDER BY {group}")
    return signature, sql


def adhoc_reads(rng: random.Random, count: int) -> List[Op]:
    """``count`` ad-hoc reads with pairwise distinct signatures.  Every
    join set comes up equally often (blocks of all of them), so the
    cost mix is the same in every run; filters, grouping, aggregates and
    literals vary."""
    taken = set()
    ops: List[Op] = []
    for tables in blocks(rng, join_sets(), count):
        while True:
            signature, sql = adhoc_query(rng, tables)
            if signature not in taken:
                break
        taken.add(signature)
        ops.append(Op("read", f"adhoc{len(tables)}", sql=sql))
    return ops


# -- ETL load batches ------------------------------------------------------------

FIRST_DATE = datetime.date(1993, 1, 1)
CUTOFF = datetime.date(1995, 6, 17)


def load_batch(rng: random.Random, first_key: int, orders: int,
               customers: int, parts: int, suppliers: int) -> Op:
    """New orders keyed from ``first_key`` on, with 1-7 lineitems each,
    referencing existing customers, parts and suppliers."""
    order_rows, line_rows = [], []
    for key in range(first_key, first_key + orders):
        order_date = FIRST_DATE + datetime.timedelta(days=rng.randint(0, 1700))
        order_rows.append((
            key, rng.randint(1, customers), rng.choice("OFP"),
            round(rng.uniform(1000.0, 450000.0), 2), order_date,
            rng.choice(PRIORITIES), f"Clerk#{rng.randint(1, 1000):09d}", 0))
        for line in range(1, rng.randint(1, 7) + 1):
            quantity = rng.randint(1, 50)
            ship = order_date + datetime.timedelta(days=rng.randint(1, 121))
            receipt = ship + datetime.timedelta(days=rng.randint(1, 30))
            line_rows.append((
                key, rng.randint(1, parts), rng.randint(1, suppliers), line,
                float(quantity),
                round(quantity * rng.uniform(900.0, 1100.0), 2),
                round(rng.uniform(0.0, 0.10), 2),
                round(rng.uniform(0.0, 0.08), 2),
                rng.choice("RA") if receipt <= CUTOFF else "N",
                "O" if ship > CUTOFF else "F",
                ship,
                order_date + datetime.timedelta(days=rng.randint(30, 90)),
                receipt,
                rng.choice(SHIP_INSTRUCT),
                rng.choice(SHIP_MODES)))
    return Op("load", "load", orders=tuple(order_rows),
              lineitems=tuple(line_rows))
