"""Fifteen TPC-H-like query templates used by the homogeneous workload generator.

The paper's ``W_hom`` workload consists of random queries produced by the
TPC-H query generator on fifteen of the TPC-H templates (the remaining seven
were unsupported by the prototype's SQL parser).  We implement fifteen
structural templates modelled on TPC-H Q1, Q3, Q4, Q5, Q6, Q7, Q8, Q10, Q11,
Q12, Q14, Q15, Q16, Q18 and Q19, each parameterised by a random-number
generator so that repeated instantiations have different constants and
selectivities — exactly the role QGEN plays for the paper.

Update templates (used to mix UPDATE statements into the workloads) touch the
``lineitem``, ``orders``, ``customer`` and ``partsupp`` tables.
"""

from __future__ import annotations

import random
from typing import Callable


from repro.workload.predicates import (
    ComparisonOperator,
    JoinPredicate,
    SimplePredicate,
    column_ref as _col,
)
from repro.workload.query import Aggregate, AggregateFunction, Query, SelectQuery, UpdateQuery

__all__ = ["SELECT_TEMPLATES", "UPDATE_TEMPLATES", "instantiate_template"]


def _eq(table: str, column: str, value, selectivity: float) -> SimplePredicate:
    return SimplePredicate(_col(table, column), ComparisonOperator.EQ, value,
                           selectivity_hint=selectivity)


def _range(table: str, column: str, low, high, selectivity: float) -> SimplePredicate:
    return SimplePredicate(_col(table, column), ComparisonOperator.BETWEEN,
                           (low, high), selectivity_hint=selectivity)


def _le(table: str, column: str, value, selectivity: float) -> SimplePredicate:
    return SimplePredicate(_col(table, column), ComparisonOperator.LE, value,
                           selectivity_hint=selectivity)


def _ge(table: str, column: str, value, selectivity: float) -> SimplePredicate:
    return SimplePredicate(_col(table, column), ComparisonOperator.GE, value,
                           selectivity_hint=selectivity)


def _join(left_table: str, left_column: str, right_table: str,
          right_column: str) -> JoinPredicate:
    return JoinPredicate(_col(left_table, left_column), _col(right_table, right_column))


def _sum(table: str, column: str) -> Aggregate:
    return Aggregate(AggregateFunction.SUM, _col(table, column))


def _count_star() -> Aggregate:
    return Aggregate(AggregateFunction.COUNT, None)


# --------------------------------------------------------------------------- templates
def template_q1(rng: random.Random, name: str) -> SelectQuery:
    """Pricing summary report (TPC-H Q1): scan lineitem with a shipdate cutoff."""
    cutoff = rng.uniform(2400, 2520)
    selectivity = rng.uniform(0.90, 0.99)
    return SelectQuery(
        tables=("lineitem",),
        predicates=(_le("lineitem", "l_shipdate", cutoff, selectivity),),
        group_by=(_col("lineitem", "l_returnflag"), _col("lineitem", "l_linestatus")),
        order_by=(_col("lineitem", "l_returnflag"), _col("lineitem", "l_linestatus")),
        aggregates=(_sum("lineitem", "l_quantity"),
                    _sum("lineitem", "l_extendedprice"),
                    _sum("lineitem", "l_discount"),
                    _count_star()),
        name=name,
    )


def template_q3(rng: random.Random, name: str) -> SelectQuery:
    """Shipping priority (TPC-H Q3): customer x orders x lineitem with date bounds."""
    segment = rng.randrange(5)
    date = rng.uniform(700, 900)
    return SelectQuery(
        tables=("customer", "orders", "lineitem"),
        projections=(_col("orders", "o_orderdate"), _col("orders", "o_shippriority")),
        predicates=(_eq("customer", "c_mktsegment", segment, 0.2),
                    SimplePredicate(_col("orders", "o_orderdate"),
                                    ComparisonOperator.LT, date,
                                    selectivity_hint=rng.uniform(0.3, 0.5)),
                    SimplePredicate(_col("lineitem", "l_shipdate"),
                                    ComparisonOperator.GT, date,
                                    selectivity_hint=rng.uniform(0.5, 0.7))),
        joins=(_join("customer", "c_custkey", "orders", "o_custkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey")),
        group_by=(_col("lineitem", "l_orderkey"), _col("orders", "o_orderdate"),
                  _col("orders", "o_shippriority")),
        order_by=(_col("orders", "o_orderdate"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q4(rng: random.Random, name: str) -> SelectQuery:
    """Order priority checking (TPC-H Q4): orders restricted to a quarter."""
    start = rng.uniform(200, 2200)
    return SelectQuery(
        tables=("orders",),
        predicates=(_range("orders", "o_orderdate", start, start + 90,
                           rng.uniform(0.02, 0.05)),),
        group_by=(_col("orders", "o_orderpriority"),),
        order_by=(_col("orders", "o_orderpriority"),),
        aggregates=(_count_star(),),
        name=name,
    )


def template_q5(rng: random.Random, name: str) -> SelectQuery:
    """Local supplier volume (TPC-H Q5): five-way join restricted to a region/year."""
    region = rng.randrange(5)
    start = rng.uniform(0, 2000)
    return SelectQuery(
        tables=("customer", "orders", "lineitem", "supplier", "nation", "region"),
        predicates=(_eq("region", "r_regionkey", region, 0.2),
                    _range("orders", "o_orderdate", start, start + 365,
                           rng.uniform(0.12, 0.18))),
        joins=(_join("customer", "c_custkey", "orders", "o_custkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey"),
               _join("lineitem", "l_suppkey", "supplier", "s_suppkey"),
               _join("supplier", "s_nationkey", "nation", "n_nationkey"),
               _join("nation", "n_regionkey", "region", "r_regionkey")),
        group_by=(_col("nation", "n_name"),),
        order_by=(_col("nation", "n_name"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q6(rng: random.Random, name: str) -> SelectQuery:
    """Forecasting revenue change (TPC-H Q6): highly selective lineitem scan."""
    start = rng.uniform(0, 2000)
    quantity = rng.uniform(24, 26)
    discount = rng.uniform(0.02, 0.09)
    return SelectQuery(
        tables=("lineitem",),
        predicates=(_range("lineitem", "l_shipdate", start, start + 365,
                           rng.uniform(0.12, 0.16)),
                    _range("lineitem", "l_discount", discount - 0.01,
                           discount + 0.01, rng.uniform(0.15, 0.3)),
                    SimplePredicate(_col("lineitem", "l_quantity"),
                                    ComparisonOperator.LT, quantity,
                                    selectivity_hint=rng.uniform(0.45, 0.55))),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q7(rng: random.Random, name: str) -> SelectQuery:
    """Volume shipping (TPC-H Q7): supplier x lineitem x orders x customer x nation."""
    nation = rng.randrange(25)
    return SelectQuery(
        tables=("supplier", "lineitem", "orders", "customer", "nation"),
        predicates=(_eq("nation", "n_nationkey", nation, 1.0 / 25.0),
                    _range("lineitem", "l_shipdate", 300, 1030,
                           rng.uniform(0.25, 0.35))),
        joins=(_join("supplier", "s_suppkey", "lineitem", "l_suppkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey"),
               _join("customer", "c_custkey", "orders", "o_custkey"),
               _join("supplier", "s_nationkey", "nation", "n_nationkey")),
        group_by=(_col("nation", "n_name"), _col("lineitem", "l_shipdate")),
        order_by=(_col("nation", "n_name"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q8(rng: random.Random, name: str) -> SelectQuery:
    """National market share (TPC-H Q8): part-centric multi-way join."""
    part_type = rng.randrange(150)
    return SelectQuery(
        tables=("part", "lineitem", "orders", "customer", "nation", "region"),
        predicates=(_eq("part", "p_type", part_type, 1.0 / 150.0),
                    _eq("region", "r_regionkey", rng.randrange(5), 0.2),
                    _range("orders", "o_orderdate", 700, 1430,
                           rng.uniform(0.28, 0.34))),
        joins=(_join("part", "p_partkey", "lineitem", "l_partkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey"),
               _join("customer", "c_custkey", "orders", "o_custkey"),
               _join("customer", "c_nationkey", "nation", "n_nationkey"),
               _join("nation", "n_regionkey", "region", "r_regionkey")),
        group_by=(_col("orders", "o_orderdate"),),
        order_by=(_col("orders", "o_orderdate"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q10(rng: random.Random, name: str) -> SelectQuery:
    """Returned item reporting (TPC-H Q10): customer revenue from returned items."""
    start = rng.uniform(0, 2300)
    return SelectQuery(
        tables=("customer", "orders", "lineitem", "nation"),
        projections=(_col("customer", "c_name"), _col("customer", "c_acctbal"),
                     _col("nation", "n_name"), _col("customer", "c_address"),
                     _col("customer", "c_phone")),
        predicates=(_range("orders", "o_orderdate", start, start + 90,
                           rng.uniform(0.02, 0.05)),
                    _eq("lineitem", "l_returnflag", 0, rng.uniform(0.2, 0.35))),
        joins=(_join("customer", "c_custkey", "orders", "o_custkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey"),
               _join("customer", "c_nationkey", "nation", "n_nationkey")),
        group_by=(_col("customer", "c_custkey"), _col("customer", "c_name"),
                  _col("customer", "c_acctbal"), _col("nation", "n_name")),
        order_by=(_col("customer", "c_acctbal"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q11(rng: random.Random, name: str) -> SelectQuery:
    """Important stock identification (TPC-H Q11): partsupp value by nation."""
    nation = rng.randrange(25)
    return SelectQuery(
        tables=("partsupp", "supplier", "nation"),
        projections=(_col("partsupp", "ps_partkey"),),
        predicates=(_eq("nation", "n_nationkey", nation, 1.0 / 25.0),),
        joins=(_join("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
               _join("supplier", "s_nationkey", "nation", "n_nationkey")),
        group_by=(_col("partsupp", "ps_partkey"),),
        order_by=(_col("partsupp", "ps_partkey"),),
        aggregates=(_sum("partsupp", "ps_supplycost"),),
        name=name,
    )


def template_q12(rng: random.Random, name: str) -> SelectQuery:
    """Shipping modes and order priority (TPC-H Q12)."""
    mode = rng.randrange(7)
    start = rng.uniform(0, 2100)
    return SelectQuery(
        tables=("orders", "lineitem"),
        predicates=(_eq("lineitem", "l_shipmode", mode, 1.0 / 7.0),
                    _range("lineitem", "l_receiptdate", start, start + 365,
                           rng.uniform(0.12, 0.16))),
        joins=(_join("orders", "o_orderkey", "lineitem", "l_orderkey"),),
        group_by=(_col("lineitem", "l_shipmode"),),
        order_by=(_col("lineitem", "l_shipmode"),),
        aggregates=(_count_star(),),
        name=name,
    )


def template_q14(rng: random.Random, name: str) -> SelectQuery:
    """Promotion effect (TPC-H Q14): part x lineitem over one month."""
    start = rng.uniform(0, 2400)
    return SelectQuery(
        tables=("lineitem", "part"),
        predicates=(_range("lineitem", "l_shipdate", start, start + 30,
                           rng.uniform(0.01, 0.02)),),
        joins=(_join("lineitem", "l_partkey", "part", "p_partkey"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),
                    _sum("lineitem", "l_discount")),
        name=name,
    )


def template_q15(rng: random.Random, name: str) -> SelectQuery:
    """Top supplier (TPC-H Q15): revenue per supplier over a quarter."""
    start = rng.uniform(0, 2300)
    return SelectQuery(
        tables=("lineitem", "supplier"),
        projections=(_col("supplier", "s_name"), _col("supplier", "s_address"),
                     _col("supplier", "s_phone")),
        predicates=(_range("lineitem", "l_shipdate", start, start + 90,
                           rng.uniform(0.03, 0.05)),),
        joins=(_join("lineitem", "l_suppkey", "supplier", "s_suppkey"),),
        group_by=(_col("supplier", "s_suppkey"),),
        order_by=(_col("supplier", "s_suppkey"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


def template_q16(rng: random.Random, name: str) -> SelectQuery:
    """Parts/supplier relationship (TPC-H Q16): partsupp x part with filters."""
    brand = rng.randrange(25)
    sizes = tuple(sorted(rng.sample(range(1, 51), 4)))
    return SelectQuery(
        tables=("partsupp", "part"),
        projections=(_col("part", "p_brand"), _col("part", "p_type"),
                     _col("part", "p_size")),
        predicates=(SimplePredicate(_col("part", "p_brand"),
                                    ComparisonOperator.NE, brand,
                                    selectivity_hint=0.96),
                    SimplePredicate(_col("part", "p_size"),
                                    ComparisonOperator.IN, sizes,
                                    selectivity_hint=4.0 / 50.0)),
        joins=(_join("partsupp", "ps_partkey", "part", "p_partkey"),),
        group_by=(_col("part", "p_brand"), _col("part", "p_type"),
                  _col("part", "p_size")),
        order_by=(_col("part", "p_brand"),),
        aggregates=(_count_star(),),
        name=name,
    )


def template_q18(rng: random.Random, name: str) -> SelectQuery:
    """Large volume customer (TPC-H Q18): customer x orders x lineitem."""
    quantity = rng.uniform(300, 315)
    return SelectQuery(
        tables=("customer", "orders", "lineitem"),
        projections=(_col("customer", "c_name"), _col("orders", "o_orderdate"),
                     _col("orders", "o_totalprice")),
        predicates=(SimplePredicate(_col("lineitem", "l_quantity"),
                                    ComparisonOperator.GT, quantity,
                                    selectivity_hint=rng.uniform(0.005, 0.02)),),
        joins=(_join("customer", "c_custkey", "orders", "o_custkey"),
               _join("orders", "o_orderkey", "lineitem", "l_orderkey")),
        group_by=(_col("customer", "c_name"), _col("orders", "o_orderkey"),
                  _col("orders", "o_orderdate"), _col("orders", "o_totalprice")),
        order_by=(_col("orders", "o_totalprice"), _col("orders", "o_orderdate")),
        aggregates=(_sum("lineitem", "l_quantity"),),
        name=name,
    )


def template_q19(rng: random.Random, name: str) -> SelectQuery:
    """Discounted revenue (TPC-H Q19): part x lineitem with brand/quantity filters."""
    brand = rng.randrange(25)
    low_quantity = rng.uniform(1, 10)
    return SelectQuery(
        tables=("lineitem", "part"),
        predicates=(_eq("part", "p_brand", brand, 1.0 / 25.0),
                    _range("part", "p_size", 1, rng.randrange(5, 15), 0.2),
                    _range("lineitem", "l_quantity", low_quantity,
                           low_quantity + 10, rng.uniform(0.18, 0.22))),
        joins=(_join("lineitem", "l_partkey", "part", "p_partkey"),),
        aggregates=(_sum("lineitem", "l_extendedprice"),),
        name=name,
    )


# ----------------------------------------------------------------------- updates
def template_update_lineitem(rng: random.Random, name: str) -> UpdateQuery:
    """Adjust discounts of recently shipped line items."""
    start = rng.uniform(2300, 2500)
    return UpdateQuery(
        table="lineitem",
        set_columns=(_col("lineitem", "l_discount"),),
        predicates=(_range("lineitem", "l_shipdate", start, start + 14,
                           rng.uniform(0.003, 0.01)),),
        name=name,
    )


def template_update_orders(rng: random.Random, name: str) -> UpdateQuery:
    """Mark an order-date slice of orders with a new status."""
    start = rng.uniform(2300, 2400)
    return UpdateQuery(
        table="orders",
        set_columns=(_col("orders", "o_orderstatus"),),
        predicates=(_range("orders", "o_orderdate", start, start + 7,
                           rng.uniform(0.002, 0.006)),),
        name=name,
    )


def template_update_customer(rng: random.Random, name: str) -> UpdateQuery:
    """Refresh the account balance of a market segment's customers."""
    segment = rng.randrange(5)
    return UpdateQuery(
        table="customer",
        set_columns=(_col("customer", "c_acctbal"),),
        predicates=(_eq("customer", "c_mktsegment", segment, 0.2),
                    _ge("customer", "c_acctbal", rng.uniform(9000, 9900),
                        rng.uniform(0.005, 0.02))),
        name=name,
    )


def template_update_partsupp(rng: random.Random, name: str) -> UpdateQuery:
    """Restock: bump availability for low-stock part/supplier pairs."""
    return UpdateQuery(
        table="partsupp",
        set_columns=(_col("partsupp", "ps_availqty"),),
        predicates=(_le("partsupp", "ps_availqty", rng.uniform(10, 100),
                        rng.uniform(0.005, 0.02)),),
        name=name,
    )


TemplateFunction = Callable[[random.Random, str], Query]

#: The fifteen SELECT templates of ``W_hom``, keyed by template id.
SELECT_TEMPLATES: dict[str, TemplateFunction] = {
    "Q1": template_q1,
    "Q3": template_q3,
    "Q4": template_q4,
    "Q5": template_q5,
    "Q6": template_q6,
    "Q7": template_q7,
    "Q8": template_q8,
    "Q10": template_q10,
    "Q11": template_q11,
    "Q12": template_q12,
    "Q14": template_q14,
    "Q15": template_q15,
    "Q16": template_q16,
    "Q18": template_q18,
    "Q19": template_q19,
}

#: Update templates mixed into workloads when an update fraction is requested.
UPDATE_TEMPLATES: dict[str, TemplateFunction] = {
    "U_lineitem": template_update_lineitem,
    "U_orders": template_update_orders,
    "U_customer": template_update_customer,
    "U_partsupp": template_update_partsupp,
}


def instantiate_template(template_id: str, rng: random.Random,
                         instance: int) -> Query:
    """Instantiate a named template with fresh random parameters.

    Args:
        template_id: A key of :data:`SELECT_TEMPLATES` or :data:`UPDATE_TEMPLATES`.
        rng: Seeded random generator controlling the constants.
        instance: Instance counter appended to the statement name.
    """
    name = f"{template_id}#{instance}"
    if template_id in SELECT_TEMPLATES:
        return SELECT_TEMPLATES[template_id](rng, name)
    if template_id in UPDATE_TEMPLATES:
        return UPDATE_TEMPLATES[template_id](rng, name)
    raise KeyError(f"Unknown template {template_id!r}")
