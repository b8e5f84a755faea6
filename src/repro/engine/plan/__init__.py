"""Query planning and execution: logical IR, rewrites, operators, planner."""

from .logical import (
    LogicalDerived,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProduct,
    LogicalQuery,
    LogicalScan,
    LogicalValues,
    build_logical,
)
from .operators import NodeMetrics
from .planner import Planner, PlannedQuery
from .rewrite import ALL_RULES, rewrite_logical

__all__ = [
    "ALL_RULES",
    "LogicalDerived",
    "LogicalFilter",
    "LogicalJoin",
    "LogicalNode",
    "LogicalProduct",
    "LogicalQuery",
    "LogicalScan",
    "LogicalValues",
    "NodeMetrics",
    "PlannedQuery",
    "Planner",
    "build_logical",
    "rewrite_logical",
]
