"""Compiled expression functions for operator-level tests.

Operators take the functions the planner's expression generator builds, so
operator tests build theirs the same way instead of hand-writing lambdas.
Single-input expressions read columns ``t.c0 .. t.c7``; join predicates
read ``l.c<i>`` from the left input and ``r.c<i>`` from the right.
"""

from repro.engine.expr import Scope, compile_expr
from repro.engine.sql import parse_statement

WIDTH = 8


def parse(text):
    return parse_statement(f"SELECT {text}").items[0].expr


def _single():
    return Scope([("t", f"c{i}") for i in range(WIDTH)])


def _joined(left_width, right_width):
    return Scope([("l", f"c{i}") for i in range(left_width)]
                 + [("r", f"c{i}") for i in range(right_width)])


def col(i):
    """The batch function of column *i*."""
    return batch(f"t.c{i}")


def batch(text):
    return compile_expr(parse(text), _single(), spelling="batch")


def selection(text):
    return compile_expr(parse(text), _single(), spelling="selection")


def joined(text, left_width, right_width):
    """A scalar predicate over the concatenated row (nested-loop joins)."""
    return compile_expr(parse(text), _joined(left_width, right_width))


def pair(text, left_width, right_width, build_side="right"):
    """A hash-join residual for *build_side*."""
    return compile_expr(
        parse(text), _joined(left_width, right_width), spelling="pair",
        left_width=left_width, build_left=build_side == "left",
    )
