"""Predicate expressions evaluable against columnar tables.

A tiny expression AST — columns, constants, comparisons and their
conjunction — enough to express the selection predicates
Farview offloads ("``key < 42 AND val0 >= 0.5``").  Expressions
evaluate vectorised over a :class:`~repro.relational.table.Table` and
report an operation count used by the cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .table import Table

__all__ = ["BinOp", "Col", "Const", "Expr", "col"]

_OPERATORS = {"<", "<=", ">", ">=", "==", "!=", "and"}


class Expr:
    """Base class of all expressions."""

    def evaluate(self, table: Table) -> np.ndarray:  # pragma: no cover
        """Vectorised evaluation over a table."""
        raise NotImplementedError

    def op_count(self) -> int:  # pragma: no cover
        """Element operations per row (for cost models)."""
        raise NotImplementedError

    def columns_used(self) -> set[str]:  # pragma: no cover
        """Names of referenced columns."""
        raise NotImplementedError

    # -- operator sugar -----------------------------------------------------

    def _bin(self, op: str, other: Any) -> "BinOp":
        rhs = other if isinstance(other, Expr) else Const(other)
        return BinOp(op, self, rhs)

    def __lt__(self, other: Any) -> "BinOp":
        return self._bin("<", other)

    def __le__(self, other: Any) -> "BinOp":
        return self._bin("<=", other)

    def __gt__(self, other: Any) -> "BinOp":
        return self._bin(">", other)

    def __ge__(self, other: Any) -> "BinOp":
        return self._bin(">=", other)

    def __eq__(self, other: Any) -> "BinOp":  # type: ignore[override]
        return self._bin("==", other)

    def __ne__(self, other: Any) -> "BinOp":  # type: ignore[override]
        return self._bin("!=", other)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other: "Expr") -> "BinOp":
        return BinOp("and", self, other)


@dataclass(frozen=True, eq=False)
class Col(Expr):
    """A column reference."""

    name: str

    def evaluate(self, table: Table) -> np.ndarray:
        return table.column(self.name)

    def op_count(self) -> int:
        return 0

    def columns_used(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """A literal constant."""

    value: Any

    def evaluate(self, table: Table) -> np.ndarray:
        return np.asarray(self.value)

    def op_count(self) -> int:
        return 0

    def columns_used(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    """A binary operation: a comparison or ``and``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"unsupported operator {self.op!r}")

    def evaluate(self, table: Table) -> np.ndarray:
        lhs = self.left.evaluate(table)
        rhs = self.right.evaluate(table)
        match self.op:
            case "<":
                return lhs < rhs
            case "<=":
                return lhs <= rhs
            case ">":
                return lhs > rhs
            case ">=":
                return lhs >= rhs
            case "==":
                return lhs == rhs
            case "!=":
                return lhs != rhs
            case "and":
                return np.logical_and(lhs, rhs)
        raise AssertionError("unreachable")

    def op_count(self) -> int:
        return 1 + self.left.op_count() + self.right.op_count()

    def columns_used(self) -> set[str]:
        return self.left.columns_used() | self.right.columns_used()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def col(name: str) -> Col:
    """Shorthand column reference."""
    return Col(name)

