"""Result-table utilities every registered experiment renders with."""

from .reporting import ResultTable, format_quantity

__all__ = ["ResultTable", "format_quantity"]
