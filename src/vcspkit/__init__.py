"""Exact toolkit for triangle-classified binary VCSPs and cross-free convex
count-cost instances."""

__version__ = "0.1.0"

from .costs import Cost, INF, ZERO
from .instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
    evaluate_binary,
    evaluate_count,
)
from .formats import parse_instance, serialize_instance
from .results import SolveResult

__all__ = [
    "AssignmentSet",
    "BinaryInstance",
    "Cost",
    "CountFunction",
    "CountInstance",
    "INF",
    "SolveResult",
    "ZERO",
    "evaluate_binary",
    "evaluate_count",
    "parse_instance",
    "serialize_instance",
]
