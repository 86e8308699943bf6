"""Solve results shared by the solvers, the oracles and the CLI."""

from __future__ import annotations

from typing import Optional, Tuple

from .costs import Cost, format_cost
from .errors import InternalError
from .formats import SOLUTION_FORMAT
from .frozen import Frozen


class SolveResult(Frozen):
    """An optimal assignment with its exact cost and provenance notes.

    ``assignment`` and ``cost`` are None only for an explicit "not solved"
    outcome (dispatch fell through every route); ``certificate`` carries
    solver-specific audit data such as the matching used, a new empty dict
    when not given.
    """

    __slots__ = _fields = ("assignment", "cost", "solver", "certificate", "verdicts")

    def __init__(
        self,
        assignment: Optional[Tuple[int, ...]],
        cost: Optional[Cost],
        solver: str,
        certificate: Optional[dict] = None,
        verdicts: Tuple[dict, ...] = (),
    ):
        Frozen.__init__(
            self, assignment, cost, solver, {} if certificate is None else certificate, verdicts
        )

    @property
    def solved(self) -> bool:
        return self.assignment is not None

    def to_doc(self) -> dict:
        doc = {
            "format": SOLUTION_FORMAT,
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "cost": format_cost(self.cost) if self.cost is not None else None,
            "solver": self.solver,
        }
        if not self.solved:
            doc["status"] = "unsolved"
        if self.verdicts:
            doc["verdicts"] = list(self.verdicts)
        doc["certificate"] = self.certificate
        return doc


def re_evaluated(inst, res: SolveResult, evaluate) -> SolveResult:
    """``res``, once ``evaluate(inst, res.assignment)``, the objective read
    from the instance's ``Cost`` tables, gives the cost it reports."""
    got = evaluate(inst, res.assignment)
    if got != res.cost:
        raise InternalError(
            f"internal check failed: assignment evaluates to {got}, solver reported {res.cost}"
        )
    return res
