"""The performance model (paper §4.4, Figure 17)."""

from .costs import DEFAULT_COSTS, CostModel
from .execution import CostBreakdown, estimate_cost
from .tables import CostTables

__all__ = [
    "CostBreakdown", "CostModel", "CostTables", "DEFAULT_COSTS",
    "estimate_cost",
]
