"""Support pre-check — pipeline stage 1.

A pre-check inspects the bound query *before* any memo memory is
charged and rejects shapes the later stages cannot handle.  It is the
pipeline's cheap guard: pure tree walk, no steps emitted, no simulated
allocation — which is what keeps the default pre-check byte-invisible
in artifacts.  ``BasicPreCheck`` (``basic``) is the one strategy.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.plans import logical as lg
from repro.sql.binder import BoundQuery

#: the logical operators the stat-derivation and implementation rules
#: understand; anything else would fail mid-search with memory already
#: charged to the task
SUPPORTED_NODES = (lg.LogicalGet, lg.LogicalJoin, lg.LogicalFilter,
                   lg.LogicalAggregate, lg.LogicalProject, lg.LogicalSort)


class BasicPreCheck:
    """Reject bound trees containing unsupported logical operators."""

    __slots__ = ()

    name = "basic"

    def check(self, bound: BoundQuery) -> None:
        stack = [bound.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, SUPPORTED_NODES):
                raise SimulationError(
                    f"optimizer pre-check: unsupported logical "
                    f"operator {type(node).__name__}")
            stack.extend(node.children)
