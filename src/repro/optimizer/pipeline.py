"""The four-stage optimizer pipeline.

In the style of PostBOUND's ``OptimizationPipeline``, an
:class:`OptimizerPipeline` binds one strategy to each stage:

    support pre-check -> join enumeration -> physical operator
    selection -> plan parameterization

Strategies are stateless singletons resolved by name from the
registries below; an :class:`~repro.optimizer.spec.OptimizerSpec`
(already validated against the same name tuples) selects them.  The
default pipeline — ``basic`` / ``memo`` / ``cost`` / ``estimates`` —
is pinned byte-identical to the pre-pipeline monolithic optimizer by
``tests/test_optimizer_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.enumeration import MemoEnumerator, UesEnumerator
from repro.optimizer.parameterization import EstimatesParameterization
from repro.optimizer.precheck import BasicPreCheck
from repro.optimizer.selection import CostBasedSelection
from repro.optimizer.spec import OptimizerSpec

#: stage registries, keyed by the names ``OptimizerSpec`` validates
PRECHECKS = {"basic": BasicPreCheck}
ENUMERATORS = {"memo": MemoEnumerator, "ues": UesEnumerator}
SELECTIONS = {"cost": CostBasedSelection}
PARAMETERIZATIONS = {"estimates": EstimatesParameterization}

#: the byte-identical-to-the-monolith default
DEFAULT_SPEC = OptimizerSpec()


class OptimizerPipeline:
    """One resolved strategy per stage, shared across a server's tasks."""

    __slots__ = ("spec", "precheck", "enumerator", "selection",
                 "parameterization")

    def __init__(self, spec: Optional[OptimizerSpec] = None):
        self.spec = spec or DEFAULT_SPEC
        self.precheck = PRECHECKS[self.spec.precheck]()
        self.enumerator = ENUMERATORS[self.spec.enumerator]()
        self.selection = SELECTIONS[self.spec.selection]()
        self.parameterization = \
            PARAMETERIZATIONS[self.spec.parameterization]()
