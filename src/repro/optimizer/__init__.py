"""A Cascades-style query optimizer, staged as a pluggable pipeline.

The optimizer is the paper's memory consumer of interest: it "considers
a number of functionally equivalent alternatives … this entire process
uses memory to store the different alternatives for the duration of the
optimization process" (§2.1).  Here that is literal — alternatives live
in a :class:`~repro.optimizer.memo.Memo`, whose footprint grows with
every transformation-rule application, and the compilation pipeline
charges that footprint to the task's memory account, which is what the
throttling gateways observe.

Search runs through an explicit four-stage
:class:`~repro.optimizer.pipeline.OptimizerPipeline` (support
pre-check → join enumeration → physical operator selection → plan
parameterization) with one strategy per stage; the join enumerator
is the one interchangeable stage, selected by an
:class:`~repro.optimizer.spec.OptimizerSpec`.  The default
pipeline is the paper's dynamic optimization (§5.1): a cheap heuristic
plan first (always available as the best-plan-so-far fallback), then
exploration rounds whose budget scales with the estimated cost of the
query.
"""

from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.memo import Memo, Group, GroupExpression
from repro.optimizer.optimizer import OptimizationResult, Optimizer, OptStep
from repro.optimizer.pipeline import OptimizerPipeline
from repro.optimizer.spec import (ENUMERATOR_NAMES, OptimizerSpec,
                                  PARAMETERIZATION_NAMES, PRECHECK_NAMES,
                                  SELECTION_NAMES)

__all__ = [
    "CardinalityEstimator",
    "CostModel",
    "ENUMERATOR_NAMES",
    "Group",
    "GroupExpression",
    "Memo",
    "OptimizationResult",
    "Optimizer",
    "OptimizerPipeline",
    "OptimizerSpec",
    "OptStep",
    "PARAMETERIZATION_NAMES",
    "PRECHECK_NAMES",
    "SELECTION_NAMES",
]
