"""Plan parameterization — pipeline stage 4.

The final stage turns the search's best candidate into the task's
:class:`~repro.optimizer.optimizer.OptimizationResult`.  It runs after
the last enumerator step, so whatever it does is invisible to the
memory gateways — it shapes the *plan* the executor receives, not the
optimization-time footprint.

``EstimatesParameterization`` (``estimates``) passes the winner
through untouched — the pre-pipeline behaviour and the one strategy.
"""

from __future__ import annotations

from repro.errors import SimulationError


class EstimatesParameterization:
    """Adopt the search winner's estimates unchanged."""

    __slots__ = ()

    name = "estimates"

    def finalize(self, task):
        if task._best is None:
            raise SimulationError("optimization finished without a plan")
        return task._best
