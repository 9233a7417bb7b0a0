"""The compilation governor: the monitor ladder plus its policy.

The governor owns the gateways, decides from a task's allocated bytes
which monitors it must hold, and (extension (a)) recomputes the
medium/big thresholds from the broker's compilation-memory target:

    threshold_i = target * F_{i-1} / S_{i-1}

where ``F`` is the fraction of the target allotted to the category
below and ``S`` is the number of compilations currently in it — so when
small compilations collectively exceed their share, "the top memory
consumers are forced to upgrade to the medium category" (paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import ThrottleConfig
from repro.sim import Environment, Request
from repro.throttle.gateway import Gateway


@dataclass
class ThrottleTicket:
    """Per-compilation record of monitors held (in acquisition order)."""

    label: str = ""
    held: List[Request] = field(default_factory=list)

    @property
    def level(self) -> int:
        """How many monitors this compilation currently holds."""
        return len(self.held)


class CompilationGovernor:
    """Admission control for concurrent query compilations.

    One :class:`~repro.throttle.gateway.Gateway` per configured monitor,
    smallest first; each counts its acquires, timeouts and waits in its
    own :class:`~repro.throttle.gateway.GatewayStats`.
    """

    def __init__(self, env: Environment, config: ThrottleConfig, cpus: int):
        self.env = env
        self.config = config
        self.enabled = config.enabled
        self.gateways: List[Gateway] = [
            Gateway(env, g.name, g.capacity(cpus), g.timeout)
            for g in config.gateways
        ]
        #: static thresholds from configuration (bytes, increasing)
        self.static_thresholds = [g.threshold for g in config.gateways]
        #: effective thresholds (replaced when dynamic ones are active)
        self.thresholds = list(self.static_thresholds)
        #: last compilation-memory target received from the broker
        self.compile_target: Optional[int] = None
        #: lifetime count of threshold recomputations (diagnostics)
        self.recomputations = 0

    # -- category census -----------------------------------------------------
    def census(self) -> List[int]:
        """Number of compilations whose *highest* monitor is level i.

        Index 0 counts small-category compilations (holding the small
        monitor only), etc.  Compilations below the first threshold are
        not tracked — they run unthrottled.
        """
        counts = []
        for i, gateway in enumerate(self.gateways):
            above = (self.gateways[i + 1].active
                     if i + 1 < len(self.gateways) else 0)
            counts.append(max(0, gateway.active - above))
        return counts

    # -- dynamic thresholds (extension a) --------------------------------------
    def set_compile_target(self, target: Optional[int]) -> None:
        """Broker notification: recompute thresholds from ``target``.

        ``None`` (no memory pressure) restores the static ladder.
        """
        self.compile_target = target
        if target is None or not self.config.dynamic_thresholds:
            self.thresholds = list(self.static_thresholds)
            return
        self.recomputations += 1
        census = self.census()
        fractions = (self.config.small_fraction,
                     self.config.medium_fraction)
        thresholds = [self.static_thresholds[0]]
        for level in range(1, len(self.gateways)):
            fraction = fractions[min(level - 1, len(fractions) - 1)]
            population = max(1, census[level - 1])
            dynamic = int(target * fraction / population)
            floor = self.config.min_dynamic_threshold
            prior = thresholds[level - 1]
            # keep the ladder increasing and never below the floor,
            # never above the static threshold (dynamic only tightens)
            value = max(floor, prior + 1,
                        min(dynamic, self.static_thresholds[level]))
            thresholds.append(value)
        self.thresholds = thresholds

    # -- admission --------------------------------------------------------------
    def required_level(self, nbytes: int) -> int:
        """How many monitors a task using ``nbytes`` must hold."""
        level = 0
        for threshold in self.thresholds:
            if nbytes > threshold:
                level += 1
            else:
                break
        return level

    def ensure(self, ticket: ThrottleTicket, nbytes: int):
        """Process generator: acquire any monitors newly required by a
        task whose allocation has grown to ``nbytes``.

        Monitors are acquired strictly in ladder order.  Raises
        :class:`~repro.errors.GatewayTimeoutError` if a wait exceeds
        the monitor's timeout; the caller is responsible for releasing
        the ticket (monitors already held stay held until then).
        """
        if not self.enabled:
            return
        needed = self.required_level(nbytes)
        while ticket.level < needed:
            gateway = self.gateways[ticket.level]
            request = yield from gateway.acquire()
            ticket.held.append(request)

    def release(self, ticket: ThrottleTicket) -> None:
        """Release all held monitors in reverse acquisition order."""
        while ticket.held:
            request = ticket.held.pop()
            level = len(ticket.held)
            self.gateways[level].release(request)

    # -- reporting ----------------------------------------------------------------
    def describe(self) -> str:
        """Figure 1-style rendering of the monitor ladder."""
        from repro.units import format_bytes

        lines = ["compilation memory monitors:"]
        for gateway, threshold in zip(self.gateways, self.thresholds):
            lines.append(
                f"  >{format_bytes(threshold):>10}  {gateway.name:<7}"
                f" limit={gateway.capacity:<3} timeout={gateway.timeout:.0f}s"
                f" active={gateway.active} waiting={gateway.waiting}")
        return "\n".join(lines)
