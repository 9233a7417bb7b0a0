"""Admission policies: pluggable arbiters for the open-loop slots.

The :class:`~repro.traffic.openloop.OpenLoopGenerator` used to grab
slots straight from a FIFO :class:`~repro.sim.resources.Resource`;
every policy here presents that same three-verb surface —
``request`` / ``cancel`` / ``release`` plus the drop-on-arrival
predicate ``would_drop`` — so the generator's admission loop is
policy-agnostic and the default :class:`FifoPolicy` is **byte-identical
to the old inline code** (it delegates to the very same ``Resource``).

* :class:`FifoPolicy` — arrival order, one global queue limit.
* :class:`WeightedFairPolicy` — start-time fair queuing over
  per-tenant weights: each claim is tagged
  ``S = max(V, finish[tenant])`` where ``V`` is the start tag of the
  last granted claim, ``finish[tenant]`` advances by ``1/weight``, and
  grants go to the smallest ``(tag, seq)``.  Work-conserving: an idle
  tenant's share redistributes because grants never wait for it.
  All-unit weights carry no differentiation, so construction
  short-circuits to :class:`FifoPolicy` — pinned by test.

Determinism: policies react only to the generator's calls and the sim
clock, never to wall time or hash order, so every decision is a pure
function of (spec, seed).
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.events import Event
from repro.sim.resources import Resource


class Claim(Event):
    """A pending claim on one admission slot (policy-owned analogue of
    :class:`~repro.sim.resources.Request`)."""

    __slots__ = ("granted", "tag", "seq")

    def __init__(self, env):
        super().__init__(env)
        #: set True once the slot has been granted
        self.granted = False
        self.tag = 0.0
        self.seq = 0


class FifoPolicy:
    """Arrival-order admission — the pinned default.

    Wraps the same FIFO :class:`Resource` the generator used inline,
    with the same drop predicate, so a ``fifo`` (or absent) admission
    spec reproduces pre-policy artifacts byte for byte.
    """

    name = "fifo"

    def __init__(self, env, capacity: int, queue_limit: int):
        self.env = env
        self.queue_limit = queue_limit
        self.slots = Resource(env, capacity=capacity)

    @property
    def count(self) -> int:
        return self.slots.count

    @property
    def queued(self) -> int:
        return self.slots.queued

    def would_drop(self, tenant: str) -> bool:
        return (self.slots.count >= self.slots.capacity
                and self.slots.queued >= self.queue_limit)

    def request(self, tenant: str):
        return self.slots.request()

    def cancel(self, request) -> None:
        self.slots.cancel(request)

    def release(self, request) -> None:
        self.slots.release(request)


class WeightedFairPolicy:
    """Start-time fair queuing over per-tenant weights."""

    name = "weighted_fair"

    def __init__(self, env, capacity: int, queue_limit: int,
                 weights: Dict[str, float]):
        self.env = env
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.users: List[Claim] = []
        self.queue: List[Claim] = []
        self.weights = dict(weights)
        self._virtual = 0.0
        self._finish: Dict[str, float] = {}
        self._seq = 0

    @property
    def count(self) -> int:
        return len(self.users)

    @property
    def queued(self) -> int:
        return len(self.queue)

    def would_drop(self, tenant: str) -> bool:
        return (len(self.users) >= self.capacity
                and len(self.queue) >= self.queue_limit)

    def request(self, tenant: str) -> Claim:
        claim = Claim(self.env)
        weight = float(self.weights.get(tenant, 1.0))
        start = max(self._virtual, self._finish.get(tenant, 0.0))
        self._finish[tenant] = start + 1.0 / weight
        claim.tag = start
        claim.seq = self._seq
        self._seq += 1
        self.queue.append(claim)
        self._grant()
        return claim

    def cancel(self, claim: Claim) -> None:
        try:
            self.queue.remove(claim)
        except ValueError:
            pass

    def release(self, claim: Claim) -> None:
        if claim.granted:
            self.users.remove(claim)
            claim.granted = False
            self._grant()
        else:
            self.cancel(claim)

    def _grant(self) -> None:
        # queues are bounded by queue_limit, so a min-scan beats heap
        # bookkeeping under cancellation
        while self.queue and len(self.users) < self.capacity:
            best = min(self.queue, key=lambda c: (c.tag, c.seq))
            self.queue.remove(best)
            self._virtual = best.tag
            best.granted = True
            self.users.append(best)
            best.succeed(self)


def make_policy(spec, env, capacity: int, queue_limit: int):
    """Instantiate the policy an :class:`AdmissionSpec` describes
    (``None`` = the pinned FIFO default)."""
    if spec is None or spec.policy == "fifo":
        return FifoPolicy(env, capacity, queue_limit)
    if spec.policy == "weighted_fair":
        weights = spec.weights_dict()
        if all(weight == 1.0 for weight in weights.values()):
            # no differentiation to enforce: degenerate to FIFO so
            # equal-weight specs stay byte-identical to `fifo` (pinned)
            return FifoPolicy(env, capacity, queue_limit)
        return WeightedFairPolicy(env, capacity, queue_limit, weights)
    raise AssertionError(f"unreachable policy {spec.policy!r}")
