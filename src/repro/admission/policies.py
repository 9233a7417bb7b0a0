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
* :class:`TenantQuotaPolicy` — FIFO with per-tenant queue limits and
  per-tenant in-flight caps; a capped tenant's queued claims are
  skipped, never head-of-line blockers.
* :class:`TokenBucketPolicy` — rate-based: each admission consumes a
  token, tokens refill at ``rate`` per paper second up to ``burst``;
  an arrival finding the bucket empty is dropped on arrival.

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

    __slots__ = ("policy", "tenant", "granted", "tag", "seq")

    def __init__(self, policy, tenant: str):
        super().__init__(policy.env)
        self.policy = policy
        self.tenant = tenant
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


class _QueuedPolicy:
    """Shared queue/grant mechanics for the policy-owned queues."""

    def __init__(self, env, capacity: int, queue_limit: int):
        self.env = env
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.users: List[Claim] = []
        self.queue: List[Claim] = []

    @property
    def count(self) -> int:
        return len(self.users)

    @property
    def queued(self) -> int:
        return len(self.queue)

    def cancel(self, claim: Claim) -> None:
        try:
            self.queue.remove(claim)
        except ValueError:
            pass

    def release(self, claim: Claim) -> None:
        if claim.granted:
            self.users.remove(claim)
            claim.granted = False
            self._on_release(claim)
            self._grant()
        else:
            self.cancel(claim)

    def _on_release(self, claim: Claim) -> None:
        pass

    def _grant(self) -> None:
        raise NotImplementedError


class WeightedFairPolicy(_QueuedPolicy):
    """Start-time fair queuing over per-tenant weights."""

    name = "weighted_fair"

    def __init__(self, env, capacity: int, queue_limit: int,
                 weights: Dict[str, float]):
        super().__init__(env, capacity, queue_limit)
        self.weights = dict(weights)
        self._virtual = 0.0
        self._finish: Dict[str, float] = {}
        self._seq = 0

    def would_drop(self, tenant: str) -> bool:
        return (len(self.users) >= self.capacity
                and len(self.queue) >= self.queue_limit)

    def request(self, tenant: str) -> Claim:
        claim = Claim(self, tenant)
        weight = float(self.weights.get(tenant, 1.0))
        start = max(self._virtual, self._finish.get(tenant, 0.0))
        self._finish[tenant] = start + 1.0 / weight
        claim.tag = start
        claim.seq = self._seq
        self._seq += 1
        self.queue.append(claim)
        self._grant()
        return claim

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


class TenantQuotaPolicy(_QueuedPolicy):
    """FIFO with per-tenant queue limits and in-flight caps."""

    name = "tenant_quota"

    def __init__(self, env, capacity: int, queue_limit: int,
                 queue_limits: Dict[str, int],
                 max_in_flight: Dict[str, int]):
        super().__init__(env, capacity, queue_limit)
        self.queue_limits = dict(queue_limits)
        self.max_in_flight = dict(max_in_flight)
        self._queued: Dict[str, int] = {}
        self._in_flight: Dict[str, int] = {}

    def _can_grant(self, tenant: str) -> bool:
        if len(self.users) >= self.capacity:
            return False
        cap = self.max_in_flight.get(tenant)
        return cap is None or self._in_flight.get(tenant, 0) < cap

    def would_drop(self, tenant: str) -> bool:
        if self._can_grant(tenant):
            return False
        if len(self.queue) >= self.queue_limit:
            return True
        limit = self.queue_limits.get(tenant)
        return (limit is not None
                and self._queued.get(tenant, 0) >= limit)

    def request(self, tenant: str) -> Claim:
        claim = Claim(self, tenant)
        self.queue.append(claim)
        self._queued[tenant] = self._queued.get(tenant, 0) + 1
        self._grant()
        return claim

    def cancel(self, claim: Claim) -> None:
        if claim in self.queue:
            self._queued[claim.tenant] -= 1
        super().cancel(claim)

    def _on_release(self, claim: Claim) -> None:
        self._in_flight[claim.tenant] -= 1

    def _grant(self) -> None:
        # grant the oldest claim whose tenant is under its cap; a
        # capped tenant is skipped (work-conserving), and each grant
        # rescans because it may unblock nothing further
        progressed = True
        while progressed and len(self.users) < self.capacity:
            progressed = False
            for claim in self.queue:
                if not self._can_grant(claim.tenant):
                    continue
                self.queue.remove(claim)
                self._queued[claim.tenant] -= 1
                self._in_flight[claim.tenant] = \
                    self._in_flight.get(claim.tenant, 0) + 1
                claim.granted = True
                self.users.append(claim)
                claim.succeed(self)
                progressed = True
                break


class TokenBucketPolicy:
    """Rate-based admission: no token, no entry.

    Arrivals that find a token proceed through the same FIFO slot
    queue as :class:`FifoPolicy`; arrivals that do not are dropped on
    arrival regardless of queue depth.  The bucket refills lazily from
    the sim clock — ``rate`` is authored in tokens per paper second
    and rescaled onto the sim clock at construction.
    """

    name = "token_bucket"

    def __init__(self, env, capacity: int, queue_limit: int,
                 rate: float, burst: float, time_scale: float = 1.0):
        self.env = env
        self.queue_limit = queue_limit
        self.slots = Resource(env, capacity=capacity)
        # paper seconds elapse time_scale times faster than sim seconds
        self._rate = rate * time_scale
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    @property
    def count(self) -> int:
        return self.slots.count

    @property
    def queued(self) -> int:
        return self.slots.queued

    def _refill(self) -> None:
        now = self.env.now
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last)
                              * self._rate)
            self._last = now

    def would_drop(self, tenant: str) -> bool:
        self._refill()
        if self.tokens < 1.0:
            return True
        return (self.slots.count >= self.slots.capacity
                and self.slots.queued >= self.queue_limit)

    def request(self, tenant: str):
        self._refill()
        self.tokens -= 1.0
        return self.slots.request()

    def cancel(self, request) -> None:
        self.slots.cancel(request)

    def release(self, request) -> None:
        self.slots.release(request)


def make_policy(spec, env, capacity: int, queue_limit: int,
                time_scale: float = 1.0):
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
    if spec.policy == "tenant_quota":
        return TenantQuotaPolicy(env, capacity, queue_limit,
                                 spec.queue_limits_dict(),
                                 spec.max_in_flight_dict())
    if spec.policy == "token_bucket":
        burst = spec.burst if spec.burst is not None else 1.0
        return TokenBucketPolicy(env, capacity, queue_limit,
                                 spec.rate, burst, time_scale)
    raise AssertionError(f"unreachable policy {spec.policy!r}")
