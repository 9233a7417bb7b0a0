"""The declarative traffic axis: how sessions arrive at the server.

A :class:`TrafficSpec` rides on a
:class:`~repro.scenarios.spec.ScenarioSpec` (and on
:class:`~repro.experiments.runner.ExperimentConfig`) and switches an
experiment from the default closed-loop think-time clients to
**open-loop admission**: sessions arrive on a schedule — either a
synthetic :mod:`arrival process <repro.traffic.arrivals>` or a replayed
:mod:`trace <repro.traffic.trace>` — and queue or drop when admission
saturates.  ``None`` (the default everywhere) means closed-loop, which
is what keeps every pre-existing scenario byte-identical.

Like the rest of the spec layer it is frozen, structurally comparable
and JSON round-trippable; nested parameter documents are canonicalized
to sorted tuples so specs stay hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.specdoc import SpecDocument, freeze, sorted_pairs, thaw

#: the trace-transform fields: only meaningful when replaying a trace
_TRACE_ONLY = ("window", "tenants", "remap", "tolerate_tail")


@dataclass(frozen=True)
class TrafficSpec(SpecDocument, what="traffic"):
    """One fully-described open-loop traffic shape.

    Exactly one of ``arrivals`` (a registered arrival-process name) or
    ``trace`` (a CSV/JSONL query-log path) must be set.  The transform
    fields (``window`` / ``tenants`` / ``rate_scale`` / ``remap``)
    compose over a trace stream; ``rate_scale`` also rescales synthetic
    arrivals.  ``max_sessions`` caps concurrently admitted sessions
    (``None`` = the experiment's client count), ``queue_limit`` bounds
    the admission queue and ``queue_timeout`` (paper seconds) bounds
    how long a queued session waits before it is dropped.
    """

    #: arrival-process name (see ``repro.traffic.arrivals``)
    arrivals: Optional[str] = None
    #: arrival-process parameters, deep-frozen to sorted pairs
    params: Tuple[Tuple[str, object], ...] = ()
    #: path to a timestamped query log (.jsonl/.ndjson/.csv)
    trace: Optional[str] = None
    #: skip a truncated trailing trace line instead of raising
    tolerate_tail: bool = False
    #: [start, end) slice of trace time, rebased to start at 0
    window: Optional[Tuple[float, float]] = None
    #: keep only these tenants of a trace
    tenants: Optional[Tuple[str, ...]] = None
    #: template renames applied to trace events, as sorted pairs
    remap: Tuple[Tuple[str, str], ...] = ()
    #: >1 compresses gaps (more load), <1 stretches them
    rate_scale: float = 1.0
    #: concurrent-session admission cap (None = experiment clients)
    max_sessions: Optional[int] = None
    #: sessions allowed to wait for admission before drops start
    queue_limit: int = 64
    #: longest admission wait before a queued session is dropped
    queue_timeout: float = 120.0

    def __post_init__(self):
        object.__setattr__(self, "params",
                           sorted_pairs(self.params, freeze))
        if self.window is not None:
            window = tuple(self.window)
            if len(window) != 2:
                raise ConfigurationError(
                    f"traffic window must be [start, end], got "
                    f"{list(window)!r}")
            object.__setattr__(
                self, "window", (float(window[0]), float(window[1])))
        if self.tenants is not None:
            object.__setattr__(self, "tenants",
                               tuple(str(t) for t in self.tenants))
        object.__setattr__(self, "remap", sorted_pairs(self.remap, str))
        self._validate()

    def _validate(self) -> None:
        if (self.arrivals is None) == (self.trace is None):
            raise ConfigurationError(
                "traffic needs exactly one source: an 'arrivals' "
                "process name or a 'trace' file path")
        if self.arrivals is not None:
            # instantiating the factory validates name and parameters
            # at definition time, not after an expensive run
            self.build_arrivals()
        if self.trace is not None and not self.trace:
            raise ConfigurationError("traffic trace path must be non-empty")
        if self.trace is not None and self.params:
            raise ConfigurationError(
                "traffic field 'params' parameterizes an arrival "
                "process; it does not apply to a trace replay")
        if self.arrivals is not None:
            for name in _TRACE_ONLY:
                value = getattr(self, name)
                if value not in (None, (), False):
                    raise ConfigurationError(
                        f"traffic field {name!r} transforms a trace; it "
                        f"does not apply to the {self.arrivals!r} "
                        f"arrival process")
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ConfigurationError(
                f"traffic window start must be before its end, got "
                f"{list(self.window)!r}")
        if not isinstance(self.rate_scale, (int, float)) \
                or isinstance(self.rate_scale, bool) \
                or self.rate_scale <= 0:
            raise ConfigurationError(
                f"traffic rate_scale must be positive, got "
                f"{self.rate_scale!r}")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ConfigurationError("traffic max_sessions must be >= 1")
        if self.queue_limit < 0:
            raise ConfigurationError("traffic queue_limit must be >= 0")
        if self.queue_timeout <= 0:
            raise ConfigurationError("traffic queue_timeout must be "
                                     "positive")

    # ------------------------------------------------------------ API
    def build_arrivals(self):
        """Instantiate the configured arrival process (arrivals mode)."""
        from repro.traffic.arrivals import make_arrival_process

        if self.arrivals is None:
            raise ConfigurationError(
                "this traffic spec replays a trace; it has no arrival "
                "process to build")
        return make_arrival_process(
            self.arrivals,
            **{key: thaw(value) for key, value in self.params})
