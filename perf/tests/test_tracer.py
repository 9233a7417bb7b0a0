"""The tracer measures from outside; these pin that it measures right."""


import pytest

import tracer as tracer_module
from tracer import Seam, Tracer


class Clock:
    """A hand-advanced ``perf_counter``: code under test 'works' by
    calling ``advance``, so every expected self time is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    clock = Clock()
    monkeypatch.setattr(tracer_module, "perf_counter", clock)
    return clock


def _pipeline(clock):
    """``compile`` delegating to ``ensure`` the way the program does."""

    class Governor:
        def ensure(self):
            clock.advance(2)
            granted = yield "gateway"
            clock.advance(3)
            return granted

    class Pipeline:
        governor = Governor()

        def compile(self):
            clock.advance(1)
            granted = yield from self.governor.ensure()
            clock.advance(5)
            return f"plan/{granted}"

    return Pipeline, Governor


def test_self_time_over_nested_generator_spans(clock):
    Pipeline, Governor = _pipeline(clock)
    with Tracer() as tracer:
        tracer.install([Seam("compilation.compile", Pipeline, "compile", "gen"),
                        Seam("throttle.ensure", Governor, "ensure", "steps")])
        process = Pipeline().compile()
        assert next(process) == "gateway"
        clock.advance(100)  # suspended on a simulated event: nobody's time
        with pytest.raises(StopIteration) as stop:
            process.send("slot")
    assert stop.value.value == "plan/slot"
    assert tracer.self_s["compilation.compile"] == 6
    assert tracer.self_s["throttle.ensure"] == 5
    assert tracer.total_s["compilation.compile"] == 11
    assert tracer.calls == {"compilation.compile": 1, "throttle.ensure": 1}
    # a `steps` seam counts what it yields, a `gen` seam does not
    assert tracer.yields == {"throttle.ensure": 1}
    assert tracer._stack == []


def test_function_spans_nest_and_root_keeps_the_rest(clock):

    class Layer:
        def outer(self):
            clock.advance(1)
            self.inner()
            clock.advance(1)

        def inner(self):
            clock.advance(4)

    with Tracer() as tracer:
        tracer.install([Seam("a.outer", Layer, "outer"),
                        Seam("b.inner", Layer, "inner")])
        with tracer.span("root"):
            clock.advance(10)
            Layer().outer()
    assert tracer.self_s == {"a.outer": 2, "b.inner": 4, "root": 10}
    assert sum(tracer.self_s.values()) == tracer.total_s["root"] == 16


def test_exceptions_pass_through_and_close_the_span(clock):
    Pipeline, Governor = _pipeline(clock)
    with Tracer() as tracer:
        tracer.install([Seam("compilation.compile", Pipeline, "compile", "gen"),
                        Seam("throttle.ensure", Governor, "ensure", "gen")])
        process = Pipeline().compile()
        next(process)
        with pytest.raises(KeyError):
            process.throw(KeyError("gateway timeout"))
        process.close()
    assert tracer._stack == []
    assert tracer.self_s["compilation.compile"] == 1
    assert tracer.self_s["throttle.ensure"] == 2


def test_wrappers_are_restored_on_exit():
    from repro.compilation.pipeline import CompilationPipeline
    from repro.sql import parser

    import layers

    before = (parser.parse, CompilationPipeline.__dict__["compile"])
    with Tracer() as tracer:
        tracer.install(layers.seams())
        assert parser.parse is not before[0]
        assert CompilationPipeline.__dict__["compile"] is not before[1]
    assert (parser.parse, CompilationPipeline.__dict__["compile"]) == before
    assert tracer._patches == []


def test_by_name_imports_are_patched_where_bound():
    """``compile`` calls the ``parse`` its own module imported by name;
    patching only ``repro.sql.parser.parse`` would time nothing."""
    import repro.compilation.pipeline as pipeline
    import repro.sql
    from repro.sql import parser

    original = parser.parse
    assert pipeline.parse is original
    with Tracer() as tracer:
        tracer.install([Seam("sql.parse", parser, "parse")])
        assert pipeline.parse is parser.parse is repro.sql.parse
        assert pipeline.parse.__wrapped__ is original
    assert pipeline.parse is original and repro.sql.parse is original


def test_parse_calls_are_compiles_minus_replays():
    """The invariant that shows the by-name patch took: every compile
    either replays a recorded search or goes through the parser."""
    from repro.experiments.executors import InlineExecutor
    from repro.scenarios import run_scenarios

    import layers
    import panels

    # fairness-noisy: its second variant replays the first one's searches
    spec = panels.build("oltp-mix", 3, quick=True)[0][1]
    with Tracer() as tracer:
        tracer.install(layers.seams())
        with tracer.span(layers.ROOT):
            (result,) = run_scenarios([spec], executor=InlineExecutor(),
                                      snapshot=True)
    summaries = list(result.variant_summaries.values())
    metrics = layers.derive(
        tracer, summaries, cells=len(summaries),
        wall_s=tracer.total_s[layers.ROOT],
        cell_wall_s=sum(s["wall_seconds"] for s in summaries),
        journal_bytes=0, artifact_bytes=0)
    assert metrics["compilation.search_replays"] > 0
    assert metrics["sql.parse_calls"] == (
        metrics["compilation.compiles"]
        - metrics["compilation.search_replays"]) > 0
    assert metrics["sql.lex_calls"] == metrics["sql.parse_calls"]
    # every named layer metric is reported, and the layers add up
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER
                            if ".probe_" not in name}
    assert sum(tracer.self_s.values()) == pytest.approx(
        tracer.total_s[layers.ROOT])
    assert metrics["trace.unattributed_share"] < 0.1
