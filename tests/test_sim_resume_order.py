"""Every process resume pinned, in order.

Seeded random process mixes exercise what the kernel's hot path does:
timeouts on a coarse time grid (so many events share an instant and
their eid order decides who runs first), contended hold requests,
grant-then-timeout holds, request-versus-timeout races with cancel,
processes waiting on processes, failures caught by their waiters,
interrupts, waits on already-processed events, and ``close()`` in the
middle of a run.  Each process logs ``(now, process, value)`` every
time it is resumed and when ``close()`` unwinds it; the count of
scheduled events is pinned alongside.  Any change in resume order, in
the value a resume delivers, or in the number of events fails the
test.

``tests/data/sim/resume_order.json`` was written by running this
module against the source of the commit before the kernel's hot path
was reworked (``PYTHONPATH=<parent>/src:tests python -c "import
test_sim_resume_order as t; t.write_goldens()"``); the calendar-queue
core the kernel had then gave the same document.
"""

import json
import os
import random

import pytest

from repro.sim import Environment, Interrupt, Resource

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sim",
                      "resume_order.json")

#: delays on a grid, so many events fall on the same instant
GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)

SEEDS = range(60)


class CountingEnvironment(Environment):
    """Counts every event placed on the schedule."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduled = 0

    def schedule(self, event, delay=0.0):
        self.scheduled += 1
        super().schedule(event, delay)


def _delay(rng):
    return rng.choice(GRID) if rng.random() < 0.8 else rng.uniform(0, 3)


def _script(rng, resources, depth=0):
    """A random list of operations for one process."""
    kinds = ["timeout", "hold", "grant", "race", "processed", "event"]
    if depth < 2:
        kinds += ["spawn", "fail", "interrupt"]
    ops = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        res = rng.randrange(resources)
        if kind in ("timeout", "processed"):
            ops.append((kind, _delay(rng)))
        elif kind in ("hold", "grant"):
            ops.append((kind, res, _delay(rng)))
        elif kind == "race":
            ops.append((kind, res, _delay(rng), _delay(rng)))
        elif kind == "event":
            ops.append((kind, _delay(rng), rng.random() < 0.7))
        elif kind == "spawn":
            ops.append((kind, _script(rng, resources, depth + 1)))
        elif kind == "fail":
            ops.append((kind, _delay(rng)))
        else:  # interrupt: a sleeping child, woken early
            ops.append((kind, _delay(rng), 1.0 + 3 * rng.random()))
    return ops


def _case(seed):
    rng = random.Random(seed)
    capacities = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    starts = [(_delay(rng), _script(rng, len(capacities)))
              for _ in range(rng.randint(3, 10))]
    close_at = rng.choice((None, rng.uniform(0.5, 8.0)))
    return capacities, starts, close_at


def _describe(value, names):
    """A JSON-ready, kernel-independent account of a resume value."""
    if isinstance(value, Resource):
        return f"grant {names[value]}"
    if isinstance(value, dict):  # a condition's value
        return [_describe(v, names) for v in value.values()]
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    return value


def play(seed):
    """Run one case; returns the resume log and the event count."""
    capacities, starts, close_at = _case(seed)
    env = CountingEnvironment()
    resources = [Resource(env, capacity) for capacity in capacities]
    names = {res: f"r{i}" for i, res in enumerate(resources)}
    log = []

    def resumed(name, value):
        log.append([env.now, name, _describe(value, names)])

    def failing(name, delay):
        yield env.timeout(delay)
        raise ValueError(f"{name} failed")

    def trigger(event, delay, ok):
        yield env.timeout(delay)
        if ok:
            event.succeed("fired")
        else:
            event.fail(KeyError("event failed"))

    def sleeper(name, length):
        try:
            value = yield env.timeout(length, value="slept")
            resumed(name, value)
        except Interrupt as interrupt:
            resumed(name, interrupt)
            return f"interrupted by {interrupt.cause}"
        return "woke"

    def worker(name, ops):
        fired = None
        try:
            for index, op in enumerate(ops):
                kind, args = op[0], op[1:]
                tag = f"{name}.{index}"
                if kind == "timeout":
                    fired = env.timeout(args[0], value=tag)
                    resumed(name, (yield fired))
                elif kind == "processed":
                    if fired is None or not fired.processed:
                        fired = env.timeout(args[0], value=tag)
                        resumed(name, (yield fired))
                    resumed(name, (yield fired))  # already processed
                elif kind == "hold":
                    res = resources[args[0]]
                    req = res.request(args[1])
                    try:
                        resumed(name, (yield req))
                    finally:
                        res.release(req)
                elif kind == "grant":
                    res = resources[args[0]]
                    req = res.request()
                    try:
                        resumed(name, (yield req))
                        resumed(name, (yield env.timeout(args[1], tag)))
                    finally:
                        res.release(req)
                elif kind == "race":
                    res = resources[args[0]]
                    req = res.request()
                    patience = env.timeout(args[1], value="gave up")
                    try:
                        got = yield env.any_of([req, patience])
                        resumed(name, got)
                        if req in got:
                            resumed(name, (yield env.timeout(args[2], tag)))
                    finally:
                        res.release(req)  # cancels when still queued
                elif kind == "event":
                    event = env.event()
                    env.process(trigger(event, args[0], args[1]))
                    try:
                        resumed(name, (yield event))
                    except KeyError as exc:
                        resumed(name, exc)
                elif kind == "spawn":
                    child = env.process(worker(tag, args[0]))
                    resumed(name, (yield child))
                elif kind == "fail":
                    try:
                        yield env.process(failing(tag, args[0]))
                    except ValueError as exc:
                        resumed(name, exc)
                else:
                    child = env.process(sleeper(tag, args[1]))
                    resumed(name, (yield env.timeout(args[0], tag)))
                    if child.is_alive:
                        child.interrupt(f"{name} at {env.now}")
                    resumed(name, (yield child))
        except GeneratorExit:
            log.append([env.now, name, "closed"])
            raise
        return f"{name} done"

    def top(name, start, ops):
        resumed(name, (yield env.timeout(start, value="start")))
        return (yield env.process(worker(name, ops)))

    for index, (start, ops) in enumerate(starts):
        env.process(top(f"p{index}", start, ops))
    if close_at is None:
        env.run()
    else:
        env.run(until=close_at)
        env.close()
    return {"resumes": log, "scheduled": env.scheduled, "end": env.now}


def write_goldens():
    doc = {str(seed): play(seed) for seed in SEEDS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# the one "legacy" param id keeps the test ids stable
@pytest.mark.parametrize("core", ["legacy"])
@pytest.mark.parametrize("seed", SEEDS)
def test_resume_order_matches_golden(golden, core, seed):
    # a JSON round trip turns the tuples a process may return into lists
    got = json.loads(json.dumps(play(seed)))
    assert got == golden[str(seed)]


def test_cases_cover_every_wait_kind(golden):
    """The seeded cases reach what the resume path distinguishes."""
    values = [value for case in golden.values()
              for _now, _name, value in case["resumes"]]
    text = json.dumps(values)
    for needle in ("grant r", "gave up", "ValueError", "KeyError",
                   "Interrupt", "interrupted by", "closed", "fired",
                   " done"):
        assert needle in text, needle
    closed = [case for case in golden.values()
              if any(value == "closed" for _t, _n, value in case["resumes"])]
    assert len(closed) >= 5
    # many resumes share an instant, so eid order is what is pinned
    instants = [(seed, now) for seed, case in golden.items()
                for now, _name, _value in case["resumes"]]
    assert len(set(instants)) < 0.7 * len(instants)
