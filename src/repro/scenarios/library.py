"""Built-in scenarios: every paper artifact plus new scenario families.

Each ``*_scenario`` builder returns a parameterized spec (the legacy
Python APIs call these with their historical defaults);
module import registers the canonical instances, so ``repro scenarios
list`` shows the whole catalogue.

Families
--------
``figures``     FIG-1/2/3/4/5 — the paper's figures
``ablations``   ABL-GATES / ABL-DYN / ABL-BPSF — §4.1 design ablations
``saturation``  CLAIM-SAT — the client-count saturation sweep
``mixed``       OLTP point queries co-located with ad-hoc TPC-H
``memory``      throughput under a shrinking physical-memory budget
``ladder``      full ladder vs small-monitor-only across load levels
``burst``       open-loop adversarial arrivals (flash crowds, noisy
                multi-tenant mixes) through the admission path
``scale``       FIG-3-style curves at 100x-1000x the paper population,
                plus the 100 000-session flood the scale-smoke CI
                lane runs
``fairness``    the burst-noisy tenant mix re-run under ``fifo`` vs
                ``weighted_fair`` admission with an SLO on the victim
                tenant's queue wait (the fairness-smoke CI lane)
``optimizer``   the memory-pressure workload re-run under the staged
                ``memo`` enumerator vs the greedy ``ues`` upper-bound
                enumerator (the optimizer-smoke CI lane)
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.admission import AdmissionSpec, SloSpec, SloTarget
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    ConfigOverrides,
    Expectation,
    ScenarioSpec,
    VariantSpec,
)
from repro.traffic.spec import TrafficSpec
from repro.units import GiB

#: paper figure number -> client count (Figures 3/4/5)
FIGURE_CLIENTS = {3: 30, 4: 35, 5: 40}


# ------------------------------------------------------------- figures
def throughput_scenario(clients: int, preset: str = "smoke",
                        seed: int = 3,
                        workload: str = "sales") -> ScenarioSpec:
    """Throttled vs un-throttled throughput at ``clients`` clients."""
    numbers = {v: k for k, v in FIGURE_CLIENTS.items()}
    figure = numbers.get(clients)
    scenario_id = f"fig{figure}" if figure else f"throughput-{clients}c"
    title = (f"Figure {figure}: throughput at {clients} clients"
             if figure else f"Throughput comparison at {clients} clients")
    return ScenarioSpec(
        scenario_id=scenario_id,
        title=title,
        family="figures",
        workload=workload,
        clients=clients,
        preset=preset,
        seed=seed,
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(
            Expectation("completed", ">", 0, variant="throttled"),
            Expectation("improvement", ">", 0.0),
        ),
        render="comparison",
        description="Successful completions per bucket, throttled vs "
                    "un-throttled (paper Figures 3-5).")


@register_scenario
def _fig1() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="fig1",
        title="Figure 1: the memory-monitor ladder",
        family="figures",
        kind="monitors",
        workload="sales",
        clients=1,
        render="monitors",
        description="Renders the small/medium/big gateway ladder of a "
                    "freshly booted paper server.")


@register_scenario
def _fig2() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="fig2",
        title="Figure 2: compilation-throttling trace",
        family="figures",
        kind="trace",
        workload="sales",
        workload_params={"background": 24, "fast_factor": 4.0},
        clients=24,
        seed=3,
        expect=(Expectation("plateau_total", ">=", 1),),
        render="trace",
        description="Three staggered compilations under pressure; the "
                    "flat stretches are gateway blocking plateaus.")


for _figure_clients in FIGURE_CLIENTS.values():
    register_scenario(throughput_scenario(_figure_clients))


# ----------------------------------------------------------- ablations
def gateway_ablation_scenario(clients: int = 30, preset: str = "smoke",
                              seed: int = 1) -> ScenarioSpec:
    """ABL-GATES: 0, 1, 2 and 3 monitors."""
    return ScenarioSpec(
        scenario_id="abl-gates",
        title="ABL-GATES: monitor-count ablation",
        family="ablations",
        clients=clients,
        preset=preset,
        seed=seed,
        variants=tuple(
            VariantSpec(f"{n}_monitors", ConfigOverrides(gateway_count=n))
            for n in (0, 1, 2, 3)),
        expect=(Expectation("completed", ">", 0, variant="3_monitors"),),
        description="Sweeps the ladder length; the paper reports the "
                    "multi-monitor split gives the best balance.")


def dynamic_ablation_scenario(clients: int = 35, preset: str = "smoke",
                              seed: int = 1) -> ScenarioSpec:
    """ABL-DYN: static vs broker-driven thresholds."""
    return ScenarioSpec(
        scenario_id="abl-dyn",
        title="ABL-DYN: static vs dynamic thresholds",
        family="ablations",
        clients=clients,
        preset=preset,
        seed=seed,
        variants=(
            VariantSpec("static",
                        ConfigOverrides(dynamic_thresholds=False)),
            VariantSpec("dynamic",
                        ConfigOverrides(dynamic_thresholds=True)),
        ),
        expect=(Expectation("completed", ">", 0, variant="dynamic"),),
        description="Extension (a): thresholds derived from the "
                    "broker's compilation target vs the static ladder.")


def best_plan_ablation_scenario(clients: int = 40, preset: str = "smoke",
                                seed: int = 1) -> ScenarioSpec:
    """ABL-BPSF: best-plan-so-far on/off."""
    return ScenarioSpec(
        scenario_id="abl-bpsf",
        title="ABL-BPSF: best-plan-so-far vs hard OOM",
        family="ablations",
        clients=clients,
        preset=preset,
        seed=seed,
        variants=(
            VariantSpec("hard_oom",
                        ConfigOverrides(best_plan_so_far=False)),
            VariantSpec("best_plan",
                        ConfigOverrides(best_plan_so_far=True)),
        ),
        expect=(
            Expectation("errors.compile_oom", "==", 0,
                        variant="best_plan"),
        ),
        description="Extension (b): degrade to the best already-"
                    "explored plan instead of failing out of memory.")


#: legacy ablation name -> (short name, builder) — the single source
#: for the ablate_* shims
ABLATION_SCENARIOS = (
    ("gateway_count", "gates", gateway_ablation_scenario),
    ("dynamic_thresholds", "dyn", dynamic_ablation_scenario),
    ("best_plan_so_far", "bpsf", best_plan_ablation_scenario),
)

for _, _, _builder in ABLATION_SCENARIOS:
    register_scenario(_builder())


# ---------------------------------------------------------- saturation
def saturation_scenario(clients: Sequence[int] = (5, 15, 30, 40),
                        preset: str = "smoke", seed: int = 3,
                        workload: str = "sales") -> ScenarioSpec:
    """CLAIM-SAT: the client-count saturation sweep."""
    counts: Tuple[int, ...] = tuple(dict.fromkeys(clients))
    return ScenarioSpec(
        scenario_id="saturation",
        title="CLAIM-SAT: client saturation sweep",
        family="saturation",
        workload=workload,
        clients=max(counts),
        preset=preset,
        seed=seed,
        variants=tuple(VariantSpec(f"sat_{c}c", clients=c)
                       for c in counts),
        expect=(Expectation("total_completed", ">", 0),),
        description="Throughput by client count; the paper's knee sits "
                    "near 30 clients.")


register_scenario(saturation_scenario())


# --------------------------------------------------- mixed (new family)
@register_scenario
def _mixed_rush() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="mixed-rush",
        title="Mixed rush hour: OLTP + ad-hoc TPC-H",
        family="mixed",
        workload="mixed",
        workload_params={"tpch_fraction": 0.3},
        clients=24,
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(Expectation("completed", ">", 0, variant="throttled"),),
        render="comparison",
        description="Small transactional queries co-located with heavy "
                    "analytic compilations; the ladder should keep the "
                    "OLTP class responsive.")


@register_scenario
def _mixed_analytic() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="mixed-analytic",
        title="Analytic-heavy mix (60% TPC-H)",
        family="mixed",
        workload="mixed",
        workload_params={"tpch_fraction": 0.6},
        clients=16,
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(Expectation("total_completed", ">", 0),),
        render="comparison",
        description="The same co-location stress with the analytic "
                    "share dominating.")


# -------------------------------------------------- memory (new family)
@register_scenario
def _memory_ramp() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="mem-ramp",
        title="Memory-pressure ramp: 4 GiB to 1 GiB",
        family="memory",
        workload="sales",
        clients=24,
        variants=(
            VariantSpec("mem_4g"),
            VariantSpec("mem_2g",
                        ConfigOverrides(physical_memory=2 * GiB)),
            VariantSpec("mem_1g",
                        ConfigOverrides(physical_memory=1 * GiB)),
        ),
        expect=(
            Expectation("completed", ">", 0, variant="mem_4g"),
            Expectation("total_completed", ">", 0),
        ),
        description="The paper's testbed shrunk to half and a quarter "
                    "of its RAM: throttling has to work harder as the "
                    "broker's compile target collapses.")


# -------------------------------------------------- ladder (new family)
@register_scenario
def _ladder_load() -> ScenarioSpec:
    return ScenarioSpec(
        scenario_id="ladder-load",
        title="Gateway-ladder sweep across load levels",
        family="ladder",
        workload="sales",
        clients=30,
        variants=(
            VariantSpec("full_15c", ConfigOverrides(gateway_count=3),
                        clients=15),
            VariantSpec("small_only_15c",
                        ConfigOverrides(gateway_count=1), clients=15),
            VariantSpec("full_30c", ConfigOverrides(gateway_count=3),
                        clients=30),
            VariantSpec("small_only_30c",
                        ConfigOverrides(gateway_count=1), clients=30),
        ),
        expect=(Expectation("total_completed", ">", 0),),
        description="How much of the ladder is needed as load grows: "
                    "the single small monitor vs the full "
                    "small/medium/big ladder at 15 and 30 clients.")


# --------------------------------------------------- burst (new family)
def flash_crowd_scenario(clients: int = 16, preset: str = "smoke",
                         seed: int = 3) -> ScenarioSpec:
    """BURST-FLASH: a flash-crowd spike through open-loop admission."""
    return ScenarioSpec(
        scenario_id="burst-flash",
        title="Flash crowd: open-loop spike, throttled vs un-throttled",
        family="burst",
        workload="sales",
        clients=clients,
        preset=preset,
        seed=seed,
        traffic=TrafficSpec(
            arrivals="flash_crowd",
            params={"base_rate": 0.008, "spike_rate": 0.12,
                    "spike_at": 1500.0, "spike_duration": 240.0},
            queue_limit=8,
            queue_timeout=180.0),
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(
            Expectation("openloop.offered", ">", 0, variant="throttled"),
            Expectation("openloop.admitted", ">", 0,
                        variant="throttled"),
            Expectation("openloop.offered", "==",
                        variant="throttled", than_variant="unthrottled"),
        ),
        description="Sessions arrive on an open-loop schedule that "
                    "spikes mid-measurement; the broker's trend "
                    "monitors and the gateway ladder see true offered "
                    "load instead of a politely waiting closed loop.")


def noisy_neighbor_scenario(clients: int = 12, preset: str = "smoke",
                            seed: int = 3) -> ScenarioSpec:
    """BURST-NOISY: a steady tenant sharing admission with a bursty one."""
    return ScenarioSpec(
        scenario_id="burst-noisy",
        title="Noisy neighbor: steady tenant vs flash-crowd tenant",
        family="burst",
        workload="mixed",
        workload_params={"tpch_fraction": 0.4},
        clients=clients,
        preset=preset,
        seed=seed,
        traffic=TrafficSpec(
            arrivals="tenant_mix",
            params={"tenants": {
                "steady": {"process": "poisson", "rate": 0.008},
                "noisy": {"process": "flash_crowd", "base_rate": 0.002,
                          "spike_rate": 0.1, "spike_at": 1400.0,
                          "spike_duration": 300.0},
            }},
            max_sessions=8,
            queue_limit=4,
            queue_timeout=150.0),
        variants=(VariantSpec("shared"),),
        expect=(
            Expectation("openloop.tenant.steady.offered", ">", 0,
                        variant="shared"),
            Expectation("openloop.tenant.noisy.offered", ">", 0,
                        variant="shared"),
        ),
        description="Two tenants on one admission queue: the noisy "
                    "tenant's spike overflows the small queue and the "
                    "per-tenant drop accounting shows who paid for it.")


for _builder in (flash_crowd_scenario, noisy_neighbor_scenario):
    register_scenario(_builder())


# ------------------------------------------------ fairness (new family)
def fairness_scenario(clients: int = 12, preset: str = "smoke",
                      seed: int = 3,
                      steady_weight: float = 4.0) -> ScenarioSpec:
    """FAIR-NOISY: the noisy-neighbor mix under ``fifo`` vs
    ``weighted_fair`` admission.

    Identical offered load in both variants (pinned by a cross-variant
    check); the weighted variant gives the steady tenant
    ``steady_weight`` times the noisy tenant's slot share, and the
    victim's queue-wait p90 must recover versus FIFO.
    """
    return ScenarioSpec(
        scenario_id="fairness-noisy",
        title="FAIR-NOISY: weighted-fair admission vs FIFO",
        family="fairness",
        workload="mixed",
        workload_params={"tpch_fraction": 0.4},
        clients=clients,
        preset=preset,
        seed=seed,
        traffic=TrafficSpec(
            arrivals="tenant_mix",
            params={"tenants": {
                "steady": {"process": "poisson", "rate": 0.02},
                "noisy": {"process": "flash_crowd", "base_rate": 0.004,
                          "spike_rate": 0.5, "spike_at": 1300.0,
                          "spike_duration": 600.0},
            }},
            max_sessions=8,
            queue_limit=16,
            queue_timeout=300.0),
        slo=SloSpec(targets=(
            SloTarget(metric="queue_wait", percentile="p90",
                      max_value=30.0, tenant="steady"),
        )),
        variants=(
            VariantSpec("fifo"),
            VariantSpec("weighted_fair",
                        admission=AdmissionSpec(
                            policy="weighted_fair",
                            weights={"steady": steady_weight})),
        ),
        expect=(
            Expectation("openloop.offered", "==",
                        variant="weighted_fair", than_variant="fifo"),
            Expectation("openloop.tenant.steady.offered", ">", 0,
                        variant="fifo"),
            Expectation("slo.tenant.steady.queue_wait_p90.observed", "<",
                        variant="weighted_fair", than_variant="fifo"),
            Expectation("slo.violations", ">", 0, variant="fifo"),
            Expectation("slo.ok", "==", 1, variant="weighted_fair"),
        ),
        description="Two tenants, one admission queue, two arbiters: "
                    "under FIFO the noisy tenant's spike inflates the "
                    "steady tenant's queue wait; weighted-fair shares "
                    "hand the victim its slots back, and the SLO facts "
                    "pin the recovery.")


register_scenario(fairness_scenario())


# ----------------------------------------------- optimizer (new family)
def optimizer_scenario(clients: int = 24, preset: str = "smoke",
                       seed: int = 3) -> ScenarioSpec:
    """OPT-ENUM: the memory-pressure workload under both enumerators.

    Both variants run the sales workload against a quartered (1 GiB)
    memory budget — the regime where compilation memory is the
    contended resource and the enumerator's memo footprint matters.
    The ``memo`` variant carries an *explicit* default
    :class:`~repro.optimizer.spec.OptimizerSpec`, so the artifact is
    stamped with the optimizer axis while the simulated behaviour
    stays byte-identical to an optimizer-free run (the optimizer-smoke
    CI lane asserts exactly that); the ``ues`` variant swaps in the
    greedy upper-bound enumerator, which skips the staged search and
    must therefore never compile slower on average.
    """
    from repro.optimizer.spec import OptimizerSpec
    return ScenarioSpec(
        scenario_id="opt-enum",
        title="OPT-ENUM: memo vs ues enumeration under memory pressure",
        family="optimizer",
        workload="sales",
        clients=clients,
        preset=preset,
        seed=seed,
        variants=(
            VariantSpec("memo_1g",
                        ConfigOverrides(physical_memory=1 * GiB),
                        optimizer=OptimizerSpec()),
            VariantSpec("ues_1g",
                        ConfigOverrides(physical_memory=1 * GiB),
                        optimizer=OptimizerSpec(enumerator="ues")),
        ),
        expect=(
            Expectation("completed", ">", 0, variant="memo_1g"),
            Expectation("completed", ">", 0, variant="ues_1g"),
            Expectation("mean_compile_time", "<=",
                        variant="ues_1g", than_variant="memo_1g"),
        ),
        description="The mem-ramp pressure point re-run per join "
                    "enumerator: the staged memo search vs the greedy "
                    "UES-style upper-bound ordering, with the greedy "
                    "variant pinned to compile no slower on average.")


register_scenario(optimizer_scenario())


# --------------------------------------------------- scale (new family)
#: the paper testbed's client population (FIG-3), which the scale
#: family multiplies
PAPER_POPULATION = 30


def scale_scenario(factor: int, preset: str = "smoke",
                   seed: int = 3) -> ScenarioSpec:
    """SCALE-<factor>X: FIG-3 throughput at ``factor`` times the paper
    population, driven open-loop.

    ``factor * 30`` admission slots with a Poisson arrival stream
    sized to keep every slot contended for the whole run — the offered
    load a closed loop can never generate.
    """
    population = PAPER_POPULATION * factor
    return ScenarioSpec(
        scenario_id=f"scale-{factor}x",
        title=f"SCALE-{factor}X: throughput at {population} sessions",
        family="scale",
        workload="sales",
        clients=PAPER_POPULATION,
        preset=preset,
        seed=seed,
        traffic=TrafficSpec(
            arrivals="poisson",
            params={"rate": population / 1800.0},
            max_sessions=population,
            queue_limit=max(64, population // 8),
            queue_timeout=240.0),
        variants=(
            VariantSpec("throttled", ConfigOverrides(throttling=True)),
            VariantSpec("unthrottled", ConfigOverrides(throttling=False)),
        ),
        expect=(
            Expectation("openloop.offered", ">", 0, variant="throttled"),
            Expectation("openloop.admitted", ">", 0,
                        variant="throttled"),
            Expectation("openloop.offered", "==",
                        variant="throttled", than_variant="unthrottled"),
        ),
        render="comparison",
        description=f"The paper's 30-client experiment blown up "
                    f"{factor}x: {population} concurrent session slots "
                    f"under open-loop Poisson arrivals.")


def scale_flood_scenario(sessions: int = 100_000, preset: str = "smoke",
                         seed: int = 3) -> ScenarioSpec:
    """SCALE-FLOOD: 10^5 concurrent session slots in one run.

    The scale-smoke CI lane runs this scenario under a wall-clock
    budget, so a kernel throughput regression that blows it blocks.
    The description keeps its original words: artifacts and frozen
    benchmark cells carry it.
    """
    return ScenarioSpec(
        scenario_id="scale-flood",
        title=f"SCALE-FLOOD: {sessions} session flood",
        family="scale",
        workload="sales",
        clients=PAPER_POPULATION,
        preset=preset,
        seed=seed,
        traffic=TrafficSpec(
            arrivals="poisson",
            params={"rate": sessions / 2800.0},
            max_sessions=sessions,
            queue_limit=sessions // 8,
            queue_timeout=240.0),
        variants=(VariantSpec("flood",
                              ConfigOverrides(throttling=True)),),
        expect=(
            Expectation("openloop.offered", ">=", float(sessions),
                        variant="flood"),
            Expectation("openloop.admitted", ">", 0, variant="flood"),
        ),
        description=f"{sessions} admission slots, arrivals sized to "
                    f"offer the full population within the run: the "
                    f"million-session-bound stress the struct-of-"
                    f"arrays tables and the event wheel exist for.")


for _scale_factor in (100, 1000):
    register_scenario(scale_scenario(_scale_factor))
register_scenario(scale_flood_scenario())
