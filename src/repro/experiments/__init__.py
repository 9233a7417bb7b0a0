"""The experiment harness: one module per reproduced artifact.

``runner`` turns an :class:`~repro.experiments.runner.ExperimentConfig`
into an :class:`~repro.experiments.runner.ExperimentResult`;
``figures`` reproduces each figure of the paper; ``ablations`` covers
the design choices the paper reports tuning (monitor count, dynamic
thresholds, best-plan-so-far); ``executors`` is the pluggable
cell-execution protocol (inline, or a pool of forked worker processes
fed over socketpairs) and ``wire`` its coordinator/worker transport;
``journal`` makes any executor's queue durable (checkpoint/restart)
and is what a ``--shard k/N`` run writes; ``shards`` holds the cell
identity, the shard selector and the canonical artifact form.
"""

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    PRESETS,
    run_experiment,
)
from repro.experiments.executors import (
    CellExecutor,
    CellResult,
    CellTask,
    InlineExecutor,
    StreamExecutor,
    execute_cell,
    make_executor,
    tasks_for_specs,
)
from repro.experiments.journal import (
    CellJournal,
    JournaledExecutor,
    JournalState,
    journaled_executor,
    load_journal,
)
from repro.experiments.figures import (
    ThroughputComparison,
    figure1_monitors,
    figure2_trace,
    throughput_figure,
)

__all__ = [
    "CellExecutor",
    "CellJournal",
    "CellResult",
    "CellTask",
    "ExperimentConfig",
    "ExperimentResult",
    "InlineExecutor",
    "JournalState",
    "JournaledExecutor",
    "PRESETS",
    "StreamExecutor",
    "ThroughputComparison",
    "execute_cell",
    "figure1_monitors",
    "figure2_trace",
    "journaled_executor",
    "load_journal",
    "make_executor",
    "run_experiment",
    "tasks_for_specs",
    "throughput_figure",
]
