"""The experiment harness: one module per reproduced artifact.

``runner`` turns an :class:`~repro.experiments.runner.ExperimentConfig`
into an :class:`~repro.experiments.runner.ExperimentResult`;
``figures`` reproduces each figure of the paper; ``ablations`` covers
the design choices the paper reports tuning (monitor count, dynamic
thresholds, best-plan-so-far); ``executors`` is the pluggable
cell-execution protocol (inline, or a streamed TCP pool of worker
processes) and ``wire`` its coordinator/worker transport; ``journal``
makes any executor's queue durable (checkpoint/restart) and
``scheduler`` orders it by expected cost (slowest cells first).
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
from repro.experiments.scheduler import (
    CellScheduler,
    order_tasks,
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
    "CellScheduler",
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
    "order_tasks",
    "run_experiment",
    "tasks_for_specs",
    "throughput_figure",
]
