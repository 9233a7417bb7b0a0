"""The experiment harness: one module per reproduced artifact.

``runner`` turns an :class:`~repro.experiments.runner.ExperimentConfig`
into an :class:`~repro.experiments.runner.ExperimentResult`;
``figures`` renders the paper's figures (the monitor ladder, the
throttling trace and the throttled/un-throttled comparison that the
scenario registry's ``monitors``, ``trace`` and ``comparison`` kinds
print); ``executors`` is the pluggable
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
]
