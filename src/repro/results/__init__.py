"""repro.results: the cross-run results warehouse.

:mod:`repro.results.warehouse` is the sqlite star schema (``runs`` /
``cells`` dimensions, ``metrics`` facts) and the load / query / diff
verbs over it.  ``repro results …`` in :mod:`repro.cli` is a thin
shell over it; ``docs/results.md`` documents the schema and the
metrics contract.
"""

from repro.results.warehouse import (
    ERROR_METRIC,
    MIN_ARTIFACT_SCHEMA,
    WAREHOUSE_SCHEMA,
    DiffDelta,
    DiffReport,
    LoadReport,
    RunRow,
    Warehouse,
    detect_git_sha,
)

__all__ = [
    "DiffDelta",
    "DiffReport",
    "ERROR_METRIC",
    "LoadReport",
    "MIN_ARTIFACT_SCHEMA",
    "RunRow",
    "WAREHOUSE_SCHEMA",
    "Warehouse",
    "detect_git_sha",
]
