"""repro — reproduction of *Managing Query Compilation Memory
Consumption to Improve DBMS Throughput* (Baryshnikov et al., CIDR 2007).

A self-contained simulated DBMS — SQL front end, Cascades-style
optimizer, buffer pool, plan cache, execution engine with memory
grants — plus the paper's two mechanisms: the **Memory Broker** and
**query-compilation throttling** via memory-monitor gateways.

Quick start::

    import random
    from repro import DatabaseServer, SalesWorkload, paper_server_config

    workload = SalesWorkload(scale=0.001)
    query = workload.generate(random.Random(7))
    with DatabaseServer(paper_server_config(throttling=True),
                        workload.build_catalog()) as server:
        outcome = server.execute_sync(query.text)
"""

from repro.config import (
    BrokerConfig,
    ExecutionConfig,
    GatewayConfig,
    HardwareConfig,
    PlanCacheConfig,
    ServerConfig,
    ThrottleConfig,
    default_gateways,
    paper_server_config,
)
from repro.broker import BrokerNotification, BrokerSignal, MemoryBroker
from repro.errors import (
    CompileOutOfMemoryError,
    GatewayTimeoutError,
    GrantTimeoutError,
    OutOfMemoryError,
    QueryError,
    ReproError,
)
from repro.metrics import MetricsCollector
from repro.server import DatabaseServer, QueryOutcome
from repro.sim import Environment
from repro.throttle import CompilationGovernor, Gateway
from repro.workload import (
    LoadGenerator,
    MixedWorkload,
    OltpWorkload,
    SalesWorkload,
    TpchWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "BrokerConfig",
    "BrokerNotification",
    "BrokerSignal",
    "CompilationGovernor",
    "CompileOutOfMemoryError",
    "DatabaseServer",
    "Environment",
    "ExecutionConfig",
    "Gateway",
    "GatewayConfig",
    "GatewayTimeoutError",
    "GrantTimeoutError",
    "HardwareConfig",
    "LoadGenerator",
    "MemoryBroker",
    "MetricsCollector",
    "MixedWorkload",
    "OltpWorkload",
    "OutOfMemoryError",
    "PlanCacheConfig",
    "QueryError",
    "QueryOutcome",
    "ReproError",
    "SalesWorkload",
    "ServerConfig",
    "ThrottleConfig",
    "TpchWorkload",
    "default_gateways",
    "paper_server_config",
]
