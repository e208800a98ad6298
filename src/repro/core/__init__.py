"""PathDump core: edge stack (vswitch, trajectory memory, TIB, monitor),
agents, distributed query execution and the controller."""

from repro.core.alarms import (Alarm, AlarmBus, BLACKHOLE_SUSPECTED,
                               INVALID_TRAJECTORY, LOAD_IMBALANCE,
                               LONG_PATH, LOOP_DETECTED, PC_FAIL, POOR_PERF)
from repro.core.tib import Tib, WILDCARD
from repro.core.trajectory import (TrajectoryCache, TrajectoryConstructor,
                                   TrajectoryMemory)
from repro.core.vswitch import EdgeVSwitch
from repro.core.monitor import (ActiveMonitor, MonitorSnapshot,
                                TransferObservation)
from repro.core.agent import PathDumpAgent
from repro.core.plan import (Aggregate, Filter, Plan, PlanError, PlanWarning,
                             Project, TopK, compile_get_count,
                             compile_top_k_flows, reference_evaluate)
from repro.core.query import (Q_FLOW_SIZE_DISTRIBUTION, Q_GET_COUNT,
                              Q_GET_DURATION, Q_GET_FLOWS, Q_GET_PATHS,
                              Q_PATH_CONFORMANCE, Q_PLAN, Q_POOR_TCP_FLOWS,
                              Q_SUBFLOW_IMBALANCE, Q_TOP_K_FLOWS,
                              Q_TRAFFIC_MATRIX, Query, QueryEngine,
                              QueryResult)
from repro.core.rpc import RpcChannel
from repro.core.executor import (ExecWarning, GatherResult, LoopbackTransport,
                                 PlanNode, ScatterGatherExecutor, Transport,
                                 TransportError)
from repro.core import wire
from repro.core.groupserver import (AgentServerError, GroupAgentPool,
                                    GroupPoolStats, shard_hosts)
from repro.core.supervisor import (ChaosPolicy, GroupSeed, RestartEvent,
                                   RestartPolicy, Supervisor, WorkerSeed)
from repro.core.aggregation import AggregationTree
from repro.core.cluster import (DistributedQueryResult, MECHANISM_DIRECT,
                                MECHANISM_MULTILEVEL, MODE_PROCESS,
                                MODE_SERIAL, MODE_SOCKET, MonitorSweep,
                                QueryCluster, TRANSPORT_UNIX)
from repro.core.controller import PathDumpController

__all__ = [
    "Alarm", "AlarmBus", "BLACKHOLE_SUSPECTED", "INVALID_TRAJECTORY",
    "LOAD_IMBALANCE", "LONG_PATH", "LOOP_DETECTED", "PC_FAIL", "POOR_PERF",
    "Tib", "WILDCARD", "TrajectoryCache", "TrajectoryConstructor",
    "TrajectoryMemory", "EdgeVSwitch", "ActiveMonitor", "MonitorSnapshot",
    "MonitorSweep", "TransferObservation", "PathDumpAgent",
    "Q_FLOW_SIZE_DISTRIBUTION", "Q_GET_COUNT", "Q_GET_DURATION",
    "Q_GET_FLOWS", "Q_GET_PATHS", "Q_PATH_CONFORMANCE", "Q_PLAN",
    "Q_POOR_TCP_FLOWS", "Q_SUBFLOW_IMBALANCE", "Q_TOP_K_FLOWS",
    "Q_TRAFFIC_MATRIX", "Query",
    "QueryEngine", "QueryResult", "Aggregate", "Filter", "Plan",
    "PlanError", "PlanWarning", "Project", "TopK", "compile_get_count",
    "compile_top_k_flows", "reference_evaluate", "RpcChannel", "ExecWarning",
    "GatherResult", "LoopbackTransport", "MODE_SERIAL",
    "MODE_PROCESS", "MODE_SOCKET", "PlanNode",
    "ScatterGatherExecutor", "Transport", "TransportError",
    "AgentServerError", "GroupAgentPool", "GroupPoolStats",
    "TRANSPORT_UNIX",
    "shard_hosts", "ChaosPolicy",
    "GroupSeed", "RestartEvent", "RestartPolicy", "Supervisor", "WorkerSeed",
    "wire", "AggregationTree", "DistributedQueryResult", "MECHANISM_DIRECT",
    "MECHANISM_MULTILEVEL", "QueryCluster", "PathDumpController",
]
