"""Quickstart: trace a flow's path through a fat-tree and query it back.

This example builds the full PathDump stack on a simulated 4-ary fat-tree,
sends one TCP flow across pods, and then uses the Table 1 controller API
(``execute`` of a ``getPaths`` query, and a distributed top-k query) and host
API (``getCount`` / ``getDuration``) to inspect what the destination's
Trajectory Information Base recorded.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.core import (MECHANISM_MULTILEVEL, PathDumpController, Q_GET_PATHS,
                        Q_TOP_K_FLOWS, Query, QueryCluster)
from repro.network import Fabric, RoutingFabric
from repro.topology import FatTreeTopology, apply_assignment, assign_link_ids
from repro.transport import TcpSender
from repro.workloads import FlowGenerator


def main() -> None:
    # 1. Build the fabric: topology, CherryPick link IDs, routing, switches.
    topo = FatTreeTopology(k=4)
    assignment = assign_link_ids(topo)
    apply_assignment(topo, assignment)
    routing = RoutingFabric(topo)
    fabric = Fabric(topo, routing, seed=1)

    # 2. Deploy PathDump: one agent per host, plus the controller, which
    #    installs the static trajectory-tracing rules on every switch.
    cluster = QueryCluster(topo, assignment, fabric=fabric)
    controller = PathDumpController(cluster, fabric)
    print(f"Deployed PathDump on {len(cluster.hosts)} hosts; installed "
          f"{controller.compiled_rules.total_rules()} static switch rules.")

    # 3. Send a TCP flow between two pods; every delivered packet carries its
    #    sampled trajectory and updates the destination's TIB.
    generator = FlowGenerator(topo.hosts, seed=2)
    spec = generator.single_flow("h-0-0-0", "h-3-1-0", size=500_000)
    result = TcpSender(fabric, spec).run()
    cluster.flush_all()
    print(f"\nTransferred {result.bytes_delivered} bytes in "
          f"{result.packets_delivered} packets "
          f"({result.throughput_bps / 1e6:.0f} Mbit/s).")

    # 4. Ask the destination for the flow's paths through the controller
    #    API (Table 1's ``execute``), then read its TIB with the host API.
    paths = controller.execute(
        [spec.dst], Query(Q_GET_PATHS, {"flow_id": spec.flow_id})).payload
    agent = cluster.agent(spec.dst)
    nbytes, pkts = agent.get_count(spec.flow_id)
    duration = agent.get_duration(spec.flow_id)
    print("\nDestination TIB view of the flow:")
    print(f"  path:     {' -> '.join(paths[0])}")
    print(f"  bytes:    {nbytes}")
    print(f"  packets:  {pkts}")
    print(f"  duration: {duration * 1000:.1f} ms")

    # 5. Run a distributed query through the controller (multi-level tree).
    top = controller.execute(None, Query(Q_TOP_K_FLOWS, {"k": 5}),
                             mechanism=MECHANISM_MULTILEVEL)
    rows = [[rank + 1, key, size] for rank, (size, key)
            in enumerate(top.payload)]
    print("\n" + format_table(["rank", "flow", "bytes"], rows,
                              title="Top flows across every TIB "
                                    f"(query took {top.response_time_s:.3f}s "
                                    f"modelled, {top.traffic_bytes} bytes "
                                    "of query traffic)"))


if __name__ == "__main__":
    main()
