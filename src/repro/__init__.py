"""PathDump reproduction: edge-based datacenter network debugging.

The package reimplements the full PathDump system (OSDI 2016) on top of a
simulated SDN datacenter fabric:

* :mod:`repro.network` - packets, OpenFlow-style switches, links, faults,
  routing and the hop-by-hop simulator;
* :mod:`repro.topology` - fat-tree and VL2 topologies plus CherryPick link
  identifier assignment;
* :mod:`repro.tracing` - CherryPick sampling policies, switch rules, path
  reconstruction and the long-path trap;
* :mod:`repro.transport` / :mod:`repro.workloads` - TCP models and traffic
  generators;
* :mod:`repro.storage` - the document store backing the TIB;
* :mod:`repro.core` - the PathDump edge stack (vswitch, trajectory memory,
  TIB, monitor), agents, distributed queries and the controller;
* :mod:`repro.debug` - the debugging applications of Section 4;
* :mod:`repro.analysis` - metrics and report formatting;
* :mod:`repro.counters` - the base class of every stats holder;
* :mod:`repro.codec` - the byte primitives of the wire and segment codecs.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
