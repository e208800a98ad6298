"""Shared fixtures for the PathDump reproduction test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import PathDumpController, QueryCluster
from repro.network import Fabric, RoutingFabric
from repro.topology import (FatTreeTopology, Vl2Topology, apply_assignment,
                            assign_link_ids)
from repro.tracing import make_tagger

#: Fixture projects of test_source_invariants.py deliberately contain
#: violations; they are inputs to its checks, not tests.
collect_ignore = ["lint_fixtures"]

# Hypothesis profiles: ``tier1`` (the default) runs the same examples every
# run and writes no example database; ``HYPOTHESIS_PROFILE=soak`` is for
# long local runs - fresh examples, ten times as many, longer schedules.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.register_profile("soak", max_examples=1_000, deadline=None,
                          stateful_step_count=100)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def fattree4():
    """A 4-ary fat-tree (16 hosts, 20 switches) shared read-only by tests."""
    return FatTreeTopology(4)


@pytest.fixture()
def fattree4_fresh():
    """A private 4-ary fat-tree for tests that mutate link/fault state."""
    return FatTreeTopology(4)


@pytest.fixture(scope="session")
def fattree4_assignment(fattree4):
    """Link ID assignment for the shared fat-tree."""
    return assign_link_ids(fattree4)


@pytest.fixture()
def vl2_small():
    """A small VL2 topology (4 intermediates, 4 aggregates, 8 hosts)."""
    return Vl2Topology()


@pytest.fixture()
def traced_fabric():
    """A fresh fat-tree fabric with CherryPick tagging installed.

    Returns ``(topo, assignment, routing, fabric, tagger)``.
    """
    topo = FatTreeTopology(4)
    assignment = assign_link_ids(topo)
    apply_assignment(topo, assignment)
    routing = RoutingFabric(topo)
    fabric = Fabric(topo, routing, seed=7)
    tagger = make_tagger(topo, assignment)
    fabric.install_tagger(tagger)
    return topo, assignment, routing, fabric, tagger


def build_pathdump_deployment(**cluster_kwargs):
    """A full PathDump deployment on a fresh 4-ary fat-tree (same fabric
    seed every time: the same packets take the same paths).

    Returns ``(topo, routing, fabric, cluster, controller)``.
    """
    topo = FatTreeTopology(4)
    assignment = assign_link_ids(topo)
    apply_assignment(topo, assignment)
    routing = RoutingFabric(topo)
    fabric = Fabric(topo, routing, seed=11)
    cluster = QueryCluster(topo, assignment, fabric=fabric, **cluster_kwargs)
    controller = PathDumpController(cluster, fabric)
    return topo, routing, fabric, cluster, controller


@pytest.fixture()
def pathdump_deployment():
    """:func:`build_pathdump_deployment` with the default cluster."""
    return build_pathdump_deployment()


@pytest.fixture()
def make_pathdump_deployment():
    """:func:`build_pathdump_deployment` itself, for tests that need
    several deployments or ``QueryCluster`` keyword arguments."""
    return build_pathdump_deployment
