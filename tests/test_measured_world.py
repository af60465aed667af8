"""A cached week holds a measured world, not the simulator.

The blind pipeline sees flow logs, whois and the ability to ping an
address.  A week's :class:`~repro.sim.week.SimulationResult` carries
just that (:class:`~repro.sim.week.MeasuredWorld`) plus the simulator's
answers in its :class:`~repro.sim.week.GroundTruthLog`; neither its
pickle nor anything a :class:`~repro.core.pipeline.StudyPipeline`
receives reaches a CDN, policy or workload object.
"""

from __future__ import annotations

import gc
import pickle
import pickletools
import types
from typing import Iterator, Set

import numpy as np
import pytest

from repro.artifacts.store import ArtifactStore
from repro.core.pipeline import StudyPipeline
from repro.sim import driver
from repro.sim.engine import run_requests
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.sim.week import GroundTruthLog, ServerTable
from repro.stream.study import run_streaming_study
from repro.trace.records import WEEK_S

#: Modules only the simulator needs: no cached week may name them.
SIMULATOR = (
    "repro.cdn.policies",
    "repro.cdn.redirection",
    "repro.cdn.selection",
    "repro.workload",
    "repro.sim.engine",
    "repro.sim.scenarios",
)

SCALE = 0.004


def pickled_globals(body: bytes) -> Set[str]:
    """``module.name`` of every ``GLOBAL``/``STACK_GLOBAL`` in a pickle."""
    names: Set[str] = set()
    memo = []
    pushed = []  # the values of string pushes and memo gets, in order
    last_was_push = False
    for opcode, arg, _ in pickletools.genops(body):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"):
            pushed.append(arg)
        elif opcode.name in ("BINGET", "LONG_BINGET", "GET"):
            pushed.append(memo[int(arg)])
        elif opcode.name == "MEMOIZE":
            # Memoizes the top of the stack: a string only after a push.
            memo.append(pushed[-1] if last_was_push else None)
        elif opcode.name in ("BINPUT", "LONG_BINPUT", "PUT"):
            raise AssertionError("the store writes protocol 4+ pickles")
        elif opcode.name == "GLOBAL":
            names.add(arg.replace(" ", "."))
        elif opcode.name == "STACK_GLOBAL":
            names.add(f"{pushed[-2]}.{pushed[-1]}")
        last_was_push = opcode.name in (
            "SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE",
            "BINGET", "LONG_BINGET", "GET",
        )
    return names


def simulator_names(names: Set[str]) -> Set[str]:
    return {name for name in names if name.startswith(tuple(m + "." for m in SIMULATOR))}


def test_stored_week_names_no_simulator_class(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = PAPER_SCENARIOS["EU2"]
    driver.simulate_week(spec, SCALE, 7, WEEK_S, "preferred")
    key = driver.simulate_week.cache_key(spec, SCALE, 7, WEEK_S, "preferred")
    body = ArtifactStore(tmp_path).object_path(key).read_bytes()[32:]
    names = pickled_globals(body)
    assert simulator_names(names) == set()
    assert not any(name.startswith("repro.cdn.") for name in names)
    assert {"repro.sim.week.SimulationResult", "repro.sim.week.MeasuredWorld",
            "repro.sim.week.GroundTruthLog", "repro.trace.records.Dataset"} <= names


def test_the_scan_sees_a_simulator_class():
    world = build_world(PAPER_SCENARIOS["EU1-FTTH"], scale=SCALE, seed=7)
    names = pickled_globals(pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL))
    assert "repro.sim.scenarios.ScenarioWorld" in simulator_names(names)


def reachable(root: object) -> Iterator[object]:
    """Every object reachable from ``root`` through instance state.

    Types, modules and functions are not entered: they lead to the
    code, not to the data the pipeline was handed.
    """
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (type, types.ModuleType, types.FunctionType,
                            types.MethodType, str, bytes, np.ndarray)):
            continue
        stack.extend(gc.get_referents(obj))


def assert_blind(results) -> None:
    for obj in reachable(results):
        module = type(obj).__module__
        assert not module.startswith(SIMULATOR), type(obj)
        state = getattr(obj, "__dict__", None)
        if isinstance(state, dict):
            assert not {"policy", "system"} & set(state), type(obj)


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_pipeline_inputs_expose_no_policy(mode):
    if mode == "batch":
        driver.clear_cache()
        pipeline = StudyPipeline(driver.run_all(scale=SCALE, seed=7), landmark_count=10)
    else:
        pipeline, _ = run_streaming_study(SCALE, 7, 3600.0, landmark_count=10)
    inputs = pipeline._results
    assert len(inputs) == 5
    assert_blind(inputs)
    assert_blind(pipeline._folds)


def test_measured_world_sees_what_the_world_sees():
    world = build_world(PAPER_SCENARIOS["EU2"], scale=SCALE, seed=7)
    measured = world.measured()
    system = world.system
    servers = [server for dc in system.directory for server in dc.servers]
    assert len(servers) > 1000
    for server in servers:
        # The site the simulator serves from, CBG's loss key included.
        assert measured.site_of_server_ip(server.ip) == system.server_site(server)
    ips = [server.ip for server in servers]
    for ip in (0, ips[0] - 1, ips[0] | 0xFF, max(ips) + 1):
        assert system.directory.server_at(ip) is None
        assert measured.site_of_server_ip(ip) is None
    assert measured.vantage.probe_site == world.vantage.probe_site
    assert all(subnet.resolver is None for subnet in measured.vantage.subnets)
    # One run per stretch of consecutive addresses, far fewer than servers.
    assert len(measured.servers.starts) < len(servers) / 10


def test_truth_carries_the_simulator_answers():
    world = build_world(PAPER_SCENARIOS["US-Campus"], scale=SCALE, seed=7)
    result = run_requests(world)
    truth = result.truth
    assert truth.preferred_dc == world.system.policy.ranking_for("US-Campus/Net-1")[0]
    for ip in result.dataset.server_ips:
        dc = world.system.directory.dc_of_server(ip)
        assert truth.dc_of_server(ip) == (None if dc is None else dc.dc_id)
    assert truth.servers is result.world.servers  # pickled once
    assert len(truth) == result.requests
    copy = pickle.loads(pickle.dumps(truth))
    assert copy == truth and copy.labels == truth.labels


def test_truth_columns_round_trip():
    servers = ServerTable.build([("dc-a", [10, 11, 12]), ("dc-b", [13, 20])])
    assert servers.starts == (10, 13, 20)
    assert [servers.index_of(ip) for ip in (9, 10, 12, 13, 14, 20, 21)] == [
        None, 0, 0, 1, None, 1, None,
    ]
    truth = GroundTruthLog.freeze(
        [5, 6], ["v1", "v0"], [1.5, 2.5], ["dc-a", "dc-a"], ["dc-a", "dc-b"],
        ["dc-b", "dc-b"], ["redirection", "dns"], preferred_dc="dc-a", servers=servers,
    )
    assert truth.client_ips == [5, 6]
    assert truth.video_ids == ["v1", "v0"]
    assert truth.t_s == [1.5, 2.5]
    assert truth.anchor_dcs == ["dc-a", "dc-a"]
    assert truth.labels == ["redirection", "dns"]
    assert truth.dc_of_server(13) == "dc-b"
    empty = GroundTruthLog.freeze([], [], [], [], [], [], [], None, servers)
    assert len(empty) == 0 and empty.labels == [] and empty != truth
