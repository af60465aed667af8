"""Request serving must match the per-request spec in ``tests/oracle/serving``.

Each case builds two equal worlds, runs the runtime on one and the spec
on the other, and compares with ``==``: the generated request streams,
every flow record, the ground-truth log, the cause/DNS/served tallies
(insertion order included), the performance samples, the final state of
all four RNGs (policy, redirection, serve, monitor) and every counter
and table the policy, resolvers, redirection engine and placement keep.
"""

import random
from dataclasses import replace

import pytest

from repro import obs
from repro.cdn.catalog import Resolution
from repro.cdn.selection import registered_policy_kinds
from repro.defaults import DATASET_NAMES
from repro.sim.driver import simulate_week
from repro.sim.engine import RequestProcessor, run_requests, sealed_windows
from repro.sim.scenarios import PAPER_SCENARIOS, build_world
from repro.trace.records import WEEK_S

from tests.oracle import serving as oracle

SCALE = 0.01


def _worlds(name="EU1-ADSL", policy_kind="preferred", seed=7, **spec_changes):
    spec = replace(PAPER_SCENARIOS[name], **spec_changes)
    return tuple(
        build_world(spec, scale=SCALE, seed=seed, policy_kind=policy_kind) for _ in range(2)
    )


def _comparable(obj, *skip):
    """An object's fields but ``skip``, with RNGs replaced by their
    ``getstate()``."""
    state = {}
    for key, value in vars(obj).items():
        if key in skip:
            continue
        state[key] = value.getstate() if isinstance(value, random.Random) else value
    return state


def _world_state(world):
    system = world.system
    resolvers = [subnet.resolver for subnet in world.vantage.subnets]
    return {
        "policy": _comparable(system.policy, "_directory"),
        # The lookup tables built on first use are skipped: the spec
        # builds none of them.
        "redirection": _comparable(system.redirection, "_directory", "_placement", "_nearest"),
        "placement": _comparable(system.placement, "_catalog", "_suffixes"),
        "resolvers": [(r.hits, r.misses, dict(r._cache)) for r in resolvers],
        "queries": resolvers[0].authoritative.queries,
    }


def _assert_same_run(runtime_world, spec_world, runtime, spec):
    """``runtime``/``spec`` are finished processors of the two worlds."""
    got, want = runtime.result, spec.result
    assert got.requests == want.requests
    assert got.dataset.records == want.dataset.records
    assert got.truth == want.truth
    for tally in ("cause_counts", "dns_dc_counts", "served_dc_counts"):
        assert list(getattr(got, tally).items()) == list(getattr(want, tally).items())
    assert got.startup_delay_samples == want.startup_delay_samples
    assert got.serving_rtt_samples == want.serving_rtt_samples
    assert runtime._serve_rng.getstate() == spec.serve_rng.getstate()
    # The monitor's kept flows are compared as the records above.
    assert _comparable(runtime.monitor, "_vantage", "_flows") == _comparable(
        spec.monitor, "_vantage", "_flows"
    )
    assert _world_state(runtime_world) == _world_state(spec_world)


def _run_pair(runtime_world, spec_world):
    requests = runtime_world.generator.generate(runtime_world.duration_s)
    assert requests == oracle.generate(spec_world.generator, spec_world.duration_s)
    runtime = RequestProcessor(runtime_world)
    for request in requests:
        runtime.process(request)
    runtime.finish()
    spec = oracle.SpecProcessor(spec_world)
    for request in requests:
        spec.process(request)
    spec.finish()
    _assert_same_run(runtime_world, spec_world, runtime, spec)
    return runtime.result


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_paper_worlds_match_spec(name):
    result = _run_pair(*_worlds(name))
    assert result.requests > 500


@pytest.mark.parametrize("policy_kind", registered_policy_kinds())
def test_every_policy_matches_spec(policy_kind):
    _run_pair(*_worlds("US-Campus", policy_kind=policy_kind, seed=11))


def test_dns_cache_whatif_matches_spec():
    runtime_world, spec_world = _worlds("EU2", dns_cache_enabled=True)
    _run_pair(runtime_world, spec_world)
    assert sum(s.resolver.hits for s in runtime_world.vantage.subnets) > 0


def test_finite_cache_capacity_matches_spec():
    runtime_world, spec_world = _worlds("EU1-ADSL", seed=3, cache_capacity=2)
    _run_pair(runtime_world, spec_world)
    assert runtime_world.system.placement.evictions > 0


def test_sealed_windows_match_spec():
    """The windows, concatenated, are the spec's batch dataset."""
    runtime_world, spec_world = _worlds("EU1-FTTH", seed=5)
    windows = list(sealed_windows(runtime_world, 3600.0))
    # Each table is one nonempty window [k·W, (k+1)·W), in increasing k.
    hours = [set((table.columns().t_start // 3600.0).tolist()) for table in windows]
    assert all(len(hour) == 1 for hour in hours)
    order = [min(hour) for hour in hours]
    assert order == sorted(set(order)) and len(order) > 100
    sealed = [record for table in windows for record in table.records]
    assert sealed == oracle.run_requests(spec_world).dataset.records
    assert _world_state(runtime_world) == _world_state(spec_world)


@pytest.mark.parametrize("watch_fraction", [None, 1.0, 0.3])
def test_handle_request_matches_spec(watch_fraction):
    runtime_world, spec_world = _worlds("EU2", seed=9)
    requests = runtime_world.generator.generate(86400.0)[:400]
    runtime_rng, spec_rng = random.Random(4), random.Random(4)
    for request in requests:
        ip = request.client.ip
        outcomes = [
            handle(
                world.system, ip, world.vantage.client_site(ip),
                world.vantage.resolver_for(ip), request.video, request.resolution,
                request.t_s, rng, watch_fraction=watch_fraction,
            )
            for handle, world, rng in (
                (type(runtime_world.system).handle_request, runtime_world, runtime_rng),
                (oracle.handle_request, spec_world, spec_rng),
            )
        ]
        got, want = outcomes
        assert got.events == want.events
        assert got.decision == want.decision
        assert (got.dns_dc_id, got.served_dc_id) == (want.dns_dc_id, want.served_dc_id)
    assert runtime_rng.getstate() == spec_rng.getstate()
    assert _world_state(runtime_world) == _world_state(spec_world)


def test_handle_request_serves_foreign_sites():
    """A site outside the vantage (a PlanetLab node) gets its own floors."""
    runtime_world, spec_world = _worlds("US-Campus")
    client = next(iter(runtime_world.population))
    site = replace(runtime_world.vantage.client_site(client.ip), key="pl-node",
                   group="pl:node", extra_ms=4.0)
    video = runtime_world.system.catalog.by_rank(900)
    for t_s in (10, 20, 30):
        got = runtime_world.system.handle_request(
            client.ip, site, runtime_world.vantage.resolver_for(client.ip), video,
            Resolution.R720, float(t_s), random.Random(t_s), watch_fraction=1.0,
        )
        want = oracle.handle_request(
            spec_world.system, client.ip, site, spec_world.vantage.resolver_for(client.ip),
            video, Resolution.R720, float(t_s), random.Random(t_s), watch_fraction=1.0,
        )
        assert got.events == want.events
    assert _world_state(runtime_world) == _world_state(spec_world)


def test_week_is_three_layer_spans():
    """One aggregate span per layer of a simulated week, none per request."""
    spec = PAPER_SCENARIOS["EU1-FTTH"]
    run = obs.new_run("week-spans")
    try:
        result = simulate_week(spec, 0.004, 7, WEEK_S, "preferred")
        records = list(run.tracer.records)
    finally:
        obs.set_current_run(None)
    layers = {r.attrs["layer"]: r for r in records if "layer" in r.attrs}
    assert sorted(layers) == ["sim.build", "sim.serve", "sim.workload"]
    assert len(records) == len(layers) + 1  # plus the stage span around them
    assert layers["sim.workload"].attrs["requests"] == result.requests
    assert layers["sim.serve"].attrs["requests"] == result.requests
    assert layers["sim.serve"].attrs["flows"] >= len(result.dataset)


def test_precompute_is_built_lazily():
    world, fresh = _worlds("EU1-ADSL")
    run_requests(world)

    def tables(w):
        system = w.system
        return (
            (system, "_tables"),
            (system.placement, "_suffixes"),
            (system.redirection, "_nearest"),
        )

    for (built, name), (unbuilt, _) in zip(tables(world), tables(fresh)):
        assert name not in vars(unbuilt) and getattr(unbuilt, name) is None
        assert getattr(built, name) is not None
