"""``@memoized_stage`` decorator tests."""

from __future__ import annotations

import pytest

from repro import obs
from repro.artifacts.keys import CanonicalizationError
from repro.artifacts.memo import memoized_stage
from repro.artifacts.store import ArtifactStore, reset_default_store
from tests.execpaths import PATH_IDS, PATHS, forced


@pytest.fixture
def cache_env(monkeypatch, tmp_path):
    """A live cache rooted in a fresh temp dir (conftest disables it)."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_default_store()
    yield tmp_path
    reset_default_store()


def make_stage(calls, stage="test/stage", ignore=()):
    @memoized_stage(stage, ignore=ignore)
    def compute(a, b=10, progress=None):
        calls.append((a, b))
        return {"sum": a + b}

    return compute


class TestMemoizedStage:
    def test_second_call_is_served_from_disk(self, cache_env):
        calls = []
        compute = make_stage(calls)
        assert compute(1, b=2) == {"sum": 3}
        assert compute(1, b=2) == {"sum": 3}
        assert calls == [(1, 2)]

    def test_positional_and_keyword_spellings_share_a_key(self, cache_env):
        calls = []
        compute = make_stage(calls)
        assert compute(1, 2) == compute(b=2, a=1)
        assert calls == [(1, 2)]

    def test_defaults_participate_in_the_key(self, cache_env):
        calls = []
        compute = make_stage(calls)
        assert compute(1) == compute(1, b=10)
        assert calls == [(1, 10)]

    def test_different_inputs_miss(self, cache_env):
        calls = []
        compute = make_stage(calls)
        compute(1)
        compute(2)
        assert calls == [(1, 10), (2, 10)]

    def test_ignored_params_do_not_split_the_key(self, cache_env):
        calls = []
        compute = make_stage(calls, ignore=("progress",))
        compute(1, progress="bar")
        compute(1, progress="dots")
        assert calls == [(1, 10)]

    def test_unignored_uncanonicalisable_param_raises(self, cache_env):
        calls = []
        compute = make_stage(calls)
        with pytest.raises(CanonicalizationError):
            compute(1, progress=object())

    def test_unknown_ignore_name_rejected_at_decoration(self):
        with pytest.raises(ValueError):
            @memoized_stage("s", ignore=("nope",))
            def fn(a):
                return a

    def test_cache_key_does_no_work(self, cache_env):
        calls = []
        compute = make_stage(calls)
        key = compute.cache_key(1, b=2)
        assert len(key) == 64
        assert calls == []
        assert key == compute.cache_key(b=2, a=1)

    def test_stage_attribute_exposed(self, cache_env):
        assert make_stage([]).stage == "test/stage"

    def test_disabled_store_calls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        reset_default_store()
        calls = []
        compute = make_stage(calls)
        compute(1)
        compute(1)
        assert calls == [(1, 10), (1, 10)]
        reset_default_store()

    def test_artifacts_land_in_the_configured_dir(self, cache_env):
        compute = make_stage([])
        compute(5)
        objects = list((cache_env / "objects").rglob("*.pkl"))
        assert len(objects) == 1


class Opaque:
    """A picklable argument with no canonical form, hence no cache key."""

    def __init__(self, n):
        self.n = n


@memoized_stage("test/map")
def mapped(a, b):
    """Module-level, so process workers can unpickle it by reference."""
    n = b.n if isinstance(b, Opaque) else b
    return (a, n, 10 * a + n)


def _events(root):
    """The store ledger's ``test/map`` tally (every process writes it)."""
    stages = ArtifactStore(root).lifetime_counters()["stages"]
    return stages.get("test/map", {"hits": 0, "misses": 0, "puts": 0})


@pytest.mark.parametrize("opaque", [False, True],
                         ids=["cacheable", "uncanonicalisable"])
@pytest.mark.parametrize("warmth", ["cold", "warm", "mixed"])
@pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
def test_map(cache_env, monkeypatch, path, warmth, opaque):
    tasks = [(i, Opaque(i + 1) if opaque and i == 2 else i + 1)
             for i in range(4)]
    cacheable = [i for i, (_, b) in enumerate(tasks) if not isinstance(b, Opaque)]
    warm = {"cold": [], "warm": cacheable, "mixed": cacheable[::2]}[warmth]
    for i in warm:
        mapped(*tasks[i])
    expected = [mapped.__wrapped__(*task) for task in tasks]
    labels = [f"t{i}" for i in range(len(tasks))]

    run = obs.new_run("memo-map")
    before = _events(cache_env)
    with forced(path):
        values, hits = mapped.map(tasks, labels=labels)
    after = _events(cache_env)
    obs.set_current_run(None)
    assert values == expected
    assert hits == [i in warm for i in range(len(tasks))]
    gets = after["hits"] + after["misses"] - before["hits"] - before["misses"]
    assert gets == len(cacheable)  # one lookup per cacheable task
    assert after["hits"] - before["hits"] == len(warm)
    assert after["puts"] - before["puts"] == len(cacheable) - len(warm)
    ran = [r.attrs["label"] for r in run.tracer.records if r.name.startswith("task:")]
    assert ran == [labels[i] for i in range(len(tasks)) if i not in warm]

    monkeypatch.setenv("REPRO_CACHE", "off")
    reset_default_store()
    with forced(path):
        values, hits = mapped.map(tasks, labels=labels)
    assert values == expected
    assert hits == [False] * len(tasks)
    assert _events(cache_env) == after


def test_map_computes_each_key_once_per_batch(cache_env):
    calls = []
    compute = make_stage(calls, stage="test/dedupe")
    # In-process, so the calls are counted here.
    with forced("in-process"):
        values, hits = compute.map([(1,), (1,), (2,)])
    assert values == [{"sum": 11}, {"sum": 11}, {"sum": 12}]
    assert hits == [False, False, False]
    assert calls == [(1, 10), (2, 10)]
    tally = ArtifactStore(cache_env).lifetime_counters()["stages"]["test/dedupe"]
    assert (tally["misses"], tally["puts"]) == (2, 2)

    values, hits = compute.map([(2,), (1,), (2,)])
    assert values == [{"sum": 12}, {"sum": 11}, {"sum": 12}]
    assert hits == [True, True, True]
    assert calls == [(1, 10), (2, 10)]
