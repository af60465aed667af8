"""Artifact store and cache-key derivation unit tests."""

from __future__ import annotations

import dataclasses
import enum
import gc
import hashlib
import json
import pickle

import pytest

from repro.artifacts import keys
from repro.artifacts.keys import (
    CanonicalizationError,
    canonicalize,
    stage_key,
)
from repro.artifacts.store import (
    ArtifactStore,
    cache_enabled,
    cache_root,
    default_store,
    reset_default_store,
)


class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    y: int


class Fingerprinted:
    """Identity is the fingerprint, not the (unpicklable) internals."""

    def __init__(self, ident):
        self.ident = ident
        self.junk = lambda: None  # uncanonicalisable on purpose

    def cache_fingerprint(self):
        return {"ident": self.ident}


# ---------------------------------------------------------------------- keys


class TestCanonicalize:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert canonicalize(value) == value

    def test_enum_by_class_and_member(self):
        assert canonicalize(Colour.RED) == {"__enum__": "Colour", "member": "RED"}
        assert canonicalize(Colour.RED) != canonicalize(Colour.BLUE)

    def test_dict_is_order_insensitive(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_set_is_order_insensitive(self):
        assert canonicalize({3, 1, 2}) == canonicalize({2, 3, 1})

    def test_dataclass_carries_type_name(self):
        form = canonicalize(Point(1, 2))
        assert form["__dataclass__"] == "Point"
        assert form["fields"]["x"] == 1

    def test_fingerprint_beats_structural_form(self):
        # A fingerprinted dataclass must use its fingerprint, not its fields.
        @dataclasses.dataclass
        class Job:
            order: tuple

            def cache_fingerprint(self):
                return {"order": list(self.order)}

        form = canonicalize(Job(("b", "a")))
        assert form["__fingerprint__"] == "Job"
        assert form["value"]["__map__"][0][1] == ["b", "a"]

    def test_unknown_types_raise(self):
        with pytest.raises(CanonicalizationError):
            canonicalize(object())

    def test_bytes_canonicalise_by_hex(self):
        assert canonicalize(b"\x00\xff") == {"__bytes__": "00ff"}

    def test_canonical_form_is_json_serialisable(self):
        form = canonicalize({"p": Point(1, 2), "c": Colour.BLUE,
                             "f": Fingerprinted([1, 2])})
        json.dumps(form, sort_keys=True)


class TestStageKey:
    def test_stable_and_hex(self):
        key = stage_key("sim/run_week", {"seed": 7})
        assert key == stage_key("sim/run_week", {"seed": 7})
        assert len(key) == 64
        int(key, 16)

    def test_stage_name_differentiates(self):
        config = {"seed": 7}
        assert stage_key("a", config) != stage_key("b", config)

    def test_version_differentiates(self, monkeypatch):
        config = {"seed": 7}
        monkeypatch.setattr(keys, "CODE_VERSION", "1")
        first = stage_key("s", config)
        monkeypatch.setattr(keys, "CODE_VERSION", "2")
        assert stage_key("s", config) != first


# --------------------------------------------------------------------- store


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


KEY = "ab" + "0" * 62


class TestArtifactStore:
    def test_roundtrip(self, store):
        assert not store.has(KEY)
        store.put(KEY, {"rows": [1, 2, 3]}, stage="s")
        assert store.has(KEY)
        assert store.get(KEY, stage="s") == {"rows": [1, 2, 3]}

    def test_miss_returns_default(self, store):
        sentinel = object()
        assert store.get(KEY, sentinel, stage="s") is sentinel
        assert store.stats.misses == 1

    def test_sharded_layout(self, store):
        path = store.object_path(KEY)
        assert path.parent.name == "ab"
        assert path.suffix == ".pkl"

    def test_corrupt_object_is_a_miss_and_healed(self, store):
        path = store.object_path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert store.get(KEY, None, stage="s") is None
        assert not path.exists()
        store.put(KEY, 42, stage="s")
        assert store.get(KEY, stage="s") == 42

    def test_no_temp_files_left_behind(self, store):
        store.put(KEY, list(range(100)), stage="s")
        leftovers = list(store.objects_dir.rglob("*.tmp"))
        assert leftovers == []

    def test_unpicklable_value_writes_nothing(self, store):
        with pytest.raises(Exception):
            store.put(KEY, lambda: None, stage="s")
        assert not store.has(KEY)

    def test_session_counters(self, store):
        store.get(KEY, None, stage="s")
        size = store.put(KEY, "x" * 100, stage="s")
        store.get(KEY, None, stage="s")
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1
        assert store.stats.bytes_written == size
        assert store.stats.bytes_read == size

    def test_ledger_survives_instances(self, store):
        store.put(KEY, 1, stage="alpha")
        store.get(KEY, None, stage="alpha")
        other = ArtifactStore(store.root)
        lifetime = other.lifetime_counters()
        assert lifetime["total"]["puts"] == 1
        assert lifetime["total"]["hits"] == 1
        assert lifetime["stages"]["alpha"]["hits"] == 1

    def test_stats_summary_shape(self, store):
        store.put(KEY, 1, stage="s")
        summary = store.stats_summary()
        assert set(summary) == {"root", "disk", "session", "lifetime"}
        assert summary["disk"]["objects"] == 1
        assert summary["disk"]["total_bytes"] > 0

    def test_clear(self, store):
        store.put(KEY, 1, stage="s")
        assert store.clear() == 1
        assert not store.has(KEY)
        assert store.disk_stats()["objects"] == 0

    def test_gc_evicts_oldest_first(self, store, tmp_path):
        import os

        keys = [f"{i:02d}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, "x" * 1000, stage="s")
            os.utime(store.object_path(key), (1000.0 + i, 1000.0 + i))
        size = store.object_path(keys[0]).stat().st_size
        removed, freed = store.gc(max_bytes=2 * size)
        assert removed == 1
        assert freed == size
        assert not store.has(keys[0])  # oldest gone
        assert store.has(keys[1]) and store.has(keys[2])

    def test_gc_noop_under_budget(self, store):
        store.put(KEY, 1, stage="s")
        assert store.gc(max_bytes=10 ** 9) == (0, 0)

    def test_gc_negative_budget_raises(self, store):
        with pytest.raises(ValueError):
            store.gc(max_bytes=-1)

    def test_hit_refreshes_mtime(self, store):
        import os

        store.put(KEY, 1, stage="s")
        path = store.object_path(KEY)
        os.utime(path, (1000.0, 1000.0))
        store.get(KEY, stage="s")
        assert path.stat().st_mtime > 1000.0

    def test_values_use_highest_pickle_protocol(self, store):
        store.put(KEY, {"a": 1}, stage="s")
        body = store.object_path(KEY).read_bytes()[32:]  # past the checksum
        assert body[:2] == pickle.PROTO + bytes([pickle.HIGHEST_PROTOCOL])
        assert pickle.loads(body) == {"a": 1}


class TestIntegrity:
    """Every object carries the sha256 of its pickle, checked on read."""

    def test_object_is_checksum_then_pickle(self, store):
        size = store.put(KEY, [1, 2, 3], stage="s")
        blob = store.object_path(KEY).read_bytes()
        assert len(blob) == size
        assert blob[:32] == hashlib.sha256(blob[32:]).digest()

    @pytest.mark.parametrize("offset", [0, 31, 32, -1])
    def test_flipped_byte_is_quarantined_as_a_miss(self, store, offset):
        # The checksum itself, its last byte, the first pickle byte and
        # the pickle's STOP opcode.
        store.put(KEY, {"rows": list(range(50))}, stage="s")
        path = store.object_path(KEY)
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.get(KEY, "MISS", stage="s") == "MISS"
        assert store.stats.quarantined == 1
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1

    def test_blob_without_the_header_is_quarantined(self, store):
        # A raw pickle, as stores wrote before the checksum: it loads as
        # a pickle but fails the check.
        path = store.object_path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"a": 1}, protocol=pickle.HIGHEST_PROTOCOL))
        assert store.get(KEY, "MISS", stage="s") == "MISS"
        assert store.stats.quarantined == 1
        assert not path.exists()

    def test_valid_checksum_over_a_bad_pickle_is_quarantined(self, store):
        body = b"not a pickle"
        path = store.object_path(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(hashlib.sha256(body).digest() + body)
        assert store.get(KEY, "MISS", stage="s") == "MISS"
        assert store.stats.quarantined == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_is_restored(self, store, enabled):
        # Cyclic GC pauses while a blob unpickles, also when it fails to.
        store.put(KEY, {"a": 1}, stage="s")
        other = "cd" + "0" * 62
        path = store.object_path(other)
        path.parent.mkdir(parents=True)
        body = b"not a pickle"
        path.write_bytes(hashlib.sha256(body).digest() + body)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert store.get(KEY, stage="s") == {"a": 1}
            assert gc.isenabled() is enabled
            assert store.get(other, "MISS", stage="s") == "MISS"
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestDefaultStore:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        reset_default_store()
        assert not cache_enabled()
        assert default_store() is None

    def test_enabled_uses_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_default_store()
        store = default_store()
        assert store is not None
        assert store.root == tmp_path
        assert cache_root() == tmp_path
        # Same config -> same instance (session counters survive).
        assert default_store() is store
        reset_default_store()

    def test_reconfigured_env_rebuilds(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "on")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        reset_default_store()
        first = default_store()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = default_store()
        assert first is not second
        assert second.root == tmp_path / "b"
        reset_default_store()


def _read_corrupt_slot(args):
    """Worker: read one (possibly corrupt) key; report what happened."""
    root, key = args
    store = ArtifactStore(root)
    value = store.get(key, "MISS", stage="heal")
    return (value, store.stats.quarantined)


class TestQuarantineHealing:
    def test_two_processes_race_on_one_truncated_object(self, tmp_path):
        # One truncated object, two concurrent readers.  Whatever the
        # interleaving — both read the corrupt bytes, or the loser finds
        # the slot already quarantined — both see a plain miss, exactly
        # one quarantine move wins, and a subsequent put heals the slot
        # while the bad bytes stay inspectable.
        from concurrent.futures import ProcessPoolExecutor

        store = ArtifactStore(tmp_path)
        store.put(KEY, {"payload": "original"}, stage="heal")
        path = store.object_path(KEY)
        path.write_bytes(path.read_bytes()[:5])

        args = [(str(tmp_path), KEY)] * 2
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_read_corrupt_slot, args))

        assert [value for value, _ in outcomes] == ["MISS", "MISS"]
        assert sum(q for _, q in outcomes) == 1
        assert len(list(store.quarantine_dir.iterdir())) == 1
        store.put(KEY, {"payload": "healed"}, stage="heal")
        assert store.get(KEY, stage="heal") == {"payload": "healed"}
        lifetime = store.lifetime_counters()
        assert lifetime["total"]["quarantined"] == 1
        assert lifetime["stages"]["heal"]["misses"] == 2

    def test_writer_heals_while_reader_quarantines(self, tmp_path):
        # Sequential interleaving of the same race: the reader quarantines
        # the corrupt object while a fresh writer has already re-put it.
        reader = ArtifactStore(tmp_path)
        writer = ArtifactStore(tmp_path)
        reader.put(KEY, [1, 2, 3], stage="s")
        path = reader.object_path(KEY)
        path.write_bytes(b"\x80garbage")
        writer.put(KEY, [4, 5, 6], stage="s")  # heals before the reader reads
        assert reader.get(KEY, stage="s") == [4, 5, 6]
        assert reader.stats.quarantined == 0
