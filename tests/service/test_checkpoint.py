"""Tests for the durable per-tenant checkpoint store."""

import json

import pytest

from repro.core.state import StateError, StateFormatError
from repro.service import CheckpointStore

STATE = {"fmt": "tenant-session/v1", "tenant": "acme", "queue": []}


def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.save("acme", STATE, seq=42)
    assert path.exists()
    assert store.load("acme") == STATE
    assert store.writes == 1
    assert store.loads == 1
    # The envelope carries the watermark for observability.
    envelope = json.loads(path.read_text())
    assert envelope["seq"] == 42
    assert envelope["fmt"] == CheckpointStore.STATE_FMT


def test_saved_file_is_compact_json_dumps(tmp_path):
    """The file is exactly the compact ``json.dumps`` of the envelope
    plus a newline (the format ``json.dump`` wrote before)."""
    state = dict(
        STATE,
        nested={"floats": [0.1, 1e-9, 2.5], "none": None, "ok": True},
        symbols="Āǿ☃",
    )
    store = CheckpointStore(tmp_path)
    path = store.save("acme", state, seq=7)
    envelope = {
        "fmt": CheckpointStore.STATE_FMT,
        "tenant": "acme",
        "seq": 7,
        "state": state,
    }
    expected = json.dumps(envelope, separators=(",", ":")) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert store.load("acme") == state


def test_load_missing_returns_none(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load("nobody") is None
    assert store.loads == 0


def test_save_overwrites_atomically(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("acme", dict(STATE, marker=1), seq=1)
    store.save("acme", dict(STATE, marker=2), seq=2)
    assert store.load("acme")["marker"] == 2
    # No temp files left behind.
    assert [p.name for p in tmp_path.glob("*.tmp")] == []


def test_tenant_ids_are_sanitized_into_filenames(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.path_for("cloud/eu-west 1")
    assert path.name == "cloud_eu-west_1.checkpoint.json"
    assert store.path_for("") .name == "_.checkpoint.json"


def test_colliding_sanitized_ids_fail_loudly(tmp_path):
    store = CheckpointStore(tmp_path)
    # "a/b" and "a_b" share a filename; loading the other tenant must
    # refuse rather than silently restore the wrong stream position.
    store.save("a/b", dict(STATE, tenant="a/b"), seq=1)
    assert store.path_for("a/b") == store.path_for("a_b")
    with pytest.raises(StateError, match="belongs to tenant"):
        store.load("a_b")


def test_corrupt_checkpoint_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text("{not json")
    with pytest.raises(StateError, match="unreadable"):
        store.load("acme")


def test_foreign_envelope_fmt_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text(
        json.dumps({"fmt": "gretel-checkpoint/v99", "tenant": "acme",
                    "seq": 0, "state": {}})
    )
    with pytest.raises(StateFormatError, match="newer"):
        store.load("acme")


def test_envelope_without_state_dict_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    store.path_for("acme").write_text(
        json.dumps({"fmt": CheckpointStore.STATE_FMT, "tenant": "acme",
                    "seq": 0, "state": None})
    )
    with pytest.raises(StateError, match="no state dict"):
        store.load("acme")


def test_tenants_listing_and_delete(tmp_path):
    store = CheckpointStore(tmp_path)
    for tenant in ("beta", "alpha", "gamma"):
        store.save(tenant, dict(STATE, tenant=tenant), seq=0)
    (tmp_path / "junk.checkpoint.json").write_text("not json")
    assert store.tenants() == ["alpha", "beta", "gamma"]
    assert store.delete("beta")
    assert not store.delete("beta")
    assert store.tenants() == ["alpha", "gamma"]
