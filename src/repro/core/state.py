"""The uniform state-lifecycle protocol behind checkpoint/restore.

Every stateful layer of the analysis chain — the sliding window, the
level-shift detectors, the matching sessions, the pipeline stages and
the assembled pipeline itself — exposes the same two methods:

``snapshot_state() -> dict``
    A *pure-JSON* rendering (dicts, lists, strings, numbers, bools,
    ``None``) of everything the layer needs to resume mid-stream.
    Every state dict carries a ``fmt`` tag of the shape
    ``"<layer>/v<N>"`` so persisted checkpoints are versioned.

``restore_state(state) -> None``
    Rehydrates a *freshly constructed, identically configured*
    instance from such a dict.  Restoration is **bit-identical**: an
    analyzer frozen mid-stream and rehydrated produces exactly the
    reports, alarms and perf counters the uninterrupted run would —
    ``repro.oracle.verify_checkpoint`` is the differential
    proof.

Two deliberate exclusions keep checkpoints small and the protocol
honest:

* **Collaborators are not state.**  The fingerprint library, symbol
  table, API catalog, metadata store and config are construction-time
  inputs, re-provided when the fresh instance is built; the pipeline
  state embeds a config fingerprint purely as a mismatch guard.
* **Published reports are not state.**  Reports were already delivered
  to downstream listeners when emitted; a checkpoint captures only the
  in-flight stream position.  (This is also what lets a long-lived
  service session keep bounded memory — see ``docs/service.md``.)

:func:`require_state` is the shared format/version check: unknown
layer names and *newer* versions raise :class:`StateFormatError`
(forward compatibility is refused loudly, not guessed at).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Protocol, Tuple

__all__ = [
    "Checkpointable",
    "StateError",
    "StateFormatError",
    "decode_ts",
    "encode_ts",
    "parse_fmt",
    "require_state",
]

_NEG_INF = float("-inf")


class StateError(ValueError):
    """A state dict cannot be restored into this instance.

    Raised for structural problems *other* than the fmt tag: parameter
    mismatches (restoring a window-24 detector state into a window-48
    detector), wrong collaborator shapes, corrupted payloads.
    """


class StateFormatError(StateError):
    """The ``fmt`` tag is missing, malformed, foreign, or too new."""


class Checkpointable(Protocol):
    """Structural type of every layer speaking the state protocol."""

    def snapshot_state(self) -> Dict[str, Any]:
        """A versioned, JSON-serializable rendering of live state."""
        ...

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh, identically configured instance."""
        ...


def parse_fmt(tag: object) -> Tuple[str, int]:
    """Split a ``"<layer>/v<N>"`` tag into ``(layer, version)``."""
    if not isinstance(tag, str) or "/v" not in tag:
        raise StateFormatError(f"malformed state fmt tag: {tag!r}")
    layer, _, version = tag.rpartition("/v")
    if not layer or not version.isdigit():
        raise StateFormatError(f"malformed state fmt tag: {tag!r}")
    return layer, int(version)


def require_state(state: Mapping[str, Any], expected: str) -> None:
    """Check a state dict's ``fmt`` against ``expected``.

    ``expected`` is the layer's *current* tag (e.g.
    ``"sliding-window/v1"``).  The layer name must match exactly; the
    persisted version must not exceed the current one (older versions
    are the caller's chance to migrate, newer ones are refused).
    """
    if not isinstance(state, Mapping):
        raise StateFormatError(
            f"state must be a mapping, got {type(state).__name__}"
        )
    tag = state.get("fmt")
    if tag is None:
        raise StateFormatError(f"state dict has no fmt tag: {expected}")
    layer, version = parse_fmt(tag)
    want_layer, want_version = parse_fmt(expected)
    if layer != want_layer:
        raise StateFormatError(
            f"state fmt {tag!r} is not a {want_layer!r} state"
        )
    if version > want_version:
        raise StateFormatError(
            f"state fmt {tag!r} is newer than supported {expected!r}"
        )


def encode_ts(value: float) -> Optional[float]:
    """JSON-safe encoding of a timestamp that may be ``-inf``.

    Cooldown deadlines initialize to ``-inf`` ("never on cooldown"),
    which strict JSON cannot carry; ``None`` stands in for it.
    """
    return None if value == _NEG_INF else value


def decode_ts(value: Optional[float]) -> float:
    """Inverse of :func:`encode_ts`."""
    return _NEG_INF if value is None else float(value)
