"""Checkpoint save / load for models and experiment artefacts.

Checkpoints are single ``.npz`` archives holding a flat ``state_dict`` of
numpy arrays plus two reserved entries:

* ``__metadata__`` — caller-provided JSON metadata (configs, normalizers, ...),
* ``__schema__``   — the archive's schema name and integer version, written
  when the caller passes ``schema=``/``version=`` to :func:`save_checkpoint`.

Loading validates the archive *before* any weights reach
``Module.load_state_dict``: schema/version mismatches and missing or
unexpected keys raise :class:`CheckpointError` with a message naming the
offending keys, instead of failing deep inside the model.  A caller that
passes ``schema=`` (and ``version=``) accepts exactly that stamp; archives
without one, or with another, are refused.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "validate_state_keys",
    "save_json",
    "load_json",
]

_RESERVED_KEYS = ("__metadata__", "__schema__")


class CheckpointError(RuntimeError):
    """A checkpoint archive is unreadable, has the wrong schema, or bad keys."""


def _encode_json(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def save_checkpoint(path, state_dict: dict[str, np.ndarray], metadata: dict | None = None,
                    *, schema: str | None = None, version: int | None = None) -> pathlib.Path:
    """Write a model ``state_dict`` (plus optional JSON metadata) to ``path``.

    The checkpoint is a single ``.npz`` archive; metadata is stored as a JSON
    string under the reserved key ``__metadata__``.  Passing ``schema`` (and
    optionally ``version``) stamps the archive so :func:`load_checkpoint` can
    reject archives of the wrong kind with a clear :class:`CheckpointError`.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for reserved in _RESERVED_KEYS:
        if reserved in state_dict:
            raise CheckpointError(f"state dict may not use the reserved key {reserved!r}")
    payload = {key: np.asarray(value) for key, value in state_dict.items()}
    payload["__metadata__"] = _encode_json(metadata or {})
    if schema is not None:
        payload["__schema__"] = _encode_json(
            {"schema": str(schema), "version": int(version if version is not None else 1)}
        )
    np.savez_compressed(path, **payload)
    return path


def _open_archive(path) -> pathlib.Path:
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    return path


def validate_state_keys(state: dict, expected_keys, context: str = "checkpoint") -> None:
    """Raise :class:`CheckpointError` unless ``state`` holds exactly ``expected_keys``."""
    expected = set(expected_keys)
    present = set(state)
    missing = sorted(expected - present)
    unexpected = sorted(present - expected)
    if missing or unexpected:
        raise CheckpointError(
            f"{context} key mismatch: missing={missing}, unexpected={unexpected}"
        )


def load_checkpoint(path, *, schema: str | None = None, version: int | None = None,
                    expected_keys=None) -> tuple[dict[str, np.ndarray], dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Parameters
    ----------
    schema:
        When given, the archive must carry exactly this schema stamp;
        schema-less archives and foreign schemas raise
        :class:`CheckpointError`.
    version:
        When given (requires ``schema``), the stored schema version must be
        exactly this integer.
    expected_keys:
        When given, the loaded state keys must equal this set; missing or
        unexpected keys raise :class:`CheckpointError` naming them, instead
        of failing later inside ``Module.load_state_dict``.
    """
    path = _open_archive(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            metadata_bytes = archive["__metadata__"].tobytes() if "__metadata__" in archive else b"{}"
            stamp = (json.loads(archive["__schema__"].tobytes().decode("utf-8"))
                     if "__schema__" in archive else None)
            state = {key: archive[key] for key in archive.files if key not in _RESERVED_KEYS}
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"checkpoint {path} is not a readable archive: {exc}") from exc
    metadata = json.loads(metadata_bytes.decode("utf-8") or "{}")

    if schema is not None:
        found = None if stamp is None else stamp.get("schema")
        if found != schema:
            raise CheckpointError(
                f"checkpoint {path} has schema {found!r}, expected {schema!r}"
            )
        if version is not None and stamp.get("version") != int(version):
            raise CheckpointError(
                f"checkpoint {path} has schema version {stamp.get('version')!r}, "
                f"expected {int(version)}"
            )
    if expected_keys is not None:
        validate_state_keys(state, expected_keys, context=f"checkpoint {path}")
    return state, metadata


def save_json(path, payload: dict) -> pathlib.Path:
    """Write a JSON document (used for experiment result records)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_coerce))
    return path


def load_json(path) -> dict:
    """Read a JSON document written by :func:`save_json`."""
    return json.loads(pathlib.Path(path).read_text())


def _coerce(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)!r}")
