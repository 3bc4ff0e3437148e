"""The weight artifact: the one on-disk format of weights, and checkpoints.

A saved :class:`~repro.core.ZiGong`, a training checkpoint and the
online loop's weight snapshots are each one ``.npz`` artifact of two
members (no pickle is read):

* ``__data__``: every array's C-order bytes, concatenated in sorted-key
  order into one ``uint8`` blob;
* ``__manifest__``: JSON stored as ``uint8``, holding the format
  version, an ``entries`` list of ``[key, dtype.str, shape, offset]``
  rows locating each array in the blob, and a SHA-256 fingerprint of
  the arrays.

The reader slices the arrays out of the blob and checks the
fingerprint, so a missing, truncated, foreign or swapped file raises
:class:`CheckpointError` naming the path.  Format 1, one ``.npz``
member per array beside the manifest, is still read: its fingerprint
is the same function of the arrays.  A save writes a temporary file,
fsyncs it and renames it into place: an interrupted save leaves the
previous artifact loadable.

TracInCP / TracSeq replay training through stored checkpoints, so a
checkpoint's manifest records the learning rate in effect, the step
size :math:`\\eta_i` in Eq. 1 of the paper.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from repro.errors import CheckpointError
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer

FORMAT = 2
MANIFEST = "__manifest__"
DATA = "__data__"
# Formats the reader accepts: 1 stored one member per array.
READABLE = (1, FORMAT)
# dtype kinds an entry may name: bool, signed and unsigned int, float, complex.
PLAIN_KINDS = "biufc"
OPTIMIZER_PREFIX = "optimizer/"


def fingerprint(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over ``arrays``: keys sorted, each key's dtype, shape and bytes."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        value = np.asarray(arrays[key])
        digest.update(f"{key}\0{value.dtype.str}\0{value.shape}\0".encode())
        digest.update(np.ascontiguousarray(value))  # the bytes of value.tobytes(), uncopied
    return digest.hexdigest()


def save_artifact(path: str | Path, arrays: Mapping[str, np.ndarray], manifest: Mapping) -> None:
    """Write ``arrays`` and ``manifest`` (JSON-able) to ``path`` atomically."""
    path = Path(path)
    arrays = {key: np.asarray(value) for key, value in arrays.items()}
    entries, offset = [], 0
    for key in sorted(arrays):
        value = arrays[key]
        entries.append([key, value.dtype.str, list(value.shape), offset])
        offset += value.nbytes
    blob = np.frombuffer(
        b"".join(np.ascontiguousarray(arrays[key]) for key, *_ in entries), dtype=np.uint8
    )
    stamped = {**manifest, "format": FORMAT, "sha256": fingerprint(arrays), "entries": entries}
    encoded = np.frombuffer(json.dumps(stamped).encode(), dtype=np.uint8)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **{DATA: blob, MANIFEST: encoded})
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_artifact(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and manifest of the artifact at ``path``, fingerprint checked.

    Each array is a writable, C-order copy with the saved dtype and shape.
    """
    path = Path(path)
    with _opened(path) as data:
        manifest = _manifest(path, data)
        if manifest["format"] == 1:
            arrays = {key: np.array(data[key], order="C") for key in data.files if key != MANIFEST}
        elif sorted(data.files) != [DATA, MANIFEST]:
            raise CheckpointError(f"{path}: members {sorted(data.files)}, not {[DATA, MANIFEST]}")
        else:
            arrays = _sliced(path, data[DATA], manifest.get("entries"))
    if fingerprint(arrays) != manifest.get("sha256"):
        raise CheckpointError(f"{path}: the arrays do not match the manifest's fingerprint")
    return arrays, manifest


def _sliced(path: Path, blob: np.ndarray, entries) -> dict[str, np.ndarray]:
    """The arrays ``entries`` locate in ``blob``, each copied out.

    ``entries`` is read from disk: a row that is malformed, repeats a
    key, names a dtype that is not bool or numeric, or reaches past the
    blob raises :class:`CheckpointError` naming ``path``.
    """
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: the manifest has no entries list")
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise CheckpointError(f"{path}: {DATA} is {blob.dtype} of shape {blob.shape}, not bytes")
    arrays = {}
    for entry in entries:
        try:
            key, dtype, shape, offset = entry
            dtype = np.dtype(dtype) if isinstance(dtype, str) else None
        except (TypeError, ValueError) as error:
            raise CheckpointError(f"{path}: malformed manifest entry {entry!r}") from error
        if (
            not isinstance(key, str)
            or key in arrays
            or dtype is None
            or dtype.kind not in PLAIN_KINDS
            or not isinstance(shape, list)
            or not all(isinstance(n, int) and n >= 0 for n in (offset, *shape))
        ):
            raise CheckpointError(f"{path}: refused manifest entry {entry!r}")
        count = math.prod(shape)
        end = offset + count * dtype.itemsize
        if end > blob.size:
            raise CheckpointError(
                f"{path}: entry {key!r} ends at byte {end}, past the {blob.size}-byte data"
            )
        arrays[key] = np.frombuffer(blob, dtype, count, offset).reshape(shape).copy()
    return arrays


def read_legacy_weights(path: str | Path) -> dict[str, np.ndarray]:
    """The arrays of a ``zigong.json`` directory's ``weights.npz`` (no manifest to check)."""
    with _opened(Path(path)) as data:
        return {key: data[key] for key in data.files}


@contextmanager
def _opened(path: Path) -> Iterator:
    """The open ``.npz`` at ``path``; any failure to read it names the path."""
    if not path.exists():
        raise CheckpointError(f"checkpoint file missing: {path}")
    try:
        with np.load(path) as data:
            yield data
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as error:
        raise CheckpointError(f"unreadable weight artifact {path}: {error}") from error


def _manifest(path: Path, data) -> dict:
    manifest = json.loads(data[MANIFEST].tobytes()) if MANIFEST in data.files else None
    if not isinstance(manifest, dict) or manifest.get("format") not in READABLE:
        raise CheckpointError(
            f"{path} is not a weight artifact of format {' or '.join(map(str, READABLE))} "
            "(a foreign file, or one written before the artifact format)"
        )
    return manifest


@dataclass(frozen=True)
class CheckpointRecord:
    """One stored checkpoint; ``extra`` is what ``save(..., extra=...)`` was
    given (the trainer's exact-resume state lives here)."""

    step: int
    lr: float
    path: Path
    extra: Mapping = field(default_factory=dict, compare=False)


class CheckpointManager:
    """Save/load model checkpoints in a directory.

    One artifact per checkpoint, ``step-000042.npz``: the parameters,
    the optimizer moments when given, and the step, learning rate and
    extra metadata in its manifest.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def save(
        self,
        model: Module,
        step: int,
        lr: float,
        extra: dict | None = None,
        optimizer: Optimizer | None = None,
    ) -> CheckpointRecord:
        """Persist the model state at ``step`` trained with rate ``lr``.

        ``optimizer`` adds its moment buffers to the artifact, enabling
        bit-identical crash-resume.
        """
        path = self.directory / f"step-{step:06d}.npz"
        arrays = model.state_dict()
        if optimizer is not None:
            arrays.update(
                (OPTIMIZER_PREFIX + key, value) for key, value in optimizer.state_dict().items()
            )
        extra = dict(extra or {})
        save_artifact(path, arrays, {"step": step, "lr": lr, "extra": extra})
        return CheckpointRecord(step=step, lr=lr, path=path, extra=MappingProxyType(extra))

    def checkpoints(self) -> list[CheckpointRecord]:
        """All stored checkpoints, ordered by step (only manifests are read).

        A ``step-*.npz`` that is not an artifact (a foreign file, or a
        checkpoint written before the artifact format) raises
        :class:`CheckpointError` naming it.
        """
        records = []
        for path in self.directory.glob("step-*.npz"):
            with _opened(path) as data:
                meta = _manifest(path, data)
            extra = MappingProxyType(meta["extra"])
            records.append(CheckpointRecord(int(meta["step"]), float(meta["lr"]), path, extra))
        return sorted(records, key=lambda r: r.step)

    def latest(self) -> CheckpointRecord | None:
        records = self.checkpoints()
        return records[-1] if records else None

    @staticmethod
    def restore(model: Module, record: CheckpointRecord) -> dict[str, np.ndarray] | None:
        """Load a checkpoint's parameters into ``model`` in place.

        Returns the optimizer moments saved with it, or ``None`` when it
        was saved without an optimizer.
        """
        arrays, _ = load_artifact(record.path)
        params, moments = {}, {}
        for key, value in arrays.items():
            if key.startswith(OPTIMIZER_PREFIX):
                moments[key[len(OPTIMIZER_PREFIX):]] = value
            else:
                params[key] = value
        model.load_state_dict(params)
        return moments or None
