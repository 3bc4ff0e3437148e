"""Checkpoint persistence.

TracInCP / TracSeq replay training through stored checkpoints, so each
checkpoint records both the parameter state (``.npz``) and the learning
rate in effect (``.json`` sidecar) — the step size :math:`\\eta_i` in
Eq. 1 of the paper.

Writes are atomic: both files are staged under temporary names and
renamed into place, metadata sidecar first.  A crash mid-save therefore
never leaves a ``.npz`` without its sidecar, and :meth:`checkpoints`
tolerates (skips, with a warning) orphans left behind by older writers
instead of failing the whole directory listing.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import CheckpointError
from repro.nn.module import Module
from repro.obs import Observability, get_observability
from repro.optim.optimizer import Optimizer


@dataclass(frozen=True)
class CheckpointRecord:
    """Metadata for one stored checkpoint.

    ``extra`` carries every sidecar field beyond ``step`` / ``lr`` —
    anything callers passed to ``save(..., extra=...)`` (the trainer's
    exact-resume state lives here) — so metadata round-trips through
    :meth:`CheckpointManager.checkpoints` instead of being readable
    only by re-parsing the ``.json`` by hand.
    """

    step: int
    lr: float
    path: Path
    extra: Mapping = field(default_factory=dict, compare=False)

    @property
    def opt_path(self) -> Path:
        """Optimizer-state arrays (``.opt.npz``); absent for param-only saves."""
        return self.path.with_suffix(".opt.npz")


class CheckpointManager:
    """Save/load model checkpoints in a directory.

    File layout: ``step-000042.npz`` (parameters) plus
    ``step-000042.json`` (step, learning rate, extra metadata).
    """

    def __init__(
        self,
        directory: str | Path,
        obs: Observability | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.obs = obs or get_observability()
        self._m_orphans = self.obs.metrics.counter("checkpoint.orphans_skipped")

    def save(
        self,
        model: Module,
        step: int,
        lr: float,
        extra: dict | None = None,
        optimizer: Optimizer | dict[str, np.ndarray] | None = None,
    ) -> CheckpointRecord:
        """Persist the model state at ``step`` trained with rate ``lr``.

        ``optimizer`` (an :class:`~repro.optim.Optimizer` or a raw
        ``state_dict()``) additionally writes ``step-XXXXXX.opt.npz``
        with the moment buffers, enabling bit-identical crash-resume.

        All files are written to temporaries and renamed into place —
        optimizer arrays, then sidecar, then parameters — so an
        interrupted save leaves either nothing visible or a complete
        checkpoint, never an orphan ``.npz`` (listing keys off the
        ``.json``-paired parameter file).
        """
        path = self.directory / f"step-{step:06d}.npz"
        meta_path = path.with_suffix(".json")
        opt_path = path.with_suffix(".opt.npz")
        tmp_npz = self.directory / f".step-{step:06d}.tmp.npz"
        tmp_json = self.directory / f".step-{step:06d}.tmp.json"
        tmp_opt = self.directory / f".step-{step:06d}.tmp.opt.npz"
        opt_state = optimizer.state_dict() if isinstance(optimizer, Optimizer) else optimizer
        try:
            np.savez(tmp_npz, **model.state_dict())
            meta = {"step": step, "lr": lr}
            if extra:
                meta.update(extra)
            tmp_json.write_text(json.dumps(meta))
            if opt_state is not None:
                np.savez(tmp_opt, **opt_state)
                os.replace(tmp_opt, opt_path)
            # Sidecar before parameters: a lone .json (or .opt.npz) is
            # invisible to checkpoints(), a lone .npz would be an orphan.
            os.replace(tmp_json, meta_path)
            os.replace(tmp_npz, path)
        finally:
            tmp_npz.unlink(missing_ok=True)
            tmp_json.unlink(missing_ok=True)
            tmp_opt.unlink(missing_ok=True)
        return CheckpointRecord(
            step=step, lr=lr, path=path,
            extra=MappingProxyType(dict(extra) if extra else {}),
        )

    def checkpoints(self) -> list[CheckpointRecord]:
        """All stored checkpoints, ordered by step.

        A ``.npz`` without its ``.json`` sidecar (partial write by an
        older/foreign writer) is skipped with a warning instead of
        failing the listing for the entire directory.
        """
        records = []
        for path in sorted(self.directory.glob("step-*.npz")):
            if path.name.endswith(".opt.npz"):
                continue  # optimizer-state sibling, not a checkpoint
            meta_path = path.with_suffix(".json")
            if not meta_path.exists():
                warnings.warn(
                    f"skipping orphan checkpoint {path} (no metadata sidecar)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._m_orphans.inc()
                self.obs.event("checkpoint.orphan_skipped", path=str(path))
                continue
            meta = json.loads(meta_path.read_text())
            extra = {k: v for k, v in meta.items() if k not in ("step", "lr")}
            records.append(
                CheckpointRecord(
                    step=int(meta["step"]),
                    lr=float(meta["lr"]),
                    path=path,
                    extra=MappingProxyType(extra),
                )
            )
        records.sort(key=lambda r: r.step)
        return records

    def latest(self) -> CheckpointRecord | None:
        records = self.checkpoints()
        return records[-1] if records else None

    @staticmethod
    def load_state(record: CheckpointRecord) -> dict[str, np.ndarray]:
        """Load the parameter arrays of a checkpoint."""
        if not record.path.exists():
            raise CheckpointError(f"checkpoint file missing: {record.path}")
        with np.load(record.path) as data:
            return {key: data[key] for key in data.files}

    @staticmethod
    def load_optimizer_state(record: CheckpointRecord) -> dict[str, np.ndarray] | None:
        """The checkpoint's optimizer arrays, or ``None`` for param-only saves."""
        if not record.opt_path.exists():
            return None
        with np.load(record.opt_path) as data:
            return {key: data[key] for key in data.files}

    @staticmethod
    def restore(model: Module, record: CheckpointRecord) -> None:
        """Load a checkpoint's parameters into ``model`` in place."""
        model.load_state_dict(CheckpointManager.load_state(record))
