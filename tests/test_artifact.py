"""The weight artifact's format: round trips, the format-1 reader, refusals.

Format 2 stores every array in one ``__data__`` blob located by the
manifest's ``entries``; format 1 (one member per array) is still read.
Both are checked against one fingerprint definition, and every
refusal names the file.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CheckpointError
from repro.nn import MistralTiny
from repro.optim import AdamW
from repro.training import CheckpointManager
from repro.training.checkpoint import fingerprint, load_artifact, save_artifact

DTYPES = (np.float32, np.float64, np.int8, np.int64, np.bool_)


def save_format_1(path, arrays, manifest) -> None:
    """Write ``arrays`` in the per-member layout of format 1, which nothing writes now."""
    stamped = {**manifest, "format": 1, "sha256": fingerprint(arrays)}
    encoded = np.frombuffer(json.dumps(stamped).encode(), dtype=np.uint8)
    np.savez(path, **arrays, __manifest__=encoded)


def members(path) -> tuple[np.ndarray, dict]:
    """The raw ``__data__`` blob and decoded manifest of a format-2 file."""
    with np.load(path) as data:
        return data["__data__"], json.loads(data["__manifest__"].tobytes())


def rewrite(path, blob: np.ndarray, manifest: dict) -> None:
    """Replace a format-2 file's members by hand, as no writer of the library would."""
    encoded = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, __data__=blob, __manifest__=encoded)


def refused(path, reason: str = ""):
    """Expect a :class:`CheckpointError` naming ``path`` and then ``reason``."""
    return pytest.raises(CheckpointError, match=f"{re.escape(str(path))}.*{reason}")


@st.composite
def stored_array(draw) -> np.ndarray:
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    value = draw(hnp.arrays(dtype, shape))
    # Fortran order only exists from 2-d on (int8 weights are held so).
    return np.asfortranarray(value) if value.ndim >= 2 and draw(st.booleans()) else value


state_dicts = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}(/[a-z0-9_]{1,6})?", fullmatch=True),
    stored_array(),
    max_size=6,
)


def assert_restored(got: dict, saved: dict) -> None:
    """``got`` holds ``saved``'s arrays as writable, C-order copies that own their memory."""
    assert sorted(got) == sorted(saved)
    for key, value in saved.items():
        array = got[key]
        assert (array.dtype, array.shape) == (value.dtype, value.shape), key
        assert array.tobytes() == value.tobytes(), key
        assert array.flags.c_contiguous and array.flags.writeable and array.flags.owndata, key


class TestRoundTrip:
    @given(state_dicts)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_in_either_format(self, tmp_path_factory, arrays):
        directory = tmp_path_factory.mktemp("artifact")
        save_artifact(directory / "two.npz", arrays, {"step": 3})
        save_format_1(directory / "one.npz", arrays, {"step": 3})
        two, two_manifest = load_artifact(directory / "two.npz")
        one, one_manifest = load_artifact(directory / "one.npz")
        assert_restored(two, arrays)
        assert_restored(one, arrays)
        assert two_manifest["format"] == 2 and one_manifest["format"] == 1
        assert two_manifest["sha256"] == one_manifest["sha256"] == fingerprint(arrays)
        assert two_manifest["step"] == 3

    def test_a_checkpoint_fingerprints_alike_in_both_formats(self, tiny_model, tmp_path):
        """Model weights, Fortran int8 and a 0-d optimizer step count."""
        optimizer = AdamW(tiny_model.parameters(), lr=1e-3)
        record = CheckpointManager(tmp_path).save(tiny_model, step=1, lr=0.1, optimizer=optimizer)
        arrays, manifest = load_artifact(record.path)
        weight_q = np.arange(-6, 6, dtype=np.int8).reshape(3, 4)
        arrays["quantized/weight_q"] = np.asfortranarray(weight_q)
        assert arrays["optimizer/step_count"].shape == ()
        save_artifact(tmp_path / "two.npz", arrays, {})
        save_format_1(tmp_path / "one.npz", arrays, {})
        two, two_manifest = load_artifact(tmp_path / "two.npz")
        one, one_manifest = load_artifact(tmp_path / "one.npz")
        assert two_manifest["sha256"] == one_manifest["sha256"] == fingerprint(arrays)
        assert_restored(two, arrays)
        assert_restored(one, arrays)

    def test_a_format_1_file_written_by_np_savez_loads(self, tiny_model, tmp_path):
        path = tmp_path / "step-000001.npz"
        state = tiny_model.state_dict()
        save_format_1(path, state, {"step": 1, "lr": 0.1, "extra": {}})
        assert [r.step for r in CheckpointManager(tmp_path).checkpoints()] == [1]
        arrays, _ = load_artifact(path)
        assert_restored(arrays, state)
        other = MistralTiny(tiny_model.config, rng=5)
        CheckpointManager.restore(other, CheckpointManager(tmp_path).latest())
        for name, value in other.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_two_members_on_disk(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        save_artifact(path, tiny_model.state_dict(), {})
        with np.load(path) as data:
            assert sorted(data.files) == ["__data__", "__manifest__"]


class TestRefusals:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "weights.npz"
        save_artifact(path, {"a": np.full(256, 0x5A, dtype=np.uint8), "b": np.arange(4.0)}, {})
        return path

    def test_a_flipped_data_byte_in_the_file(self, path):
        raw = bytearray(path.read_bytes())
        raw[raw.index(bytes([0x5A]) * 256) + 100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with refused(path):
            load_artifact(path)

    def test_a_flipped_data_byte_in_a_well_formed_zip(self, path):
        blob, manifest = members(path)
        blob = blob.copy()
        blob[100] ^= 0xFF
        rewrite(path, blob, manifest)
        with refused(path, "fingerprint"):
            load_artifact(path)

    @pytest.mark.parametrize("cut", [40, "half", "last byte"])
    def test_a_truncated_file(self, path, cut):
        raw = path.read_bytes()
        keep = {"half": len(raw) // 2, "last byte": len(raw) - 1}.get(cut, cut)
        path.write_bytes(raw[:keep])
        with refused(path):
            load_artifact(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (["b", "<f8", [4], 264], "past the"),  # ends 8 bytes beyond the blob
            (["b", "<f8", [5], 256], "past the"),
            (["b", "<f8", [4], -8], "refused"),
            (["b", "|O", [4], 256], "refused"),
            (["b", "<U1", [4], 256], "refused"),
            (["b", [["x", "<f8"]], [4], 256], "refused"),
            (["b", "<f8", [-4], 256], "refused"),
            (["b", "<f8", 4, 256], "refused"),
            (["a", "<f8", [4], 256], "refused"),  # a repeated key
            (["b", "<f8", [4]], "malformed"),
            (["b", "not-a-dtype", [4], 256], "malformed"),
        ],
    )
    def test_an_entries_row_is_refused(self, path, entry, message):
        blob, manifest = members(path)
        assert manifest["entries"][1] == ["b", "<f8", [4], 256]
        manifest["entries"][1] = entry
        rewrite(path, blob, manifest)
        with refused(path, message):
            load_artifact(path)

    def test_a_manifest_without_entries(self, path):
        blob, manifest = members(path)
        del manifest["entries"]
        rewrite(path, blob, manifest)
        with refused(path):
            load_artifact(path)

    def test_data_that_is_not_bytes(self, path):
        blob, manifest = members(path)
        rewrite(path, blob.view(np.float64), manifest)
        with refused(path, "not bytes"):
            load_artifact(path)

    def test_a_member_beside_the_two(self, path):
        blob, manifest = members(path)
        encoded = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, __data__=blob, __manifest__=encoded, extra=np.zeros(2))
        with refused(path):
            load_artifact(path)

    def test_an_unknown_format(self, path):
        blob, manifest = members(path)
        rewrite(path, blob, {**manifest, "format": 3})
        with refused(path):
            load_artifact(path)
