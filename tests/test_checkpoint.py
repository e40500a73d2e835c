"""Checkpoint codec: byte-exact round trips and corruption detection."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapegan.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointBlob,
    load_checkpoint,
    save_checkpoint,
)
from shapegan.config import TrainConfig
from shapegan.errors import DataError
from shapegan.trainer import (
    TrainerState,
    blob_to_state,
    build_adam,
    build_nets,
    state_to_blob,
)


def sample_blob():
    rng = np.random.default_rng(0)
    tensors = {
        "encoder/conv0.w": rng.normal(size=(4, 3, 3, 3)),
        "encoder/conv0.b": rng.normal(size=(4,)),
        "adam/critic/step": np.array(7.0),  # rank-0 tensors must survive too
        "unicode/προφίλ": rng.normal(size=(2, 2)),
    }
    rng_state = {
        "bit_generator": "PCG64",
        "state": {"state": 2**90, "inc": 13},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return CheckpointBlob(tensors, "seed = 1\nbatch_size = 4\n", rng_state)


def test_round_trip_preserves_everything(tmp_path):
    blob = sample_blob()
    path = save_checkpoint(tmp_path / "c.sgck", blob)
    back = load_checkpoint(path)
    assert list(back.tensors) == list(blob.tensors)  # order too
    for name in blob.tensors:
        assert np.array_equal(back.tensors[name], blob.tensors[name])
        assert back.tensors[name].dtype == np.float64
    assert back.config_text == blob.config_text
    assert back.rng_state == blob.rng_state


def encode_layout(blob):
    """The documented version-1 layout, written out field by field."""
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(blob.tensors))]
    for name, arr in blob.tensors.items():
        raw = name.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw, struct.pack("<I", arr.ndim)]
        out += [struct.pack("<Q", d) for d in arr.shape]
        out += [struct.pack("<d", x) for x in arr.flat]  # row-major
    for text in (blob.config_text, json.dumps(blob.rng_state, sort_keys=True)):
        raw = text.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw]
    return b"".join(out)


def test_saved_bytes_follow_the_documented_layout(tmp_path):
    blob = sample_blob()
    rng = np.random.default_rng(1)
    blob.tensors["rank4"] = rng.normal(size=(2, 3, 1, 4))
    blob.tensors["fortran"] = np.asfortranarray(rng.normal(size=(3, 5)))
    blob.tensors["strided"] = rng.normal(size=(4, 6))[::2, 1::2]
    blob.tensors["empty"] = np.zeros((0, 3))
    assert {a.ndim for a in blob.tensors.values()} >= {0, 1, 2, 4}
    path = save_checkpoint(tmp_path / "c.sgck", blob)
    assert path.read_bytes() == encode_layout(blob)
    back = load_checkpoint(path)
    assert back.tensors["adam/critic/step"].shape == ()
    assert np.array_equal(back.tensors["fortran"], blob.tensors["fortran"])


def test_save_load_save_is_byte_identical(tmp_path):
    a = tmp_path / "a.sgck"
    b = tmp_path / "b.sgck"
    save_checkpoint(a, sample_blob())
    save_checkpoint(b, load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()


def test_big_integer_rng_state_survives(tmp_path):
    # PCG64 state words exceed 64 bits; JSON carries them as plain ints
    blob = sample_blob()
    path = save_checkpoint(tmp_path / "c.sgck", blob)
    assert load_checkpoint(path).rng_state["state"]["state"] == 2**90


def test_no_temp_file_left_behind(tmp_path):
    save_checkpoint(tmp_path / "c.sgck", sample_blob())
    assert [p.name for p in tmp_path.iterdir()] == ["c.sgck"]


def test_loaded_tensors_are_writable_copies(tmp_path):
    path = save_checkpoint(tmp_path / "c.sgck", sample_blob())
    back = load_checkpoint(path)
    back.tensors["encoder/conv0.b"][0] = 99.0  # must not raise


def test_bad_magic(tmp_path):
    path = tmp_path / "x.sgck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "x.sgck"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION + 1, 0))
    with pytest.raises(DataError, match=f"version {VERSION + 1}"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [3, 7, 11, 25, 60])
def test_truncation_always_detected(tmp_path, keep):
    full = save_checkpoint(tmp_path / "full.sgck", sample_blob()).read_bytes()
    cut = tmp_path / "cut.sgck"
    cut.write_bytes(full[:keep])
    with pytest.raises(DataError, match="truncated checkpoint"):
        load_checkpoint(cut)


def test_truncation_names_what_was_being_read(tmp_path):
    full = save_checkpoint(tmp_path / "full.sgck", sample_blob()).read_bytes()
    cut = tmp_path / "cut.sgck"
    cut.write_bytes(full[:4])
    with pytest.raises(DataError, match="reading version"):
        load_checkpoint(cut)


def test_trailing_bytes_rejected(tmp_path):
    path = save_checkpoint(tmp_path / "c.sgck", sample_blob())
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DataError, match="4 trailing bytes"):
        load_checkpoint(path)


def test_duplicate_tensor_name_rejected(tmp_path):
    # hand-build a file with the same name twice
    name = b"w"
    tensor = struct.pack("<I", 1) + name + struct.pack("<I", 0) + struct.pack("<d", 1.0)
    body = (
        MAGIC
        + struct.pack("<II", VERSION, 2)
        + tensor
        + tensor
        + struct.pack("<I", 0)
        + struct.pack("<I", 2)
        + b"{}"
    )
    path = tmp_path / "dup.sgck"
    path.write_bytes(body)
    with pytest.raises(DataError, match="duplicate tensor name 'w'"):
        load_checkpoint(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "absent.sgck")


def test_empty_tensor_dict_round_trips(tmp_path):
    blob = CheckpointBlob({}, "", {})
    back = load_checkpoint(save_checkpoint(tmp_path / "e.sgck", blob))
    assert back.tensors == {} and back.config_text == "" and back.rng_state == {}


# ---------------------------------------------------------------------------
# malformed trainer checkpoints: every one either loads or raises DataError


@pytest.fixture(scope="module")
def trainer_ckpt(tmp_path_factory):
    """Paths of a real trainer checkpoint at the smallest image size and of
    a scratch file for its mutated copies. Paths, not bytes: a failure
    report prints the test's arguments."""
    cfg = TrainConfig(image_size=16, batch_size=2)
    nets = build_nets(cfg, 3, cfg.seed)
    state = TrainerState(nets, build_adam(cfg, nets), np.random.default_rng(1), 0)
    root = tmp_path_factory.mktemp("fuzz")
    pristine = save_checkpoint(root / "c.sgck", state_to_blob(state, cfg))
    return pristine, root / "mutated.sgck"


def _loads_or_data_error(path) -> bool:
    """True when the checkpoint loads, False on DataError; anything else
    propagates and fails the test."""
    try:
        blob_to_state(load_checkpoint(path))
    except DataError:
        return False
    return True


def _rng_block_start(buf: bytes) -> int:
    # the file ends with the u32 length of the RNG JSON and the JSON itself
    for start in range(len(buf) - 4, 0, -1):
        (n,) = struct.unpack("<I", buf[start : start + 4])
        if start + 4 + n == len(buf) and buf[start + 4 : start + 5] == b"{":
            return start
    raise AssertionError("no RNG block found")


_FUZZ = settings(max_examples=25, deadline=None)


@_FUZZ
@given(data=st.data())
def test_fuzz_truncation_is_a_data_error(trainer_ckpt, data):
    pristine, path = trainer_ckpt
    full = pristine.read_bytes()
    keep = data.draw(st.integers(0, len(full) - 1))
    path.write_bytes(full[:keep])
    assert not _loads_or_data_error(path)


@_FUZZ
@given(data=st.data())
def test_fuzz_bit_flips_load_or_raise_data_error(trainer_ckpt, data):
    pristine, path = trainer_ckpt
    full = pristine.read_bytes()
    # weight the structural regions (header, first names, config and RNG
    # blocks at the end) over the bulk of float data
    pos = data.draw(st.one_of(
        st.integers(0, 2047),
        st.integers(len(full) - 2048, len(full) - 1),
        st.integers(0, len(full) - 1),
    ))
    bit = data.draw(st.integers(0, 7))
    mutated = bytearray(full)
    mutated[pos] ^= 1 << bit
    path.write_bytes(bytes(mutated))
    _loads_or_data_error(path)


@_FUZZ
@given(data=st.data(), rename=st.booleans())
def test_fuzz_deleted_or_renamed_tensor_is_a_data_error(trainer_ckpt, data, rename):
    pristine, path = trainer_ckpt
    blob = load_checkpoint(pristine)
    name = data.draw(st.sampled_from(sorted(blob.tensors)))
    arr = blob.tensors.pop(name)
    if rename:
        blob.tensors[name + "~"] = arr
    save_checkpoint(path, blob)
    assert not _loads_or_data_error(path)


@_FUZZ
@given(text=st.text(max_size=40))
def test_fuzz_corrupt_rng_json_loads_or_raises_data_error(trainer_ckpt, text):
    pristine, path = trainer_ckpt
    full = pristine.read_bytes()
    start = _rng_block_start(full)
    junk = text.encode("utf-8")
    path.write_bytes(full[:start] + struct.pack("<I", len(junk)) + junk)
    _loads_or_data_error(path)
