"""Binary file formats: embedding sets and parameter blobs."""

import os
import stat
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import (
    EmbeddingSet,
    FileFormatError,
    Modality,
    PayloadTooShortError,
    XmodalError,
    load_params,
    read_embedding_set,
    save_params,
    write_embedding_set,
)
from xmodal.rng import rng_for
from xmodal.storage import HEADER, MAGIC, VERSION, write_atomic


def eset(matrix, labels, modality=Modality.AUDIO) -> EmbeddingSet:
    return EmbeddingSet(np.asarray(matrix, dtype=np.float64), np.asarray(labels), modality)


@pytest.mark.parametrize("modality", list(Modality))
def test_round_trip_all_modalities(tmp_path, modality):
    rng = rng_for(0, "storage", modality.value)
    original = eset(rng.standard_normal((7, 5)), rng.integers(0, 100, size=7), modality)
    path = tmp_path / "set.xmeb"
    write_embedding_set(original, path)
    loaded = read_embedding_set(path)
    assert loaded.modality is modality
    assert loaded.matrix.shape == (7, 5)
    assert np.array_equal(loaded.labels, original.labels)
    # float32 quantization: values here are O(1), so error < 2**-20.
    assert np.max(np.abs(loaded.matrix - original.matrix)) < 2**-20


def test_round_trip_empty_set(tmp_path):
    original = eset(np.zeros((0, 3)), [])
    path = tmp_path / "empty.xmeb"
    write_embedding_set(original, path)
    loaded = read_embedding_set(path)
    assert loaded.n_items == 0
    assert loaded.dim == 3


def test_write_is_deterministic(tmp_path):
    s = eset(rng_for(1, "det").standard_normal((4, 3)), [1, 2, 3, 4])
    write_embedding_set(s, tmp_path / "a.xmeb")
    write_embedding_set(s, tmp_path / "b.xmeb")
    assert (tmp_path / "a.xmeb").read_bytes() == (tmp_path / "b.xmeb").read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    s = eset(np.ones((2, 2)), [0, 1])
    write_embedding_set(s, tmp_path / "out.xmeb")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.xmeb"]


@pytest.fixture()
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


class TestWriteAtomic:
    def mode(self, path):
        return stat.S_IMODE(path.stat().st_mode)

    def test_every_writer_gets_the_umask_mode(self, tmp_path, umask_027):
        # Temp files made by mkstemp kept its 0600 mode through the rename.
        write_atomic(tmp_path / "raw.bin", b"abc")
        write_embedding_set(eset(np.ones((2, 2)), [0, 1]), tmp_path / "set.xmeb")
        save_params({"w": np.ones(3)}, tmp_path / "params.xmpb", "0" * 16)
        for path in tmp_path.iterdir():
            assert self.mode(path) == 0o640, path.name
        assert (tmp_path / "raw.bin").read_bytes() == b"abc"

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old contents")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomic(tmp_path / "taken", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(tmp_path / "a.bin", "not bytes")
        assert list(tmp_path.iterdir()) == []


def test_header_layout(tmp_path):
    s = eset(np.ones((2, 3)), [5, 9], Modality.IMAGE)
    path = tmp_path / "h.xmeb"
    write_embedding_set(s, path)
    raw = path.read_bytes()
    magic, version, dtype, modality_code, dim, n_items, label_bytes = HEADER.unpack_from(raw)
    assert magic == MAGIC == b"XMEB"
    assert version == VERSION == 1
    assert dtype == 0
    assert modality_code == 1
    assert (dim, n_items, label_bytes) == (3, 2, 8)
    assert len(raw) == HEADER.size + 8 + 2 * 3 * 4
    labels = np.frombuffer(raw, dtype="<u4", count=2, offset=HEADER.size)
    assert labels.tolist() == [5, 9]


def test_label_range_enforced(tmp_path):
    s = eset(np.ones((1, 2)), [-1])
    with pytest.raises(FileFormatError, match="unsigned 32-bit"):
        write_embedding_set(s, tmp_path / "bad.xmeb")
    s = eset(np.ones((1, 2)), [2**32])
    with pytest.raises(FileFormatError):
        write_embedding_set(s, tmp_path / "bad.xmeb")


class TestReadErrors:
    def write_good(self, tmp_path):
        s = eset(rng_for(2, "err").standard_normal((3, 4)), [1, 2, 3])
        path = tmp_path / "good.xmeb"
        write_embedding_set(s, path)
        return path

    def test_truncated_header(self, tmp_path):
        path = self.write_good(tmp_path)
        short = tmp_path / "short.xmeb"
        short.write_bytes(path.read_bytes()[: HEADER.size - 1])
        with pytest.raises(PayloadTooShortError) as info:
            read_embedding_set(short)
        assert info.value.expected == HEADER.size
        assert info.value.actual == HEADER.size - 1
        assert "header too short" in str(info.value)

    def test_truncated_payload(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.xmeb"
        cut.write_bytes(raw[:-5])
        with pytest.raises(PayloadTooShortError, match="embedding file too short"):
            read_embedding_set(cut)

    def test_trailing_bytes(self, tmp_path):
        path = self.write_good(tmp_path)
        padded = tmp_path / "padded.xmeb"
        padded.write_bytes(path.read_bytes() + b"xyz")
        with pytest.raises(FileFormatError, match="3 trailing bytes"):
            read_embedding_set(padded)

    def test_bad_magic(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "magic.xmeb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_embedding_set(bad)

    def test_bad_version(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "version.xmeb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="unsupported version 99"):
            read_embedding_set(bad)

    def test_bad_dtype_code(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8] = 7
        bad = tmp_path / "dtype.xmeb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="dtype code 7"):
            read_embedding_set(bad)

    def test_bad_modality_code(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[9] = 200
        bad = tmp_path / "modality.xmeb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="modality code 200"):
            read_embedding_set(bad)

    def test_label_table_mismatch(self, tmp_path):
        path = self.write_good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[26:34] = struct.pack("<Q", 999)
        bad = tmp_path / "labels.xmeb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="label table"):
            read_embedding_set(bad)

    @pytest.mark.parametrize("dim", [2**62, 2**63, 2**64 - 1])
    def test_empty_set_of_unbuildable_width(self, tmp_path, dim):
        # No rows and no payload, but NumPy's reshape raised a bare ValueError.
        bad = tmp_path / "wide.xmeb"
        bad.write_bytes(HEADER.pack(MAGIC, VERSION, 0, 0, dim, 0, 0))
        with pytest.raises(FileFormatError, match="too large"):
            read_embedding_set(bad)


def one_row_file(path, last: float):
    """A hand-written one-row, two-column file whose row is [3.0, last]."""
    header = HEADER.pack(MAGIC, VERSION, 0, 0, 2, 1, 4)
    path.write_bytes(header + struct.pack("<I", 5) + struct.pack("<2f", 3.0, last))
    return path


class TestNonFiniteValues:
    def test_hand_written_file_reads(self, tmp_path):
        loaded = read_embedding_set(one_row_file(tmp_path / "ok.xmeb", 4.0))
        assert loaded.matrix.tolist() == [[3.0, 4.0]]
        assert loaded.labels.tolist() == [5]

    @pytest.mark.parametrize("last", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_reader_rejects(self, tmp_path, last):
        with pytest.raises(FileFormatError, match="non-finite value .* at row 0, column 1"):
            read_embedding_set(one_row_file(tmp_path / "bad.xmeb", last))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 1e39], ids=["nan", "inf", "beyond_binary32"]
    )
    def test_writer_rejects(self, tmp_path, value):
        with pytest.raises(FileFormatError, match="finite binary32"):
            write_embedding_set(eset([[3.0, value]], [5]), tmp_path / "bad.xmeb")
        assert not list(tmp_path.iterdir())


class TestParamsBlob:
    def test_round_trip_exact(self, tmp_path):
        rng = rng_for(3, "params")
        params = {
            "head_w": rng.standard_normal((4, 6)),
            "head_b": rng.standard_normal(4),
            "enc1_w": rng.standard_normal((5, 3)),
        }
        path = tmp_path / "p.xmpb"
        save_params(params, path, config_hash="0123456789abcdef")
        loaded, h = load_params(path)
        assert h == "0123456789abcdef"
        assert set(loaded) == set(params)
        for k in params:
            # float64 in, float64 out: bit-exact.
            assert np.array_equal(loaded[k], params[k])
            assert loaded[k].shape == params[k].shape

    def test_scalar_zero_dim_array(self, tmp_path):
        path = tmp_path / "s.xmpb"
        save_params({"tau": np.array(0.07)}, path, config_hash="f" * 16)
        loaded, _ = load_params(path)
        assert loaded["tau"].shape == ()
        assert loaded["tau"] == np.array(0.07)

    def test_hash_must_be_16_chars(self, tmp_path):
        with pytest.raises(FileFormatError, match="16 hex digits"):
            save_params({"w": np.ones(2)}, tmp_path / "p.xmpb", config_hash="abc")

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "p.xmpb"
        save_params({"w": np.ones((2, 2))}, path, config_hash="a" * 16)
        raw = path.read_bytes()
        cut = tmp_path / "cut.xmpb"
        cut.write_bytes(raw[:-4])
        with pytest.raises(PayloadTooShortError, match="params blob"):
            load_params(cut)

    def test_truncated_header(self, tmp_path):
        cut = tmp_path / "h.xmpb"
        cut.write_bytes(b"XMPB")
        with pytest.raises(PayloadTooShortError, match="params header"):
            load_params(cut)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.xmpb"
        save_params({"w": np.ones(2)}, path, config_hash="a" * 16)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WHAT"
        bad = tmp_path / "bad.xmpb"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="bad magic"):
            load_params(bad)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "p.xmpb"
        save_params({"w": np.ones(2)}, path, config_hash="a" * 16)
        padded = tmp_path / "pad.xmpb"
        padded.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FileFormatError, match="trailing bytes"):
            load_params(padded)

    def test_deterministic_bytes(self, tmp_path):
        params = {"b": np.ones(3), "a": np.zeros((2, 2))}
        save_params(params, tmp_path / "x.xmpb", config_hash="1" * 16)
        save_params(dict(reversed(params.items())), tmp_path / "y.xmpb", config_hash="1" * 16)
        # Arrays are written sorted by name, so dict order cannot leak.
        assert (tmp_path / "x.xmpb").read_bytes() == (tmp_path / "y.xmpb").read_bytes()

    # Hand-written blobs: header (magic, version 1, 16-byte hash, one
    # array), then the array record (name length, name, ndim, shape).
    ONE_ARRAY = b"XMPB" + b"\x01\x00\x00\x00" + b"0123456789abcdef" + b"\x01\x00\x00\x00"

    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "name.xmpb"
        path.write_bytes(self.ONE_ARRAY + b"\x02\x00" + b"\xff\xfe" + b"\x00" + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="not UTF-8"):
            load_params(path)

    def test_array_declared_twice(self, tmp_path):
        # A blob that repeats a record used to load with one array fewer
        # than it declares, the later copy winning.
        path = tmp_path / "p.xmpb"
        save_params({"w": np.ones(2)}, path, config_hash="a" * 16)
        raw = path.read_bytes()
        header, record = raw[:28], raw[28:]
        path.write_bytes(header[:24] + struct.pack("<I", 2) + record + record)
        # The second name starts after the header, the first record and its length field.
        second_name = 28 + len(record) + 2
        with pytest.raises(FileFormatError, match=f"array 'w' at byte {second_name} is already declared"):
            load_params(path)

    @pytest.mark.parametrize(
        "shape",
        [
            # (2**62, 8): 2**65 values, which wraps to 0 in an int64 product.
            b"\x00\x00\x00\x00\x00\x00\x00\x40" + b"\x08\x00\x00\x00\x00\x00\x00\x00",
            # (0, 2**62): no values, but NumPy cannot build the shape.
            b"\x00\x00\x00\x00\x00\x00\x00\x00" + b"\x00\x00\x00\x00\x00\x00\x00\x40",
        ],
        ids=["2**62x8", "0x2**62"],
    )
    def test_shape_beyond_int64(self, tmp_path, shape):
        path = tmp_path / "shape.xmpb"
        path.write_bytes(self.ONE_ARRAY + b"\x01\x00" + b"w" + b"\x02" + shape)
        with pytest.raises(FileFormatError, match="too large"):
            load_params(path)

    @pytest.mark.parametrize("ndim", [33, 65])
    def test_too_many_axes(self, tmp_path, ndim):
        # 65 axes raised NumPy's bare ValueError from reshape.
        path = tmp_path / "axes.xmpb"
        shape = struct.pack(f"<{ndim}Q", *([1] * ndim))
        path.write_bytes(self.ONE_ARRAY + b"\x01\x00" + b"w" + bytes([ndim]) + shape + b"\x00" * 8)
        with pytest.raises(FileFormatError, match=f"{ndim} axes"):
            load_params(path)

    def test_writer_rejects_too_many_axes(self, tmp_path):
        with pytest.raises(FileFormatError, match="33 axes"):
            save_params({"w": np.ones((1,) * 33)}, tmp_path / "axes.xmpb", "0" * 16)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_reader_rejects_non_finite_values(self, tmp_path, value):
        path = tmp_path / "p.xmpb"
        save_params({"a": np.ones(2), "w": np.ones((2, 3))}, path, config_hash="a" * 16)
        # The last 8 bytes are the last value of "w", the last array written.
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", value))
        with pytest.raises(FileFormatError, match=r"array 'w' holds non-finite value .* at index \(1, 2\)"):
            load_params(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    def test_writer_rejects_non_finite_values(self, tmp_path, value):
        params = {"w": np.array([[1.0, 2.0], [value, 4.0]]), "tau": np.array(value)}
        with pytest.raises(FileFormatError, match=r"array 'tau' holds non-finite value .* at index \(\)"):
            save_params(params, tmp_path / "p.xmpb", "0" * 16)
        with pytest.raises(FileFormatError, match=r"array 'w' holds non-finite value .* at index \(1, 0\)"):
            save_params({"w": params["w"]}, tmp_path / "p.xmpb", "0" * 16)
        assert not list(tmp_path.iterdir())

    def test_non_ascii_hash(self, tmp_path):
        path = tmp_path / "hash.xmpb"
        path.write_bytes(b"XMPB" + b"\x01\x00\x00\x00" + b"\xff" * 16 + b"\x00\x00\x00\x00")
        with pytest.raises(FileFormatError, match="not ASCII"):
            load_params(path)


# -- fuzzing both readers ----------------------------------------------------

# 64-bit words that sit at the edges of the header and shape fields.
EDGE_WORDS = (0, 2**32, 2**63, 2**64 - 1)


@pytest.fixture(scope="module")
def valid_artifacts(tmp_path_factory):
    """A small valid file of each format, as bytes, plus a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    write_embedding_set(eset(rng_for(3, "fuzz").standard_normal((3, 2)), [5, 0, 5]), root / "set.xmeb")
    params = {"a_w": np.arange(6.0).reshape(2, 3), "b": np.array(0.5), "c": np.zeros((0, 4))}
    save_params(params, root / "params.xmpb", "0123456789abcdef")
    empty = root / "empty.xmeb"
    write_embedding_set(eset(np.zeros((0, 2)), []), empty)
    valid = {
        "xmeb": [(root / "set.xmeb").read_bytes(), empty.read_bytes()],
        "xmpb": [(root / "params.xmpb").read_bytes()],
    }
    return valid, root / "blob"


@st.composite
def mutated(draw, valid):
    """``valid`` after one to four byte flips, truncations, appends or 64-bit words."""
    data = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "truncate", "append", "insert", "overwrite")))
        at = draw(st.integers(0, len(data)))
        if kind == "flip":
            if at < len(data):
                data[at] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[at:]
        elif kind == "append":
            data += draw(st.binary(min_size=1, max_size=16))
        else:
            word = struct.pack("<Q", draw(st.sampled_from(EDGE_WORDS)))
            data[at : at + (8 if kind == "overwrite" else 0)] = word
    return bytes(data)


@pytest.mark.parametrize("fmt, reader", [("xmeb", read_embedding_set), ("xmpb", load_params)])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reader_returns_or_raises_xmodal_error(valid_artifacts, fmt, reader, data):
    valid, path = valid_artifacts
    path.write_bytes(data.draw(mutated(valid[fmt]) | st.binary(max_size=48)))
    try:
        result = reader(path)
    except XmodalError:
        return
    if fmt == "xmpb":
        params, _ = result
        assert all(np.isfinite(array).all() for array in params.values())
