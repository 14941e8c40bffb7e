"""Binary embedding-set file format.

Layout (all little-endian, fixed width):

    offset  size  field
    0       4     magic "XMEB"
    4       4     version, unsigned 32-bit, currently 1
    8       1     dtype code, 0 = IEEE 754 binary32
    9       1     modality code (audio=0, image=1, teacher_text=2,
                  student_text=3)
    10      8     dim, unsigned 64-bit
    18      8     n_items, unsigned 64-bit
    26      8     label_table_bytes, unsigned 64-bit (= 4 * n_items)
    34      ...   label table: n_items unsigned 32-bit species ids
    ...     ...   payload: n_items * dim binary32 reals, row-major

In-memory sets are float64; files quantize to float32, so a round trip
reproduces values only up to binary32 rounding.

Every artifact of a run, binary or text, is written by
:func:`write_atomic`: to a new temporary file in the destination
directory, then renamed into place, so readers never observe a partial
file.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from .embeddings import EmbeddingSet, Modality
from .errors import FileFormatError, PayloadTooShortError

MAGIC = b"XMEB"
VERSION = 1
DTYPE_FLOAT32 = 0
HEADER = struct.Struct("<4sIBBQQQ")

PARAMS_MAGIC = b"XMPB"
PARAMS_HEADER = struct.Struct("<4sI16sI")
_INT64_MAX = 2**63 - 1
# NumPy 1.x builds arrays of at most 32 axes (2.x: 64).
_MAX_NDIM = 32

_MODALITY_CODES = {
    Modality.AUDIO: 0,
    Modality.IMAGE: 1,
    Modality.TEACHER_TEXT: 2,
    Modality.STUDENT_TEXT: 3,
}
_CODE_MODALITIES = {code: modality for modality, code in _MODALITY_CODES.items()}


def _check_buildable(shape: Tuple[int, ...], what: str) -> None:
    """Reject a float64 shape that NumPy cannot build, however few values it holds."""
    if len(shape) > _MAX_NDIM:
        raise FileFormatError(f"{what} has {len(shape)} axes; arrays hold at most {_MAX_NDIM}")
    # NumPy counts the bytes of the nonzero axes in a signed 64-bit int.
    if 8 * math.prod(max(n, 1) for n in shape) > _INT64_MAX:
        raise FileFormatError(f"{what} has shape {shape}, too large for any array")


def _check_finite(array: np.ndarray, what: str) -> None:
    """Reject an array holding NaN or Inf, naming the first such entry."""
    finite = np.isfinite(array)
    if not finite.all():
        first = tuple(int(i) for i in np.unravel_index(int(np.argmin(finite)), array.shape))
        raise FileFormatError(f"{what} holds non-finite value {array[first]} at index {first}")


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temp file and a rename.

    The temp file sits next to ``path`` under a random name that
    ``O_EXCL`` guarantees no other writer holds, and is removed if
    anything fails before the rename. It is created with mode 0o666, so
    the umask sets the mode, as for any new file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_embedding_set(embedding_set: EmbeddingSet, path: Union[str, Path]) -> None:
    """Serialize the set through :func:`write_atomic`; overwrites."""
    labels = embedding_set.labels
    if labels.size and (labels.min() < 0 or labels.max() > 0xFFFFFFFF):
        raise FileFormatError("species ids must fit in an unsigned 32-bit label table")
    header = HEADER.pack(
        MAGIC,
        VERSION,
        DTYPE_FLOAT32,
        _MODALITY_CODES[embedding_set.modality],
        embedding_set.dim,
        embedding_set.n_items,
        4 * embedding_set.n_items,
    )
    with np.errstate(over="ignore"):  # beyond binary32 becomes Inf, rejected next
        values = np.ascontiguousarray(embedding_set.matrix, dtype="<f4")
    if not np.isfinite(values).all():
        raise FileFormatError("embedding values must be finite binary32 reals; readers reject NaN and Inf")
    label_table = np.ascontiguousarray(labels, dtype="<u4").tobytes()
    write_atomic(path, header + label_table + values.tobytes())


def read_embedding_set(path: Union[str, Path]) -> EmbeddingSet:
    """Parse a file written by :func:`write_embedding_set`.

    The returned set is float64; binary32 rounding breaks exact unit
    norms even for normalized sources.
    """
    raw = Path(path).read_bytes()
    if len(raw) < HEADER.size:
        raise PayloadTooShortError(HEADER.size, len(raw), "header")
    magic, version, dtype, modality_code, dim, n_items, label_bytes = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FileFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}, expected {VERSION}")
    if dtype != DTYPE_FLOAT32:
        raise FileFormatError(f"unsupported dtype code {dtype}")
    if modality_code not in _CODE_MODALITIES:
        raise FileFormatError(f"unknown modality code {modality_code}")
    if label_bytes != 4 * n_items:
        raise FileFormatError(f"label table of {label_bytes} bytes does not match {n_items} items")
    expected = HEADER.size + label_bytes + 4 * n_items * dim
    if len(raw) < expected:
        raise PayloadTooShortError(expected, len(raw), "embedding file")
    if len(raw) > expected:
        raise FileFormatError(f"{len(raw) - expected} trailing bytes after declared payload")
    _check_buildable((n_items, dim), "embedding matrix")

    labels = np.frombuffer(raw, dtype="<u4", count=n_items, offset=HEADER.size).astype(np.int64)
    payload = np.frombuffer(raw, dtype="<f4", count=n_items * dim, offset=HEADER.size + label_bytes)
    finite = np.isfinite(payload)
    if not finite.all():
        first = int(np.argmin(finite))
        raise FileFormatError(
            f"non-finite value {payload[first]} at row {first // dim}, column {first % dim}"
        )
    matrix = payload.astype(np.float64).reshape(n_items, dim)
    return EmbeddingSet(matrix, labels, _CODE_MODALITIES[modality_code])


def save_params(params: Dict[str, np.ndarray], path: Union[str, Path], config_hash: str) -> None:
    """Write a named-array blob (float64, little-endian) through :func:`write_atomic`.

    The 16-hex-digit config hash is stored in the header so the blob
    carries its provenance. Arrays are written sorted by name, and every
    value must be finite, as :func:`load_params` requires.
    """
    hash_bytes = config_hash.encode("ascii")
    if len(hash_bytes) != 16:
        raise FileFormatError(f"config hash must be 16 hex digits, got {config_hash!r}")
    chunks = [PARAMS_HEADER.pack(PARAMS_MAGIC, VERSION, hash_bytes, len(params))]
    for name in sorted(params):
        # asarray keeps 0-d shapes (ascontiguousarray would promote to 1-d).
        array = np.asarray(params[name], dtype="<f8", order="C")
        _check_buildable(array.shape, f"array {name!r}")
        _check_finite(array, f"array {name!r}")
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", array.ndim))
        chunks.append(struct.pack(f"<{array.ndim}Q", *array.shape))
        chunks.append(array.tobytes())
    write_atomic(path, b"".join(chunks))


def load_params(path: Union[str, Path]) -> Tuple[Dict[str, np.ndarray], str]:
    """Read a params blob; returns (arrays, config_hash).

    Every value must be finite and every array name distinct.
    """
    raw = Path(path).read_bytes()
    if len(raw) < PARAMS_HEADER.size:
        raise PayloadTooShortError(PARAMS_HEADER.size, len(raw), "params header")
    magic, version, hash_bytes, count = PARAMS_HEADER.unpack_from(raw)
    if magic != PARAMS_MAGIC:
        raise FileFormatError(f"bad magic {magic!r}, expected {PARAMS_MAGIC!r}")
    if version != VERSION:
        raise FileFormatError(f"unsupported version {version}, expected {VERSION}")
    offset = PARAMS_HEADER.size
    params: Dict[str, np.ndarray] = {}
    for _ in range(count):
        if offset + 2 > len(raw):
            raise PayloadTooShortError(offset + 2, len(raw), "params blob")
        (name_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        if offset + name_len + 1 > len(raw):
            raise PayloadTooShortError(offset + name_len + 1, len(raw), "params blob")
        try:
            name = raw[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"array name at byte {offset} is not UTF-8") from exc
        if name in params:
            raise FileFormatError(f"array {name!r} at byte {offset} is already declared earlier in the blob")
        offset += name_len
        (ndim,) = struct.unpack_from("<B", raw, offset)
        offset += 1
        if offset + 8 * ndim > len(raw):
            raise PayloadTooShortError(offset + 8 * ndim, len(raw), "params blob")
        shape = struct.unpack_from(f"<{ndim}Q", raw, offset)
        offset += 8 * ndim
        _check_buildable(shape, f"array {name!r}")
        n_values = math.prod(shape)
        end = offset + 8 * n_values
        if end > len(raw):
            raise PayloadTooShortError(end, len(raw), "params blob")
        params[name] = (
            np.frombuffer(raw, dtype="<f8", count=n_values, offset=offset)
            .astype(np.float64)
            .reshape(shape)
        )
        _check_finite(params[name], f"array {name!r}")
        offset = end
    if offset != len(raw):
        raise FileFormatError(f"{len(raw) - offset} trailing bytes after declared arrays")
    if not hash_bytes.isascii():
        raise FileFormatError(f"config hash {hash_bytes!r} is not ASCII")
    return params, hash_bytes.decode("ascii")
