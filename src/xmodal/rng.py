"""Counter-based deterministic randomness.

Every random draw in the package comes from a Philox stream keyed by a
root seed plus a path of string/int tokens naming the entity being
generated. Streams are independent, so any single row of any generated
artifact can be reproduced in isolation and generation could parallelize
without changing a bit of output.

A Philox stream is fully defined by its 128-bit key and its counter. So
``draw_streams``, which draws one row per entity, builds one generator
and re-keys it for each row: key words, counter 0, empty output buffer.
Each row equals the draw of a fresh ``rng_for`` generator, bit for bit,
without the cost of building one per row. The re-keyed generator never
leaves that function; ``rng_for`` still returns an independent generator.

A key is the blake2b digest of the path ``seed/part/...``, and one helper
writes that path for both callers. ``draw_streams`` hashes its prefix
``seed/name`` once per call; each row copies that hash state and feeds it
only the row's own ``/key/...`` suffix, which gives the digest of the
whole path.

``standard_normal`` rows are drawn in place, straight into each row of
``out``, which must be a C-contiguous float64 matrix (NumPy raises
otherwise). The call passes no size, which NumPy would check against the
row on every call: 1.9 µs per 32-wide draw against 2.5 µs for a draw and
a copy, and 3.0 µs with the size passed as well (NumPy 2.4.6 on one core
of a 2-core x86 VM). Other methods' draws are copied into their rows.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Tuple

import numpy as np

_EMPTY = (0, 0, 0, 0)
# A 16-byte digest as Philox's two little-endian 64-bit key words.
_KEY_WORDS = struct.Struct("<QQ")


def _path_hash(seed: int, *parts):
    """blake2b hash state of the path ``seed/part/...``, open for ``update``."""
    path = "/".join([str(int(seed))] + [str(p) for p in parts])
    return hashlib.blake2b(path.encode("utf-8"), digest_size=16)


def stream_key(seed: int, *parts) -> int:
    """128-bit Philox key derived from the seed and an entity path."""
    return int.from_bytes(_path_hash(seed, *parts).digest(), "little")


def rng_for(seed: int, *parts) -> np.random.Generator:
    """Independent generator for the entity named by ``parts``."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *parts)))


def draw_streams(out: np.ndarray, seed: int, name: str, keys: Iterable[Tuple], method: str, *args) -> np.ndarray:
    """Fill ``out[i]`` with ``getattr(rng_for(seed, name, *keys[i]), method)(*args)``.

    All rows are drawn on one Philox generator, re-keyed before each row
    to the state a fresh ``Philox(key=...)`` starts in: counter 0, no
    buffered output words and no buffered 32-bit half. Each row's key is
    the hash of ``seed/name``, computed once, extended by the row's
    ``/key/...`` suffix; the empty key adds nothing. Returns ``out``.
    ``standard_normal`` draws each row in place, its size the width of
    ``out``; ``out`` must be a C-contiguous float64 matrix.
    """
    bit_generator = np.random.Philox(counter=0, key=0)
    generator = np.random.Generator(bit_generator)
    draw = getattr(generator, method)
    prefix = _path_hash(seed, name)
    words = {"counter": _EMPTY, "key": (0, 0)}
    state = {
        "bit_generator": "Philox",
        "state": words,
        "buffer": _EMPTY,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    in_place = method == "standard_normal"
    for row, key in enumerate(keys):
        path = prefix.copy()
        if key:
            path.update(("/" + "/".join(map(str, key))).encode("utf-8"))
        words["key"] = _KEY_WORDS.unpack(path.digest())
        bit_generator.state = state
        if in_place:
            draw(out=out[row])
        else:
            out[row] = draw(*args)
    return out
