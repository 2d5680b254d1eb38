"""Deterministic counter-based random streams.

Every random draw in the perturbation pipeline comes from a Philox stream
whose key is derived from (master seed, frame key, mutation index, feature
index). Draws are therefore independent of evaluation order, worker count,
and scheduling. Python's built-in hash() is salted per process, so string
keys are hashed with BLAKE2 instead.

Each thread owns one Philox bit generator and one Generator over it;
philox_stream resets that pair to the requested key, a zero counter and
an empty buffer, which is exactly the state a freshly constructed
Generator(Philox(key=...)) starts from. A returned generator is therefore
valid only until the next philox_stream call on the same thread: draw
from it, then ask for the next stream.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

_U64 = (1 << 64) - 1
#: Reserved feature index for one-draw-per-frame streams.
_FRAME_SLOT = _U64


def stable_key(text: str) -> int:
    """Platform-stable 64-bit hash of a string."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False
_local = threading.local()


def philox_stream(*key_parts: int) -> np.random.Generator:
    """This thread's Generator, reset to the Philox stream keyed by integer
    parts; valid until the next call on the same thread."""
    raw = b"".join((int(p) & _U64).to_bytes(8, "little") for p in key_parts)
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    try:
        gen = _local.gen
    except AttributeError:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=key))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class MutationStream:
    """Random streams for one mutation applied to one frame."""

    master_seed: int
    frame_key: int
    mutation_index: int

    def frame(self) -> np.random.Generator:
        """Stream for draws made once per frame."""
        return philox_stream(self.master_seed, self.frame_key, self.mutation_index, _FRAME_SLOT)

    def feature(self, index: int) -> np.random.Generator:
        """Stream for draws tied to the feature at the given index."""
        if not 0 <= index < _FRAME_SLOT:
            raise ValueError(f"feature index out of range: {index}")
        return philox_stream(self.master_seed, self.frame_key, self.mutation_index, index)
