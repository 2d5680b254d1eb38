"""Deterministic counter-based random streams.

Every random draw in the perturbation pipeline comes from a Philox stream
whose key is derived from (master seed, frame key, mutation index, feature
index). Draws are therefore independent of evaluation order, worker count,
and scheduling. Python's built-in hash() is salted per process, so string
keys are hashed with BLAKE2 instead: a stream's key is the BLAKE2b-128
digest of its integer parts, each taken modulo 2**64 as 8 little-endian
bytes. This module alone builds Philox generators and derives their keys.

Each thread owns one Philox bit generator and one Generator over it;
keyed_stream resets that pair to the given key, a zero counter and an
empty buffer, which is exactly the state a freshly constructed
Generator(Philox(key=...)) starts from. A returned generator is therefore
valid only until the next keyed_stream or philox_stream call on the same
thread: draw from it, then ask for the next stream.

first_uniforms takes the first uniform() of many streams from their keys,
one reset of this thread's generator per key. Philox is counter-based
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011),
so one array pass over the keys could compute them all; on chunks of a
few hundred features that saves about 1.6 ms per mutation, too little to
measure in a perturb run, so the keys are taken one by one.
"""
from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_U64 = (1 << 64) - 1
#: Reserved feature index for one-draw-per-frame streams.
_FRAME_SLOT = _U64


def stable_key(text: str) -> int:
    """Platform-stable 64-bit hash of a string."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream_keys(parts: np.ndarray) -> np.ndarray:
    """The (k, 2) uint64 Philox keys of k streams: row i is the key that
    philox_stream(*parts[i]) uses, for a (k, p) uint64 array of parts."""
    raw = np.ascontiguousarray(parts, dtype="<u8")
    step = 8 * raw.shape[1]
    data = raw.tobytes()
    blake2b = hashlib.blake2b
    digests = b"".join([blake2b(data[i : i + step], digest_size=16).digest()
                        for i in range(0, len(data), step)])
    return np.frombuffer(digests, dtype=np.uint64).reshape(-1, 2)


def words(values) -> np.ndarray:
    """Integers modulo 2**64, as philox_stream takes its key parts, in a
    uint64 array."""
    return np.array([int(v) & _U64 for v in values], dtype=np.uint64)


def mutation_keys(master_seed: int, frame_keys: np.ndarray, mutation_index: int,
                  indices: np.ndarray | None = None) -> np.ndarray:
    """The (k, 2) keys of k streams of one mutation: stream i is
    MutationStream(master_seed, frame_keys[i], mutation_index).feature(
    indices[i]) for a uint64 array of frame keys, or its frame() stream
    when indices is None."""
    parts = np.empty((len(frame_keys), 4), dtype=np.uint64)
    parts[:, 0] = master_seed & _U64
    parts[:, 1] = frame_keys
    parts[:, 2] = mutation_index & _U64
    parts[:, 3] = _FRAME_SLOT if indices is None else indices
    return stream_keys(parts)


#: Python ints, not numpy arrays: the state setter reads each word, and
#: reads a Python int in half the time.
_ZEROS = (0, 0, 0, 0)
_local = threading.local()


def keyed_stream(key: Sequence[int]) -> np.random.Generator:
    """This thread's Generator, reset to the Philox stream with the given
    2-word key (two ints, as a list for speed); valid until the next call
    on the same thread."""
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


def philox_stream(*key_parts: int) -> np.random.Generator:
    """This thread's Generator, reset to the Philox stream keyed by integer
    parts; valid until the next call on the same thread."""
    raw = b"".join((int(p) & _U64).to_bytes(8, "little") for p in key_parts)
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    return keyed_stream(np.frombuffer(digest, dtype=np.uint64).tolist())


def first_uniforms(keys: np.ndarray) -> np.ndarray:
    """keyed_stream(key).uniform() for each row of the (k, 2) uint64 keys."""
    return np.array([keyed_stream(key).uniform() for key in keys.tolist()])


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
