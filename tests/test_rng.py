from __future__ import annotations

import hashlib
import threading

import numpy as np

from priormap import MutationStream, philox_stream, stable_key


def test_stable_key_is_fixed():
    # Frozen values guard against accidental hash-scheme changes, which
    # would silently re-seed every pipeline.
    assert stable_key("frame_0") == stable_key("frame_0")
    assert stable_key("frame_0") != stable_key("frame_1")
    assert 0 <= stable_key("anything") < 1 << 64


def test_streams_reproducible():
    a = philox_stream(1, 2, 3).standard_normal(8)
    b = philox_stream(1, 2, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_by_any_key_part():
    base = philox_stream(1, 2, 3).standard_normal(8)
    for other in [(2, 2, 3), (1, 3, 3), (1, 2, 4)]:
        assert not np.array_equal(base, philox_stream(*other).standard_normal(8))


def test_negative_and_large_parts_wrap():
    a = philox_stream(-1).uniform()
    b = philox_stream((1 << 64) - 1).uniform()
    assert a == b


def test_feature_streams_independent_of_order():
    stream = MutationStream(master_seed=7, frame_key=stable_key("f"), mutation_index=2)
    forward = [stream.feature(i).uniform() for i in range(10)]
    backward = [stream.feature(i).uniform() for i in reversed(range(10))]
    assert forward == backward[::-1]


def test_frame_stream_distinct_from_feature_streams():
    stream = MutationStream(master_seed=7, frame_key=1, mutation_index=0)
    frame_draw = stream.frame().uniform()
    feature_draws = {stream.feature(i).uniform() for i in range(100)}
    assert frame_draw not in feature_draws


def _fresh(*key_parts: int) -> np.random.Generator:
    """The slow form philox_stream replaces: a Generator built per stream."""
    raw = b"".join((int(p) & ((1 << 64) - 1)).to_bytes(8, "little") for p in key_parts)
    key = np.frombuffer(hashlib.blake2b(raw, digest_size=16).digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gen: np.random.Generator, n: int) -> list:
    """Every kind of draw the mutations and the warp field make, in one
    sequence, so buffered 32-bit halves and Gaussian rejections carry from
    one draw into the next."""
    return [
        gen.uniform(),
        gen.integers(3),
        gen.standard_normal(),
        gen.standard_normal(2),
        gen.standard_normal((n, 2)),
        gen.permutation(256),
        gen.uniform(0.0, 2.0 * np.pi, 256),
        gen.uniform(0.0, 256.0, 2),
        gen.integers(0, 1 << 62),
        gen.integers(3),
    ]


def _same(a: list, b: list) -> bool:
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


def test_reset_stream_matches_fresh_generator_on_random_keys():
    rng = np.random.default_rng(2024)
    for _ in range(250):
        parts = [int(p) for p in rng.integers(0, 1 << 63, int(rng.integers(1, 5)), dtype=np.uint64)]
        n = int(rng.integers(1, 40))
        assert _same(_draws(philox_stream(*parts), n), _draws(_fresh(*parts), n)), parts


def _state_bytes(gen: np.random.Generator) -> list:
    state = gen.bit_generator.state
    return [state["state"]["key"].tobytes(), state["state"]["counter"].tobytes(),
            state["buffer"].tobytes(), state["buffer_pos"], state["has_uint32"], state["uinteger"]]


def test_reset_clears_a_half_used_buffer():
    # An odd number of 32-bit draws leaves half a 64-bit word buffered; the
    # next stream must start from the fresh state, not from that half word.
    for key in range(50):
        gen = philox_stream(key, 1)
        gen.integers(3)
        gen.standard_normal(5)
        assert gen.bit_generator.state["has_uint32"] == 1
        reset = philox_stream(key, 2)
        assert _state_bytes(reset) == _state_bytes(_fresh(key, 2))
        first_half_word = [reset.integers(1 << 32, dtype=np.uint32), *_draws(reset, 3)]
        fresh = _fresh(key, 2)
        assert _same(first_half_word, [fresh.integers(1 << 32, dtype=np.uint32), *_draws(fresh, 3)])


def test_feature_and_frame_streams_match_fresh_generators():
    stream = MutationStream(master_seed=5, frame_key=stable_key("f"), mutation_index=3)
    for i in range(20):
        assert _same(_draws(stream.feature(i), 4), _draws(_fresh(5, stable_key("f"), 3, i), 4))
    assert _same(_draws(stream.frame(), 4), _draws(_fresh(5, stable_key("f"), 3, (1 << 64) - 1), 4))


def test_interleaved_threads_get_the_serial_draws():
    # Each step: thread A takes its stream, thread B then takes and draws
    # from its own, and only then does A draw. A stream shared between the
    # threads would hand A the rest of B's stream.
    a = MutationStream(master_seed=1, frame_key=stable_key("a"), mutation_index=0)
    b = MutationStream(master_seed=2, frame_key=stable_key("b"), mutation_index=4)
    steps = 60
    barrier = threading.Barrier(2, timeout=30)
    got: dict[str, list] = {"a": [], "b": []}

    def run_a():
        for i in range(steps):
            gen = a.feature(i)
            barrier.wait()
            barrier.wait()
            got["a"].append(gen.standard_normal(3))

    def run_b():
        for i in range(steps):
            barrier.wait()
            got["b"].append(b.feature(i).standard_normal(3))
            barrier.wait()

    threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for name, stream in (("a", a), ("b", b)):
        serial = [stream.feature(i).standard_normal(3) for i in range(steps)]
        assert len(got[name]) == steps
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got[name], serial))
