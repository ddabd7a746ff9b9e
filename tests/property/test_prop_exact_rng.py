"""Property tests for the vectorised PCG64 replay's jump-ahead (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.exact_rng import VectorPCG64

seeds = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=63))
def test_block_equals_sequential_rounds(seed_list, width):
    """``width`` outputs by closed-form jump-ahead equal ``width``
    lockstep ``next64`` rounds, and both leave the same state."""
    seed_array = np.array(seed_list, dtype=np.uint64)
    block = VectorPCG64.from_seeds(seed_array)
    rounds = VectorPCG64.from_seeds(seed_array)
    outputs = block.next64_block(width)
    expected = np.stack([rounds.next64() for _ in range(width)], axis=1)
    assert outputs.shape == (len(seed_list), width)
    assert np.array_equal(outputs, expected)
    assert np.array_equal(block.next64(), rounds.next64())


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=63))
def test_uniform_block_equals_generator(seed_list, width):
    """Block uniforms are NumPy's ``Generator.uniform`` draws, bitwise."""
    stream = VectorPCG64.from_seeds(np.array(seed_list, dtype=np.uint64))
    draws = stream.uniform_block(-3.0, 0.0, width)
    for row, seed in zip(draws, seed_list):
        reference = np.random.Generator(np.random.PCG64(seed))
        assert row.tolist() == [
            reference.uniform(-3.0, 0.0) for _ in range(width)
        ]
