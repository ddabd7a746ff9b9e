"""Performance primitives: exact RNG replay.

This package holds the machinery that lets the hot paths go fast
*without changing any observable result*:

* :mod:`repro.perf.exact_rng` — vectorised, bit-exact replay of
  ``numpy.random.Generator`` substreams (SHA-256 seed derivation,
  ``SeedSequence`` hash-mix, PCG64, uniform and ziggurat-normal
  variates).  Used by :mod:`repro.fleet.vectorized` to resolve
  thousands of trigger behaviours in a few array ops.
* :mod:`repro.perf.ziggurat_tables` — the bit patterns of NumPy's
  ziggurat tables, embedded so the replay cannot drift with library
  formatting.
"""

from .exact_rng import VectorPCG64, derive_seed_batch, pcg64_state_words

__all__ = [
    "VectorPCG64",
    "derive_seed_batch",
    "pcg64_state_words",
]
