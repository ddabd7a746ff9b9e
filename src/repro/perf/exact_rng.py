"""Bit-exact, vectorised replay of ``numpy.random.Generator`` streams.

The fleet campaign's trigger law resolves one *behaviour* per
``(defect, setting)`` pair, each from its own named substream
(``substream(0, "trigger", defect_id, setting_key)``).  Creating tens of
thousands of ``numpy.random.Generator`` objects costs ~20 µs apiece —
far more than the draws themselves — so the vectorised campaign engine
replays those streams wholesale:

1. :func:`derive_seed_batch` — SHA-256 child-seed derivation with a
   shared-prefix fast path (one hasher copy per varying suffix).
2. :func:`pcg64_state_words` — a vectorised re-implementation of
   ``numpy.random.SeedSequence``'s entropy hash-mix.  The hash constants
   form a data-independent schedule, so N seeds mix in lockstep as
   uint32 array ops.
3. :class:`VectorPCG64` — N independent PCG64 streams advanced together
   (128-bit LCG arithmetic on 32-bit limbs), emitting the same 64-bit
   outputs, uniform doubles, and ziggurat normal variates as NumPy's
   scalar generator, bit for bit.

Rare ziggurat rejection paths (wedge/tail, ~1% of draws) resolve in
batched rounds: the rejected lanes re-draw together through the
vectorised generator, while the accept tests themselves use :mod:`math`
transcendentals, because NumPy's SIMD ``np.exp``/``np.log1p`` array
kernels are not bitwise identical to the C library calls the scalar
generator makes.

Bit-exactness is load-bearing: the behaviour's ``tmin`` gates whether a
stage occurrence consumes Bernoulli draws at all, so a 1-ULP drift
would desynchronise the replayed detection stream from the scalar
reference.  ``tests/unit/test_vectorized.py`` checks equality against
``numpy.random.default_rng`` over thousands of seeds, including the
rejection paths.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from .ziggurat_tables import FI, KI, WI, ZIGGURAT_NOR_INV_R, ZIGGURAT_NOR_R

__all__ = [
    "derive_seed_batch",
    "derive_from_hasher",
    "encode_names",
    "seed_hasher",
    "pcg64_state_words",
    "VectorPCG64",
]

_MASK64 = (1 << 64) - 1

# --------------------------------------------------------------------------
# SHA-256 child-seed derivation (vector form of repro.rng.derive_seed)
# --------------------------------------------------------------------------


def seed_hasher(seed: int, *names: str):
    """SHA-256 hasher primed with a :func:`repro.rng.derive_seed` prefix.

    Copy the returned hasher and feed it :func:`encode_names` blobs to
    derive children without re-hashing the shared prefix.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(seed)).encode("ascii"))
    for name in names:
        hasher.update(b"\x00")
        hasher.update(name.encode("utf-8"))
    return hasher


def encode_names(names: Sequence[str]) -> list[bytes]:
    """Pre-encode name components for :func:`derive_from_hasher`."""
    return [b"\x00" + name.encode("utf-8") for name in names]


def derive_from_hasher(base, encoded: Sequence[bytes]) -> list[int]:
    """Child seeds for each encoded suffix appended to ``base``.

    ``base`` comes from :func:`seed_hasher`; ``encoded`` from
    :func:`encode_names` (cacheable when the same suffixes recur).  One
    hasher copy + single-block digest per suffix is the whole cost.
    """
    copy = base.copy
    from_bytes = int.from_bytes
    # hasher.update returns None, so `or` chains it into the digest.
    return [
        from_bytes(
            (hasher := copy()).update(blob) or hasher.digest()[:8], "little"
        )
        for blob in encoded
    ]


def derive_seed_batch(
    seed: int, prefix: Sequence[str], suffixes: Sequence[str]
) -> np.ndarray:
    """Vector form of :func:`repro.rng.derive_seed`.

    Returns ``uint64`` seeds for ``derive_seed(seed, *prefix, s)`` for
    each ``s`` in ``suffixes``.  The shared prefix is hashed once and
    copied per suffix, which is the dominant saving when one defect
    fans out to many setting keys.
    """
    values = derive_from_hasher(seed_hasher(seed, *prefix), encode_names(suffixes))
    return np.array(values, dtype=np.uint64)


# --------------------------------------------------------------------------
# SeedSequence hash-mix (pool size 4, entropy = one uint64 seed)
# --------------------------------------------------------------------------

_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# The hash constant evolves independently of the data: position k of the
# mix uses A[k] for the xor and A[k+1] for the multiply.
_A_CONSTS = [_INIT_A]
for _ in range(16):
    _A_CONSTS.append((_A_CONSTS[-1] * _MULT_A) & 0xFFFFFFFF)
_A_CONSTS = [np.uint32(c) for c in _A_CONSTS]

_B_CONSTS = [_INIT_B]
for _ in range(8):
    _B_CONSTS.append((_B_CONSTS[-1] * _MULT_B) & 0xFFFFFFFF)
_B_CONSTS = [np.uint32(c) for c in _B_CONSTS]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R  # uint32 wraparound
    result ^= result >> _XSHIFT
    return result


def pcg64_state_words(seeds: np.ndarray) -> list[np.ndarray]:
    """Replay ``SeedSequence(seed).generate_state(4, uint64)`` for N seeds.

    ``seeds`` is a ``uint64`` array; the result is four ``uint64``
    arrays ``[w0, w1, w2, w3]`` matching NumPy word for word.  A seed
    below 2**32 coerces to one entropy word in NumPy and two here, but
    the second word is then zero and hashes identically to NumPy's
    zero-fill, so both ranges share one code path.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = [
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        np.zeros(seeds.shape, dtype=np.uint32),
        np.zeros(seeds.shape, dtype=np.uint32),
    ]
    position = 0

    def hashed(value: np.ndarray) -> np.ndarray:
        nonlocal position
        value = value ^ _A_CONSTS[position]
        value = value * _A_CONSTS[position + 1]
        value ^= value >> _XSHIFT
        position += 1
        return value

    pool = [hashed(word) for word in entropy]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashed(pool[i_src]))

    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ _B_CONSTS[i]
        value = value * _B_CONSTS[i + 1]
        value ^= value >> _XSHIFT
        state32.append(value)
    words = []
    for j in range(4):
        lo = state32[2 * j].astype(np.uint64)
        hi = state32[2 * j + 1].astype(np.uint64)
        words.append(lo | (hi << np.uint64(32)))
    return words


# --------------------------------------------------------------------------
# PCG64 (XSL-RR 128/64) on 32-bit limbs
# --------------------------------------------------------------------------

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_LIMBS = tuple(
    np.uint64((_PCG_MULT >> (32 * i)) & 0xFFFFFFFF) for i in range(4)
)
_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_MASK52 = np.uint64((1 << 52) - 1)
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

_FI_LIST = [float(v) for v in FI]


def _split128(hi: np.ndarray, lo: np.ndarray) -> list[np.ndarray]:
    """Split two uint64 halves into four little-endian 32-bit limbs."""
    return [lo & _M32, lo >> _U32, hi & _M32, hi >> _U32]


def _mul128_const(limbs: list[np.ndarray]) -> list[np.ndarray]:
    """(value * PCG multiplier) mod 2**128 on 32-bit limbs."""
    s0, s1, s2, s3 = limbs
    m0, m1, m2, m3 = _MULT_LIMBS
    # Column 0
    p = s0 * m0
    r0 = p & _M32
    carry = p >> _U32
    # Column 1: add partial products one at a time; each uint64 term
    # stays below 2**36, so the accumulator cannot overflow.
    lo_acc = carry
    p = s0 * m1
    lo_acc = lo_acc + (p & _M32)
    carry = p >> _U32
    p = s1 * m0
    lo_acc = lo_acc + (p & _M32)
    carry = carry + (p >> _U32)
    r1 = lo_acc & _M32
    carry = carry + (lo_acc >> _U32)
    # Column 2
    lo_acc = carry
    carry = np.zeros_like(carry)
    for a, b in ((s0, m2), (s1, m1), (s2, m0)):
        p = a * b
        lo_acc = lo_acc + (p & _M32)
        carry = carry + (p >> _U32)
    r2 = lo_acc & _M32
    carry = carry + (lo_acc >> _U32)
    # Column 3 (mod 2**128: discard the outgoing carry)
    lo_acc = carry
    for a, b in ((s0, m3), (s1, m2), (s2, m1), (s3, m0)):
        lo_acc = lo_acc + ((a * b) & _M32)
    r3 = lo_acc & _M32
    return [r0, r1, r2, r3]


def _add128(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    carry = np.zeros_like(a[0])
    for ai, bi in zip(a, b):
        total = ai + bi + carry
        out.append(total & _M32)
        carry = total >> _U32
    return out


class VectorPCG64:
    """N PCG64 streams advanced in lockstep, bit-compatible with NumPy.

    Construct via :meth:`from_seeds`.  Methods take an optional ``idx``
    array of lane indices; only those lanes step, so independent lanes
    may consume different numbers of draws (as the ziggurat sampler
    requires) without disturbing each other.
    """

    def __init__(self, state: list[np.ndarray], inc: list[np.ndarray]):
        self._state = state
        self._inc = inc
        self.size = int(state[0].shape[0])

    @classmethod
    def from_seeds(cls, seeds: np.ndarray) -> "VectorPCG64":
        """Streams equivalent to ``np.random.default_rng(seed)`` per seed."""
        w0, w1, w2, w3 = pcg64_state_words(seeds)
        initstate = _split128(w0, w1)
        initseq = _split128(w2, w3)
        # inc = (initseq << 1) | 1
        one = np.uint64(1)
        u31 = np.uint64(31)
        inc = [
            ((initseq[0] << one) | one) & _M32,
            ((initseq[1] << one) | (initseq[0] >> u31)) & _M32,
            ((initseq[2] << one) | (initseq[1] >> u31)) & _M32,
            ((initseq[3] << one) | (initseq[2] >> u31)) & _M32,
        ]
        # srandom_r: state = step(0) = inc; state += initstate; step.
        state = _add128(inc, initstate)
        state = _add128(_mul128_const(state), inc)
        return cls(state, inc)

    def _gather(self, idx: np.ndarray | None) -> tuple[list, list]:
        if idx is None:
            return self._state, self._inc
        return (
            [limb[idx] for limb in self._state],
            [limb[idx] for limb in self._inc],
        )

    def next64(self, idx: np.ndarray | None = None) -> np.ndarray:
        """Advance the selected lanes and return their 64-bit outputs."""
        state, inc = self._gather(idx)
        state = _add128(_mul128_const(state), inc)
        if idx is None:
            self._state = state
        else:
            for limb, new in zip(self._state, state):
                limb[idx] = new
        lo = state[0] | (state[1] << _U32)
        hi = state[2] | (state[3] << _U32)
        rot = state[3] >> np.uint64(26)  # state >> 122
        xored = hi ^ lo
        # rotr64; (64 - rot) & 63 keeps the shift defined when rot == 0.
        left = (np.uint64(64) - rot) & np.uint64(63)
        return (xored >> rot) | (xored << left)

    def next_double(self, idx: np.ndarray | None = None) -> np.ndarray:
        out = self.next64(idx)
        return (out >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE

    def uniform(
        self, low: float, high: float, idx: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-lane equivalent of ``Generator.uniform(low, high)``."""
        return low + (high - low) * self.next_double(idx)

    def normal(
        self, scale: float, idx: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-lane equivalent of ``Generator.normal(0.0, scale)``."""
        return scale * self.standard_normal(idx)

    def standard_normal(self, idx: np.ndarray | None = None) -> np.ndarray:
        """One ziggurat normal variate per selected lane."""
        if idx is None:
            idx = np.arange(self.size)
        out = np.empty(idx.shape[0], dtype=np.float64)
        r = self.next64(idx)
        strip = (r & np.uint64(0xFF)).astype(np.intp)
        r >>= np.uint64(8)
        sign = (r & np.uint64(1)).astype(bool)
        rabs = (r >> np.uint64(1)) & _MASK52
        x = rabs.astype(np.float64) * WI[strip]
        x = np.where(sign, -x, x)
        easy = rabs < KI[strip]
        out[easy] = x[easy]
        hard = np.flatnonzero(~easy)
        if hard.size:
            self._normal_hard(idx[hard], hard, strip[hard], rabs[hard], x[hard], out)
        return out

    def _normal_hard(
        self,
        lanes: np.ndarray,
        pos: np.ndarray,
        strip: np.ndarray,
        rabs: np.ndarray,
        x: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Wedge/tail continuation, matching NumPy's scalar rejection loop.

        The unresolved lanes re-draw together through the vectorised
        generator each round (tail lanes consume two doubles, wedge
        lanes one double plus a fresh 64-bit word on rejection — the
        exact per-stream draw pattern of the scalar loop).  Accept tests
        use :mod:`math` transcendentals because the scalar generator
        links against libm, whose results differ in the last ulp from
        NumPy's SIMD array kernels.
        """
        exp = math.exp
        log1p = math.log1p
        while pos.size:
            done = np.zeros(pos.size, dtype=bool)
            tail = strip == 0
            tail_sel = np.flatnonzero(tail)
            if tail_sel.size:
                tail_lanes = lanes[tail_sel]
                d1 = self.next_double(tail_lanes).tolist()
                d2 = self.next_double(tail_lanes).tolist()
                tail_pos = pos[tail_sel].tolist()
                tail_sign = (
                    (rabs[tail_sel] >> np.uint64(8)) & np.uint64(1)
                ).tolist()
                for k, (u1, u2) in enumerate(zip(d1, d2)):
                    xx = -ZIGGURAT_NOR_INV_R * log1p(-u1)
                    yy = -log1p(-u2)
                    if yy + yy > xx * xx:
                        value = ZIGGURAT_NOR_R + xx
                        out[tail_pos[k]] = -value if tail_sign[k] else value
                        done[tail_sel[k]] = True
            wedge_sel = np.flatnonzero(~tail)
            if wedge_sel.size:
                d = self.next_double(lanes[wedge_sel]).tolist()
                wedge_x = x[wedge_sel].tolist()
                wedge_strip = strip[wedge_sel].tolist()
                wedge_pos = pos[wedge_sel].tolist()
                rejected = []
                for k, u in enumerate(d):
                    s = wedge_strip[k]
                    value = wedge_x[k]
                    if (_FI_LIST[s - 1] - _FI_LIST[s]) * u + _FI_LIST[s] < exp(
                        -0.5 * value * value
                    ):
                        out[wedge_pos[k]] = value
                        done[wedge_sel[k]] = True
                    else:
                        rejected.append(k)
                if rejected:
                    rej = wedge_sel[rejected]
                    r = self.next64(lanes[rej])
                    new_strip = (r & np.uint64(0xFF)).astype(np.intp)
                    r >>= np.uint64(8)
                    sign = (r & np.uint64(1)).astype(bool)
                    new_rabs = (r >> np.uint64(1)) & _MASK52
                    new_x = new_rabs.astype(np.float64) * WI[new_strip]
                    new_x = np.where(sign, -new_x, new_x)
                    accept = new_rabs < KI[new_strip]
                    out[pos[rej[accept]]] = new_x[accept]
                    done[rej[accept]] = True
                    strip[rej] = new_strip
                    rabs[rej] = new_rabs
                    x[rej] = new_x
            keep = ~done
            pos = pos[keep]
            lanes = lanes[keep]
            strip = strip[keep]
            rabs = rabs[keep]
            x = x[keep]
