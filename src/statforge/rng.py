"""Deterministic, splittable random streams.

A stream is addressed by ``(root_seed, stream_id)`` and generates its output
by hashing a 64-bit counter (SplitMix64 finalizer), so draws are a pure
function of (seed, id, counter position). Splitting derives a child id in
O(1) and never touches the parent state, which makes replicate-parallel
Monte Carlo reproducible independently of worker count or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SPLIT_SALT = 0xC2B2AE3D27D4EB4F

# Bound on temporary arrays when generating very long outputs.
_DRAW_CHUNK = 1 << 22

_IOTA = np.arange(_DRAW_CHUNK, dtype=np.uint64)


def _iota(n: int) -> np.ndarray:
    return _IOTA[:n] if n <= _DRAW_CHUNK else np.arange(n, dtype=np.uint64)


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, mutating ``z`` (and ``scratch``) in place."""
    if scratch is None or scratch.shape != z.shape:
        scratch = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _stream_base(root_seed: int, stream_id: int) -> int:
    a = _mix64_int((root_seed & _MASK64) + _GOLDEN)
    b = _mix64_int((stream_id & _MASK64) ^ _SPLIT_SALT)
    return _mix64_int(a ^ (b * _GOLDEN & _MASK64))


@dataclass
class RandomStream:
    """Counter-based PRNG state.

    Identical ``(root_seed, stream_id)`` yield bit-identical draw sequences.
    The object is cheap; treat it as owned by a single worker and use
    :meth:`split` to hand independent streams to other workers.
    """

    root_seed: int
    stream_id: int = 0
    counter: int = 0
    _base: int = field(init=False, repr=False)

    def __post_init__(self):
        self.root_seed &= _MASK64
        self.stream_id &= _MASK64
        self._base = _stream_base(self.root_seed, self.stream_id)

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw uint64 words."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = np.empty(count, dtype=np.uint64)
        golden = np.uint64(_GOLDEN)
        scratch = np.empty(min(count, _DRAW_CHUNK), dtype=np.uint64)
        for start in range(0, count, _DRAW_CHUNK):
            stop = min(start + _DRAW_CHUNK, count)
            block = out[start:stop]
            np.copyto(block, _iota(stop - start))
            block *= golden
            block += np.uint64((self._base + _GOLDEN * (self.counter + start)) & _MASK64)
            _mix64_array(block, scratch[: stop - start])
        self.counter += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms on [0, 1)."""
        bits = self.raw(count)
        bits >>= np.uint64(11)
        return bits * np.float64(2.0 ** -53)

    def uniforms_open(self, count: int) -> np.ndarray:
        """i.i.d. uniforms on (0, 1], safe as log arguments."""
        bits = self.raw(count)
        bits >>= np.uint64(11)
        bits += np.uint64(1)
        return bits * np.float64(2.0 ** -53)

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normals via the Box-Muller transform."""
        if count == 0:
            return np.empty(0)
        pairs = (count + 1) // 2
        u1 = self.uniforms_open(pairs)
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return out[:count]

    def split(self, child_id: int) -> "RandomStream":
        """Child stream keyed by this stream's identity and ``child_id``."""
        derived = _mix64_int(
            _mix64_int(self.stream_id ^ _SPLIT_SALT) + ((child_id & _MASK64) * _GOLDEN & _MASK64)
        )
        return RandomStream(self.root_seed, derived)
