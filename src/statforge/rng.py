"""Deterministic, splittable random streams.

A stream is addressed by ``(root_seed, stream_id)`` and generates its output
by hashing a 64-bit counter (SplitMix64 finalizer), so draws are a pure
function of (seed, id, counter position). Splitting derives a child id in
O(1) and never touches the parent state, which makes replicate-parallel
Monte Carlo reproducible independently of worker count or execution order.
Because word ``i`` depends only on the stream's base and ``i``, a batch of
child streams is drawn as one ``(R, k)`` array whose rows are bit-identical
to the children drawn one by one (the Random123 / SplitMix idea).
:func:`replicate` runs Monte Carlo replicates on that rule: replicate ``r``
draws from ``root.split(r)``, in blocks drawn as batches, optionally over a
process pool; :func:`replicate_chunks` makes each replicate one chunk of a long sample.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .errors import DomainError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SPLIT_SALT = 0xC2B2AE3D27D4EB4F

# Bound on temporary arrays when generating long outputs; cache-sized.
_DRAW_CHUNK = 1 << 15

# Elements per block of Box-Muller temporaries (120 KiB of float64 or
# uint64): the radius pass's uniforms, and the angle pass's words, table
# entries and polynomial terms (``_cos_sin``) each stay below glibc's initial
# 128 KiB mmap threshold, so they are reused from the heap instead of being
# mapped and faulted in afresh.
_NORMAL_BLOCK = 15 << 10

# Fewest pairs per block: a block of a batch is a (rows, pairs) slab of
# strided rows, and a slab narrower than this costs more in per-row loop
# overhead than its smaller temporaries save.
_NORMAL_MIN_PAIRS = 64

# uniforms from the top 53 bits of a word
_SHIFT = np.uint64(11)
_ONE = np.uint64(1)
_ULP = np.float64(2.0 ** -53)

# golden * i for the counter offsets i of one chunk
_STEPS = np.arange(_DRAW_CHUNK, dtype=np.uint64) * np.uint64(_GOLDEN)

# Box-Muller angles 2*pi*m/2**53 from the 53-bit integer m = word >> 11: the
# top 10 bits of m index tables of cos and sin of 2*pi*i/1024, and the low 43
# bits, the bits 11..53 of the word, give the rest y < 2*pi/1024. The tables
# are built from the first quadrant by symmetry: its float64 angles are
# within 1.7e-16 of the true ones, the full circle's only within 6.8e-16.
_QUADRANT = np.sin(np.arange(257) * (np.pi / 512))
_SIN_TABLE = np.concatenate([_QUADRANT, _QUADRANT[-2::-1], -_QUADRANT[1:], -_QUADRANT[-2:0:-1]])
_COS_TABLE = np.roll(_SIN_TABLE, -256)
_INDEX_SHIFT = np.uint64(54)
_LOW_BITS = np.uint64(((1 << 43) - 1) << 11)
_LOW_SCALE = 2.0 * np.pi * 2.0 ** -64  # (low << 11) * this = low * 2*pi / 2**53


def _mix64(z):
    """SplitMix64 finalizer on a Python int or a uint64 array (mod 2**64)."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, mutating ``z`` (and ``scratch``) in place."""
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _stream_base(root_seed: int, stream_id):
    """Base word of stream ``(root_seed, stream_id)``; ``stream_id`` may be
    a uint64 array of ids."""
    a = _mix64((root_seed & _MASK64) + _GOLDEN)
    b = _mix64((stream_id & _MASK64) ^ _SPLIT_SALT)
    return _mix64(a ^ (b * _GOLDEN & _MASK64))


def _child_id(stream_id: int, child_id):
    """Id of child ``child_id`` (an int or a uint64 array) of ``stream_id``."""
    return _mix64(_mix64(stream_id ^ _SPLIT_SALT) + ((child_id & _MASK64) * _GOLDEN & _MASK64))


def _words(bases: np.ndarray, start: int, count: int) -> np.ndarray:
    """Words ``start .. start + count - 1`` of the streams with the given
    bases, shape ``(bases.size, count)``: word ``i`` of a stream is
    ``mix64(base + golden * i)``."""
    out = np.empty((bases.size, count), dtype=np.uint64)
    rows = max(1, _DRAW_CHUNK // max(count, 1))
    scratch = np.empty(min(out.size, _DRAW_CHUNK), dtype=np.uint64)
    for col in range(0, count, _DRAW_CHUNK):
        stop = min(col + _DRAW_CHUNK, count)
        offsets = bases + np.uint64(_GOLDEN * (start + col) & _MASK64)
        for row in range(0, bases.size, rows):
            block = out[row:row + rows, col:stop]
            np.add(offsets[row:row + rows, None], _STEPS[: stop - col], out=block)
            _mix64_array(block, scratch[: block.size].reshape(block.shape))
    return out


class _Draws:
    """Draw methods shared by one stream and a batch of streams. Each call
    takes the next ``count`` words of every stream from one counter and
    works along the last axis of the words."""

    counter: int
    _bases: np.ndarray
    _lead: tuple  # shape before the word axis: () for one stream, (R,) for a batch

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw uint64 words of every stream."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        out = _words(self._bases, self.counter, count)
        self.counter += count
        return out.reshape(self._lead + (count,))

    def uniforms(self, count: int) -> np.ndarray:
        """i.i.d. uniforms on [0, 1)."""
        bits = self.raw(count)
        bits >>= _SHIFT
        return bits * _ULP

    def uniforms_open(self, count: int) -> np.ndarray:
        """i.i.d. uniforms on (0, 1], safe as log arguments."""
        bits = self.raw(count)
        bits >>= _SHIFT
        bits += _ONE
        return bits * _ULP

    def normals(self, count: int) -> np.ndarray:
        """i.i.d. standard normals via the Box-Muller transform: the first
        ``pairs`` words give the radii sqrt(-2 log u), u uniform on (0, 1],
        and the next ``pairs`` the angles 2*pi*m/2**53, m = word >> 11, the
        same words as ``uniforms_open`` and ``uniforms`` would take;
        ``radius * cos`` and ``radius * sin`` fill the two halves of one
        array. The cos and sin of an angle come from the word's integer bits
        (:func:`_cos_sin`): the top 10 bits of m index a 1024-entry table,
        and short polynomials in the rest y < 2*pi/1024, from the low 43
        bits, turn the entry by the angle-addition formulas. numpy 2.4 runs
        float64 ``cos`` and ``sin`` as scalar libm calls, 16-24 ns each,
        against 1.2-4.5 ns for its SIMD ``log`` and ``sqrt``, so libm trig
        took most of a normal's time; this rule takes a normal from 36-39 to
        16-17 ns (2-core x86-64 host). Should numpy vectorise float64 trig,
        ``np.cos`` and ``np.sin`` of the angle would do again. Both passes
        run over blocks of pairs, so their temporaries stay small (see
        ``_NORMAL_BLOCK``)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        pairs = (count + 1) // 2
        out = np.empty(self._lead + (2 * pairs,))
        cos_half, sin_half = out[..., :pairs], out[..., pairs:]
        step = max(_NORMAL_MIN_PAIRS, _NORMAL_BLOCK // max(1, self._bases.size))
        # pass 1: the radii sqrt(-2 log u), parked in the sin half
        for start in range(0, pairs, step):
            radius = self.uniforms_open(min(step, pairs - start))
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=sin_half[..., start:start + step])
        # pass 2: the angles; radius * cos, and radius * sin in place
        for start in range(0, pairs, step):
            cos_block = cos_half[..., start:start + step]
            radius = sin_half[..., start:start + step]
            sin_block = _cos_sin(self.raw(min(step, pairs - start)), cos_block)
            cos_block *= radius
            radius *= sin_block
        return out[..., :count]


def _cos_sin(words: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """cos and sin of the angles 2*pi*m/2**53, m = word >> 11, of the uint64
    ``words`` (overwritten): cos into ``cos``, sin returned. The angle is
    2*pi*i/1024 + y with i the top 10 bits of m and y = low * 2*pi/2**53,
    low its 43 low bits; then cos = C + (C (cos y - 1) - S sin y) and
    sin = S + (S (cos y - 1) + C sin y), with C and S the table entries of i,
    sin y = y (1 + y^2 (-1/6 + y^2/120)) and cos y - 1 = y^2 (-1/2 + y^2/24).
    On 10**7 words each came within 2e-16 of a long-double cos and sin of
    the exact angle; libm's of the angle rounded to float64 within 7e-16."""
    index = (words >> _INDEX_SHIFT).view(np.int64)
    c, s = _COS_TABLE[index], _SIN_TABLE[index]
    # fewer block-sized temporaries at once: the index goes before the
    # polynomials, and y2 takes the spent words' memory
    del index
    words &= _LOW_BITS
    y = words.view(np.int64) * _LOW_SCALE
    y2 = np.multiply(y, y, out=words.view(np.float64))
    sin_y = y2 * (1 / 120)
    sin_y -= 1 / 6
    sin_y *= y2
    sin_y += 1.0
    sin_y *= y
    cos_y1 = np.multiply(y2, 1 / 24, out=y)
    cos_y1 -= 0.5
    cos_y1 *= y2
    np.multiply(c, cos_y1, out=cos)
    cos -= np.multiply(s, sin_y, out=y2)
    cos += c
    cos_y1 *= s
    c *= sin_y
    cos_y1 += c
    s += cos_y1
    return s


@dataclass
class RandomStream(_Draws):
    """Counter-based PRNG state.

    Identical ``(root_seed, stream_id)`` yield bit-identical draw sequences.
    The object is cheap; treat it as owned by a single worker and use
    :meth:`split` to hand independent streams to other workers.
    """

    root_seed: int
    stream_id: int = 0
    counter: int = 0
    _bases: np.ndarray = field(init=False, repr=False, compare=False)
    _lead = ()

    def __post_init__(self):
        self.root_seed &= _MASK64
        self.stream_id &= _MASK64
        self._bases = np.array([_stream_base(self.root_seed, self.stream_id)],
                               dtype=np.uint64)

    def split(self, child_id: int) -> "RandomStream":
        """Child stream keyed by this stream's identity and ``child_id``."""
        return RandomStream(self.root_seed, _child_id(self.stream_id, child_id))

    def batch(self, ids) -> "StreamBatch":
        """The child streams ``self.split(i)`` for every ``i`` in ``ids``,
        drawn together: see :class:`StreamBatch`."""
        ids = np.asarray(ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError("ids must be a one-dimensional array of integers")
        return StreamBatch(self, ids)


class StreamBatch(_Draws):
    """The child streams ``parent.split(i)``, ``i`` in ``ids``, drawn as one
    array.

    ``raw``, ``uniforms``, ``uniforms_open`` and ``normals`` return
    ``(R, count)`` arrays whose row ``i`` is bit-identical to the same
    sequence of calls on ``parent.split(ids[i])``; one counter serves every
    row. Iterating yields those child streams at the batch's counter.
    """

    def __init__(self, parent: RandomStream, ids: np.ndarray):
        self.parent = parent
        self.ids = ids
        self.counter = 0
        self._lead = ids.shape
        self._bases = _stream_base(parent.root_seed,
                                   _child_id(parent.stream_id, ids.astype(np.uint64)))

    def __iter__(self):
        for i in self.ids.tolist():
            child = self.parent.split(i)
            child.counter = self.counter
            yield child


# -- replicates -------------------------------------------------------------------

# Most replicates in a block handed to a kernel, most numbers (rows times
# width) in a block's arrays, and most numbers (items times width) in a chunk
# of a long sample: each bounds the memory of one batch.
_REPLICATE_BLOCK = 4096
_BLOCK_NUMBERS = 1 << 16
_CHUNK_NUMBERS = 1 << 22


def replicate(kernel: Callable, n_replicates: int, root: RandomStream,
              workers: int = 1, width: int = 1) -> np.ndarray:
    """Run ``kernel`` over the child streams ``root.split(r)`` of replicates
    ``r = 0 .. n_replicates - 1``, one contiguous block at a time.

    ``kernel(batch)`` receives the :class:`StreamBatch` of a block and
    returns an array whose last axis indexes its rows; the blocks' results
    are concatenated along that axis in replicate order. Rows draw exactly
    what ``root.split(r)`` draws, so the result is identical for any worker
    count and any block size; ``workers > 1`` maps the blocks over a process
    pool, cut small enough that every worker gets one, with no more workers
    than blocks or than the CPUs this process may use, and runs in-process
    when that leaves one worker.

    ``width`` is how many numbers one replicate's row of the kernel's arrays
    holds (a fit's observations, say). A block holds at most
    ``min(4096, max(1, 2**16 // width), ceil(n_replicates / workers))``
    replicates, so that its ``(rows, width)`` arrays stay small.
    """
    if n_replicates < 1:
        raise DomainError("need at least one replicate")
    size = min(_REPLICATE_BLOCK, max(1, _BLOCK_NUMBERS // width),
               -(-n_replicates // max(workers, 1)))
    block = partial(_replicate_block, kernel, root, n_replicates, size)
    starts = range(0, n_replicates, size)
    workers = min(workers, len(starts), _usable_cpus())
    if workers <= 1:
        parts = [block(start) for start in starts]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            parts = list(pool.map(block, starts))
    return np.concatenate(parts, axis=-1)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The OpenBLAS builds bundled with numpy and scipy, and the call that sets
# each one's thread count.
_OPENBLAS = ((np, "numpy.libs/libscipy_openblas64_*", "scipy_openblas_set_num_threads64_"),
             (scipy, "scipy.libs/libscipy_openblas-*", "scipy_openblas_set_num_threads"))


def _one_blas_thread():
    """Pool initializer: one OpenBLAS thread per worker, so that workers do
    not each start a thread on every core. A library or symbol that is not
    there is skipped."""
    for package, pattern, symbol in _OPENBLAS:
        for path in Path(package.__file__).parents[1].glob(pattern):
            try:
                setter = getattr(ctypes.CDLL(str(path)), symbol)
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _replicate_block(kernel, root, n_replicates, size, start):
    return kernel(root.batch(np.arange(start, min(start + size, n_replicates))))


def _each_row(task: Callable, batch) -> np.ndarray:
    """A kernel that runs ``task(stream)`` on each row of a block; a task
    returning ``k`` numbers gives a ``(k, R)`` result."""
    return np.stack([task(stream) for stream in batch], axis=-1)


def replicate_chunks(task: Callable, total: int, root: RandomStream,
                     workers: int = 1, width: int = 1) -> np.ndarray:
    """:func:`replicate` with one row per chunk of ``total`` items: row ``c`` runs
    ``task(root.split(c), take)``; results join along the last axis. A chunk holds
    ``max(1, 2**22 // width)`` items of ``width`` numbers each, the last the rest."""
    chunk = max(1, _CHUNK_NUMBERS // width)
    return replicate(partial(_each_chunk, task, total, chunk), -(-total // chunk), root,
                     workers)


def _each_chunk(task: Callable, total: int, chunk: int, batch) -> np.ndarray:
    return np.concatenate([task(stream, min(chunk, total - c * chunk))
                           for c, stream in zip(batch.ids.tolist(), batch)], axis=-1)
