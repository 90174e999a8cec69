"""Counter-based random number streams for reproducible parallel Monte Carlo.

Philox4x64-10 evaluated as a pure function of (key, counter), vectorized over
both, so any (seed, stream_id, counter) triple addresses its draw directly.
Results are bit-identical however the work is chunked across workers, which
is what the reproducibility contract requires; stateful generators cannot
give that once particles consume different amounts of noise.

Keys are (seed, stream_id); the 256-bit counter carries the block index in
word 0. One block yields four doubles. Normals come from the inverse normal
CDF of 53-bit uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "RngStream",
    "philox4x64_block",
    "raw_blocks",
    "uniforms_at",
    "normals_at",
]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)

# normals per counter block (4 uint64 words -> 4 doubles)
BLOCK = 4


def _mulhilo(a, b):
    """128-bit product of uint64s as (hi, lo); a is a scalar constant."""
    lo = a * b  # uint64 wraps mod 2^64
    a_hi, a_lo = a >> _SH32, a & _MASK32
    b_hi, b_lo = b >> _SH32, b & _MASK32
    t = a_lo * b_lo
    t1 = a_hi * b_lo + (t >> _SH32)
    t2 = a_lo * b_hi + (t1 & _MASK32)
    hi = a_hi * b_hi + (t1 >> _SH32) + (t2 >> _SH32)
    return hi, lo


def philox4x64_block(c0, c1, c2, c3, k0, k1):
    """Ten Philox4x64 rounds on broadcastable uint64 arrays.

    Returns four uint64 arrays (the output block), each of the inputs'
    broadcast shape.  Pure function of its arguments; matches numpy's Philox
    keystream (which emits the block for counter N+1 first when seeded with
    counter N).  Inputs are not broadcast against each other first: a word
    shared by every block (a scalar, a row or a column) stays that small
    through the rounds until the mixing spreads it, which saves work on the
    full arrays in the first two rounds.
    """
    c0, c1, c2, c3, k0, k1 = (np.asarray(v, dtype=np.uint64) for v in (c0, c1, c2, c3, k0, k1))
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        for r in range(10):
            if r > 0:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0 = hi1 ^ c1 ^ k0
            c1 = lo1
            c2 = hi0 ^ c3 ^ k1
            c3 = lo0
    return c0, c1, c2, c3


def raw_blocks(seed, stream_ids, blocks):
    """Keystream words for key=(seed, stream_id), counter=(block, 0, 0, 0).

    stream_ids and blocks broadcast; output shape is their broadcast shape
    plus a trailing axis of 4 words.
    """
    w = philox4x64_block(blocks, 0, 0, 0, seed, stream_ids)
    return np.stack(w, axis=-1)


def _to_uniform(words):
    # 53-bit mantissa; offset keeps the value strictly inside (0, 1)
    return (words >> _SH11).astype(np.float64) * (2.0**-53) + 2.0**-54


def uniforms_at(seed, stream_ids, start, count):
    """`count` uniforms per stream starting at absolute draw index `start`.

    start is one index for every stream or one per stream; the draw at
    index i is the same no matter how the request is split.
    """
    sid = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    st = np.asarray(start, dtype=np.uint64)
    offs = (st % BLOCK).astype(np.int64)
    lo, hi = int(offs.min()), int(offs.max())
    nblk = (hi + count + BLOCK - 1) // BLOCK
    # a shared start keeps its blocks one row for every stream
    blk = (st // BLOCK)[..., None] + np.arange(nblk, dtype=np.uint64)
    words = raw_blocks(seed, sid[:, None], blk)
    words = words.reshape(words.shape[0], nblk * BLOCK)
    if lo == hi:
        out = words[:, lo : lo + count]
    else:
        out = np.take_along_axis(words, offs[:, None] + np.arange(count), axis=1)
    return _to_uniform(out)


def normals_at(seed, stream_ids, start, count):
    """Standard normals via the inverse CDF of uniforms_at."""
    return ndtri(uniforms_at(seed, stream_ids, start, count))


@dataclass
class RngStream:
    """One addressable noise stream: (seed, stream_id, counter).

    counter counts normals already consumed; drawing advances it. The value
    of draw i is a pure function of (seed, stream_id, i).
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def normals(self, count):
        out = normals_at(self.seed, [self.stream_id], self.counter, count)[0]
        self.counter += count
        return out

    def jump_to(self, counter):
        self.counter = int(counter)
