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

    Returns four uint64 arrays (the output block). Pure function of its
    arguments; matches numpy's Philox keystream (which emits the block for
    counter N+1 first when seeded with counter N).
    """
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    k0 = np.asarray(k0, dtype=np.uint64).copy()
    k1 = np.asarray(k1, dtype=np.uint64).copy()
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
    s = np.broadcast_arrays(
        np.asarray(stream_ids, dtype=np.uint64), np.asarray(blocks, dtype=np.uint64)
    )
    sid, blk = s
    zero = np.zeros_like(blk)
    k0 = np.full_like(blk, np.uint64(seed))
    w = philox4x64_block(blk, zero, zero, zero, k0, sid)
    return np.stack(w, axis=-1)


def _to_uniform(words):
    # 53-bit mantissa; offset keeps the value strictly inside (0, 1)
    return (words >> _SH11).astype(np.float64) * (2.0**-53) + 2.0**-54


def uniforms_at(seed, stream_ids, start, count):
    """`count` uniforms per stream starting at absolute draw index `start`.

    start broadcasts with stream_ids; the draw at index i is the same no
    matter how the request is split.
    """
    sid = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
    st = np.broadcast_to(np.asarray(start, dtype=np.uint64), sid.shape)
    first = st // BLOCK
    nblk = int((int(st.max() % BLOCK) + count + BLOCK - 1) // BLOCK)
    blk = first[:, None] + np.arange(nblk, dtype=np.uint64)[None, :]
    words = raw_blocks(seed, sid[:, None], blk).reshape(len(sid), nblk * BLOCK)
    offs = (st % BLOCK).astype(np.int64)
    if np.all(offs == offs[0]):
        out = words[:, int(offs[0]) : int(offs[0]) + count]
    else:
        idx = offs[:, None] + np.arange(count)[None, :]
        out = np.take_along_axis(words, idx, axis=1)
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
