"""Keystream correctness against numpy's Philox, plus determinism contracts."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from speckin.rng import (
    RngStream,
    normals_at,
    philox4x64_block,
    raw_blocks,
    uniforms_at,
)


@pytest.mark.parametrize(
    "key,counter",
    [
        ((0, 0), 0),
        ((123, 456), 5),
        ((2**64 - 1, 17), 2**40),
        ((987654321, 2**63), 1),
    ],
)
def test_keystream_matches_numpy_philox(key, counter):
    # numpy increments the counter before producing its first block, so its
    # keystream at counter c starts with our block c+1; key passed as a
    # uint64 array because numpy mangles Python ints above int64 range
    ref = np.random.Philox(
        counter=np.array([counter, 0, 0, 0], dtype=np.uint64),
        key=np.array(key, dtype=np.uint64),
    ).random_raw(12)
    mine = raw_blocks(key[0], np.uint64(key[1]), counter + 1 + np.arange(3)).reshape(-1)
    assert np.array_equal(mine, ref)


def test_block_function_is_pure_and_vectorized():
    c = np.arange(100, dtype=np.uint64)
    z = np.zeros_like(c)
    k0 = np.full_like(c, 42)
    k1 = np.full_like(c, 7)
    w = philox4x64_block(c, z, z, z, k0, k1)
    for i in [0, 13, 99]:
        wi = philox4x64_block(c[i], 0, 0, 0, 42, 7)
        assert all(int(a[i]) == int(b) for a, b in zip(w, wi))


def test_draws_independent_of_chunking():
    sid = np.array([3, 9], dtype=np.uint64)
    whole = uniforms_at(2024, sid, 5, 17)
    parts = np.concatenate(
        [uniforms_at(2024, sid, 5, 6), uniforms_at(2024, sid, 11, 11)], axis=1
    )
    assert np.array_equal(whole, parts)


def test_streams_differ_and_reseed_repeats():
    a = RngStream(seed=1, stream_id=0)
    b = RngStream(seed=1, stream_id=1)
    c = RngStream(seed=1, stream_id=0)
    xa, xb, xc = a.normals(64), b.normals(64), c.normals(64)
    assert np.array_equal(xa, xc)
    assert not np.array_equal(xa, xb)
    assert a.counter == 64
    # continuing the stream equals a direct jump
    more = a.normals(10)
    direct = normals_at(1, [0], 64, 10)[0]
    assert np.array_equal(more, direct)


def test_uniforms_in_open_interval_and_flat():
    u = uniforms_at(7, np.arange(64, dtype=np.uint64), 0, 512).reshape(-1)
    assert u.min() > 0.0 and u.max() < 1.0
    _, p = stats.kstest(u, "uniform")
    assert p > 1e-4


def test_normals_match_standard_normal():
    z = normals_at(99, np.arange(32, dtype=np.uint64), 0, 1024).reshape(-1)
    _, p = stats.kstest(z, "norm")
    assert p > 1e-4
    assert abs(z.mean()) < 4 / np.sqrt(z.size)


def test_cross_stream_independence():
    # correlation between distinct streams at matched counters
    z = normals_at(5, np.arange(200, dtype=np.uint64), 0, 200)
    c = np.corrcoef(z)
    off = c[~np.eye(200, dtype=bool)]
    assert np.abs(off).max() < 0.35  # 200-sample correlations, 4.7 sigma bound


def test_per_row_starts_with_mixed_offsets():
    # starts at every offset within a block, with counts that end inside a
    # block and that cross block edges: each row equals a call of its own
    sid = np.array([3, 9, 4, 17, 0, 5], dtype=np.uint64)
    start = np.array([2, 4, 7, 13, 1, 8], dtype=np.uint64)
    for count in (1, 2, 3, 5, 96, 97):
        got = uniforms_at(2024, sid, start, count)
        assert got.shape == (len(sid), count)
        for i in range(len(sid)):
            assert np.array_equal(got[i], uniforms_at(2024, sid[i : i + 1], start[i], count)[0])
        assert np.array_equal(normals_at(2024, sid, start, count), ndtri(got))


def test_shared_words_any_shape():
    # a word shared by every block may be a scalar, a row, a column or a
    # full array: the keystream is the same bit for bit
    n, m = 5, 7
    ctr = (np.arange(m, dtype=np.uint64) + np.uint64(2**63))[None, :]  # a row
    sid = np.arange(n, dtype=np.uint64)[:, None] + np.uint64(11)  # a column
    full = np.broadcast_to(np.uint64(0), (n, m))

    def words(*args):
        return np.stack(np.broadcast_arrays(*philox4x64_block(*args)), axis=-1)

    want = words(ctr + full, full, full, full, full + np.uint64(42), sid + full)
    assert want.shape == (n, m, 4)
    for args in [
        (ctr, 0, 0, 0, 42, sid),
        (ctr, full, 0, full, np.uint64(42), sid),
        (ctr + full, 0, 0, 0, 42, sid + full),
        (ctr, np.zeros((n, 1), np.uint64), np.zeros(m, np.uint64), 0, 42, sid),
    ]:
        got = philox4x64_block(*args)
        assert all(w.shape == (n, m) for w in got)
        assert np.array_equal(np.stack(got, axis=-1), want)
    assert np.array_equal(raw_blocks(42, sid, ctr), want)
    assert np.array_equal(raw_blocks(42, sid + full, ctr + full), want)
    assert np.array_equal(raw_blocks(42, sid[0, 0], ctr[0, 3]), want[0, 3])
    scalar = philox4x64_block(ctr[0, 3], 0, 0, 0, 42, sid[0, 0])
    assert [int(w) for w in scalar] == [int(w) for w in want[0, 3]]
    # a start shared by every stream, as a scalar or one per stream
    ids = sid[:, 0]
    for start in (5, 8):
        shared = uniforms_at(42, ids, start, 13)
        assert np.array_equal(uniforms_at(42, ids, np.full(n, start, np.uint64), 13), shared)
        assert np.array_equal(uniforms_at(42, ids, [start], 13), shared)
