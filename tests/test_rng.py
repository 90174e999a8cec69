"""Keystream correctness against numpy's Philox, plus determinism contracts."""

import numpy as np
import pytest
from scipy import stats

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
