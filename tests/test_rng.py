"""Stream determinism, splitting, and basic output quality."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from statforge import rng
from statforge.rng import RandomStream


def test_same_key_bit_identical():
    a = RandomStream(123, 5).uniforms(1000)
    b = RandomStream(123, 5).uniforms(1000)
    assert np.array_equal(a, b)


def test_counter_continuation_matches_one_shot():
    s = RandomStream(9)
    first = s.uniforms(100)
    second = s.uniforms(100)
    merged = RandomStream(9).uniforms(200)
    assert np.array_equal(np.concatenate([first, second]), merged)


def test_split_is_stable_and_children_differ():
    root = RandomStream(77)
    assert np.array_equal(root.split(0).uniforms(100), root.split(0).uniforms(100))
    assert not np.array_equal(root.split(0).uniforms(100), root.split(1).uniforms(100))


def test_split_does_not_advance_parent():
    root = RandomStream(5)
    before = root.counter
    root.split(3)
    assert root.counter == before


def test_nested_splits_do_not_collide_with_flat_splits():
    root = RandomStream(31)
    flat = root.split(1).uniforms(64)
    nested = root.split(0).split(1).uniforms(64)
    assert not np.array_equal(flat, nested)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sid=st.integers(0, 2**64 - 1))
def test_uniforms_always_in_unit_interval(seed, sid):
    u = RandomStream(seed, sid).uniforms(64)
    assert np.all((0.0 <= u) & (u < 1.0))
    v = RandomStream(seed, sid).uniforms_open(64)
    assert np.all((0.0 < v) & (v <= 1.0))


def test_uniform_moments():
    u = RandomStream(2).uniforms(1_000_000)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12e6)
    assert abs(u.var() - 1.0 / 12.0) < 5e-4


def test_normals_standard_moments():
    z = RandomStream(3).normals(1_000_000)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # symmetry of third moment
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0 / n)


def test_lag_one_autocorrelation_small():
    u = RandomStream(11).uniforms(500_000) - 0.5
    corr = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(u.size)


def test_raw_draws_negative_count_rejected():
    with pytest.raises(ValueError):
        RandomStream(1).raw(-1)


def test_odd_normal_count():
    z = RandomStream(4).normals(7)
    assert z.shape == (7,)


@pytest.mark.parametrize("count", [7, 2 * 40_000 + 1])
def test_odd_normal_count_on_batch_rows(count):
    root = RandomStream(41)
    batch = root.batch([0, 3, 17])
    rows, after = batch.normals(count), batch.normals(3)
    assert rows.shape == (3, count)
    for i, row, tail in zip([0, 3, 17], rows, after):
        child = root.split(i)
        assert child.normals(count).tobytes() == row.tobytes()
        assert child.normals(3).tobytes() == tail.tobytes()


def _box_muller_reference(draws, count):
    """Box-Muller as one pass over whole arrays: the radii from the first
    ``pairs`` words, the angles 2*pi*m/2**53, m = word >> 11, from the next
    ``pairs`` by the table rule: the table entry of the top 10 bits of m
    turned by y = low * 2*pi/2**53, low the 43 low bits; cos, then sin."""
    pairs = (count + 1) // 2
    radius = np.log(draws.uniforms_open(pairs))
    radius *= -2.0
    np.sqrt(radius, out=radius)
    m = draws.raw(pairs) >> np.uint64(11)
    index = (m >> np.uint64(43)).astype(np.intp)
    y = (m & np.uint64(2**43 - 1)).astype(np.float64) * (2.0 * np.pi * 2.0**-53)
    y2 = y * y
    sin_y = y * (1.0 + y2 * (-1 / 6 + y2 * (1 / 120)))
    cos_y1 = y2 * (-1 / 2 + y2 * (1 / 24))
    c, s = rng._COS_TABLE[index], rng._SIN_TABLE[index]
    out = np.empty(m.shape[:-1] + (2 * pairs,))
    out[..., :pairs] = radius * (c + (c * cos_y1 - s * sin_y))
    out[..., pairs:] = radius * (s + (s * cos_y1 + c * sin_y))
    return out[..., :count]


def _normal_counts(rows):
    """Counts 1, 2 and odd, one below, at and one above the edge of a
    Box-Muller block of ``rows`` rows, and counts spanning several blocks."""
    edge = 2 * max(rng._NORMAL_MIN_PAIRS, rng._NORMAL_BLOCK // rows)
    return sorted({1, 2, 3, 7, edge - 1, edge, edge + 1, edge + 2,
                   3 * edge - 1, 3 * edge + 4})


@pytest.mark.parametrize("rows", [None, 1, 32, 4096])
def test_normals_equal_one_pass_reference_bitwise(rows):
    def fresh():
        root = RandomStream(2026, 10)
        return root.split(3) if rows is None else root.batch(np.arange(rows) * 7)

    for count in _normal_counts(1 if rows is None else rows):
        blocked, reference = fresh(), fresh()
        # start mid-stream, so blocks do not line up with the counter
        blocked.uniforms(3)
        reference.uniforms(3)
        z = blocked.normals(count)
        expected = _box_muller_reference(reference, count)
        assert z.shape == expected.shape
        assert z.tobytes() == expected.tobytes(), count
        assert blocked.counter == reference.counter == 3 + 2 * ((count + 1) // 2)
        assert blocked.raw(4).tobytes() == reference.raw(4).tobytes()


def test_normals_near_libm_box_muller():
    pairs = 1 << 20
    z = RandomStream(2026, 11).normals(2 * pairs)
    words = RandomStream(2026, 11)
    radius = np.sqrt(-2.0 * np.log(words.uniforms_open(pairs)))
    angle = 2.0 * np.pi * words.uniforms(pairs)
    for half, wave in ((z[:pairs], np.cos), (z[pairs:], np.sin)):
        assert np.max(np.abs(half - radius * wave(angle)) / radius) < 2e-15


_ANGLE_EDGES = [0, 2**43 - 1, 2**43, 2**53 - 1] + [
    quadrant * 2**43 + step for quadrant in (256, 512, 768) for step in (-1, 0, 1)]


def test_angle_table_edges():
    m = np.array(_ANGLE_EDGES, dtype=np.uint64)
    words = (m << np.uint64(11)) | np.uint64(0x7FF)  # the low 11 bits do not count
    cos = np.empty(m.size)
    sin = rng._cos_sin(words, cos)
    for k, value in enumerate(_ANGLE_EDGES):
        angle = 2.0 * math.pi * value / 2**53
        assert abs(cos[k] - math.cos(angle)) < 1e-15, value
        assert abs(sin[k] - math.sin(angle)) < 1e-15, value


def test_normals_follow_the_standard_normal_law():
    z = RandomStream(2026, 12).normals(200_000)
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_box_muller_angles_are_uniform():
    # the angle's own law: a wrong table index bends it
    pairs = 100_000
    z = RandomStream(2026, 13).normals(2 * pairs)
    angle = np.mod(np.arctan2(z[pairs:], z[:pairs]), 2.0 * np.pi)
    assert stats.kstest(angle, stats.uniform(0.0, 2.0 * np.pi).cdf).pvalue > 1e-3


def test_empty_batch_draws_empty_rows():
    batch = RandomStream(1).batch(np.array([], dtype=np.int64))
    assert batch.normals(5).shape == (0, 5)
    assert batch.counter == 6


def test_normals_reject_negative_count():
    with pytest.raises(ValueError):
        RandomStream(1).normals(-1)


_DRAW_METHODS = ("raw", "uniforms", "uniforms_open", "normals")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sid=st.integers(0, 2**64 - 1),
       ids=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=12),
       calls=st.lists(st.tuples(st.sampled_from(_DRAW_METHODS),
                                st.sampled_from([0, 1, 2, 5, 8, 13])),
                      max_size=6))
def test_batch_rows_equal_split_streams(seed, sid, ids, calls):
    root = RandomStream(seed, sid)
    batch = root.batch(ids)
    children = [root.split(i) for i in ids]
    for method, count in calls:
        rows = getattr(batch, method)(count)
        assert rows.shape == (len(ids), count)
        for row, child in zip(rows, children):
            assert getattr(child, method)(count).tobytes() == row.tobytes()
    assert [(s.stream_id, s.counter) for s in batch] == \
        [(c.stream_id, c.counter) for c in children]


def test_batch_spans_draw_chunks():
    root = RandomStream(8)
    big = root.batch([3, 4]).raw(70_001)
    assert np.array_equal(big[1], root.split(4).raw(70_001))
    many = root.batch(np.arange(5000)).normals(9)
    assert np.array_equal(many[4321], root.split(4321).normals(9))


def test_batch_rejects_non_integer_ids():
    with pytest.raises(ValueError):
        RandomStream(1).batch([0.5, 1.5])


def test_block_and_chunk_sizes_are_stated_only_in_rng():
    # replicate's 2**16 and replicate_chunks' 2**22 are stated once; a
    # caller's docstring names the primitive and its own width
    for path in sorted(Path(rng.__file__).parent.glob("*.py")):
        if path.name != "rng.py":
            assert not re.search(r"2\s*\*\*\s*(22|16)\b", path.read_text()), path.name
