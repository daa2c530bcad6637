"""fixed_sum is math.fsum bit for bit: results, signed zeros and exceptions;
fixed_row_sums is fixed_sum of each row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chordmean import poisson
from chordmean.poisson import fixed_row_sums, fixed_sum

CUTOFF = poisson._FSUM_CUTOFF
CHUNK = poisson._CHUNK
SIZES = [0, 1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1, CHUNK - 1, CHUNK, CHUNK + 1,
         2 * CHUNK + 3]


def outcome(fn, x):
    """The hex of each float returned (so the sign of zero counts), or the
    exception raised."""
    try:
        return [v.hex() for v in np.ravel(fn(x)).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def reference(x):
    return math.fsum(np.asarray(x).ravel().tolist())


def assert_same(x):
    assert outcome(fixed_sum, x) == outcome(reference, x)


@st.composite
def float_arrays(draw):
    """Arrays mixing magnitudes from subnormals up to 1e300, of one sign or
    both, with optional exact cancellation, signed zeros, and 2-D or strided
    layouts."""
    size = draw(st.sampled_from(SIZES))
    lo = draw(st.integers(-1074, 997))
    hi = draw(st.integers(lo, 997))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(lo, hi + 1, size))
    if draw(st.booleans()):                 # one sign: no cancellation at all
        x = np.abs(x)
    if draw(st.booleans()):                 # x, -x pairs cancel exactly
        x = np.concatenate([x, -x[: rng.integers(0, size + 1)]])
        rng.shuffle(x)
    if draw(st.booleans()):
        x[rng.random(x.size) < 0.2] = -0.0
    layout = draw(st.sampled_from(["flat", "2d", "strided"]))
    if layout == "2d" and x.size % 2 == 0:
        x = x.reshape(-1, 2)
    elif layout == "strided":
        x = np.repeat(x, 3)[::3]
    return x


@settings(derandomize=True, max_examples=300, deadline=None)
@given(float_arrays())
def test_fixed_sum_matches_fsum(x):
    assert_same(x)


@pytest.mark.parametrize("size", SIZES)
def test_fixed_sum_signed_zeros(size):
    assert_same(np.full(size, -0.0))
    assert_same(np.zeros(size))
    x = np.linspace(-1.0, 1.0, size)
    assert_same(np.concatenate([x, -x]))


@pytest.mark.parametrize("size", [CUTOFF - 1, CHUNK + 1])
def test_fixed_sum_special_values(size):
    base = np.linspace(-1.0, 1.0, size)
    for special in ([math.inf], [math.nan], [-math.inf], [math.inf, -math.inf],
                    [1.7e308, 1.7e308],
                    [1e308, 1e308, -1e308, -1e308, 1.0]):
        x = np.concatenate([base, special])
        assert_same(x)
        assert_same(x[::-1])
    assert_same(np.full(size, 1.7e308))
    assert_same(np.full(size, 2.0 ** -1074))


def test_fixed_sum_wide_and_tiny_ranges():
    # Spans wider than the folds cover, and values too small to split, leave
    # exact remainders that are summed value by value.
    rng = np.random.default_rng(5)
    n = 3 * CHUNK + 7
    for lo, hi in ((-1000, 900), (-1074, -1030), (-1074, -900), (-60, 60)):
        x = np.ldexp(rng.standard_normal(n), rng.integers(lo, hi, n))
        assert_same(x)
        assert_same(np.concatenate([x, -x[::2]]))


ROW_SIZES = [1, 511, 512, 1023, 1024, 8193]


def assert_rows_same(rows):
    assert outcome(fixed_row_sums, rows) == outcome(
        lambda r: [fixed_sum(row) for row in r], rows)


def as_rows(x, m):
    """The values of ``x`` as rows of m, or as one row when there are fewer."""
    flat = np.ravel(x)
    k = flat.size // m
    return flat[:k * m].reshape(k, m) if k else flat[np.newaxis]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(float_arrays(), st.sampled_from(ROW_SIZES))
def test_row_sums_match_fixed_sum(x, m):
    assert_rows_same(as_rows(x, m))


@pytest.mark.parametrize("m", ROW_SIZES)
def test_row_sums_signed_zeros_and_cancellation(m):
    x = np.linspace(-1.0, 1.0, m)
    rows = np.stack([np.zeros(m), np.full(m, -0.0), x, -x, np.ones(m)])
    rows[2:4, ::2] *= -1.0          # x, -x pairs across the two rows
    assert_rows_same(rows)
    assert_rows_same(np.concatenate([rows, -rows], axis=1))   # +0 totals
    minus = np.full((2, m), -0.0)
    minus[1, 0] = -1e-300
    assert_rows_same(minus)                                     # -0 and tiny
    assert_rows_same(rows[:1])
    assert_rows_same(rows[4:])


@pytest.mark.parametrize("m", ROW_SIZES)
def test_row_sums_subnormals_next_to_huge_values(m):
    rng = np.random.default_rng(m)
    tiny = np.ldexp(rng.uniform(-1.0, 1.0, (3, m)), rng.integers(-1074, -1020, (3, m)))
    huge = rng.uniform(-1.0, 1.0, (3, m)) * 1e300
    mixed = tiny.copy()
    mixed[:, ::3] = huge[:, ::3]
    assert_rows_same(np.concatenate([tiny, huge, mixed]))
    assert_rows_same(mixed[:1])


@pytest.mark.parametrize("m", [511, 8193])
def test_row_sums_special_values(m):
    rows = np.tile(np.linspace(-1.0, 1.0, m), (4, 1))
    for special in (math.inf, math.nan, -math.inf, 1.7e308):
        bad = rows.copy()
        bad[2, m // 2] = special
        assert_rows_same(bad)
    bad = rows.copy()
    bad[1, :2], bad[3, :2] = (math.inf, -math.inf), (math.nan, 1.0)
    assert_rows_same(bad)           # the first failing row raises
    assert_rows_same(np.full((3, m), 1.7e308))


def exact_parts_of_pieces(x, cuts):
    """math.fsum of the concatenated ``_exact_parts`` of x cut at ``cuts``."""
    edges = [0, *sorted(cuts), x.size]
    parts = []
    for start, stop in zip(edges, edges[1:]):
        parts += poisson._exact_parts(x[start:stop])
    return math.fsum(parts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(float_arrays(), st.lists(st.floats(0.0, 1.0), max_size=5),
       st.sampled_from([None, math.inf, -math.inf, math.nan, "inf and -inf"]),
       st.floats(0.0, 1.0))
def test_exact_parts_of_pieces_sum_to_the_whole(x, fractions, special, where):
    # the exact sum does not depend on where the values are cut, so the
    # pieces' parts, rounded once, are fixed_sum and math.fsum of the whole;
    # a piece holding inf or nan gives its own values
    x = np.ravel(x).copy()
    if special is not None and x.size:
        i = int(where * (x.size - 1))
        x[i] = math.inf if special == "inf and -inf" else special
        if special == "inf and -inf":
            x[x.size - 1 - i if x.size > 1 else i] = -math.inf
    cuts = [int(f * x.size) for f in fractions]
    whole = outcome(reference, x)
    assert outcome(fixed_sum, x) == whole
    pieces = outcome(lambda v: exact_parts_of_pieces(v, cuts), x)
    if whole in (["0x0.0p+0"], ["-0x0.0p+0"]):
        # an exact zero: its sign is that of math.fsum over all the values,
        # which fixed_sum and poisson._cap_sums take again
        assert pieces in (["0x0.0p+0"], ["-0x0.0p+0"])
    else:
        assert pieces == whole


@pytest.mark.parametrize("cuts", [[CHUNK - 1], [CUTOFF - 1, CUTOFF + 5], [1, 2, 3 * CHUNK]])
def test_exact_parts_of_pieces_over_wide_and_tiny_ranges(cuts):
    rng = np.random.default_rng(6)
    n = 3 * CHUNK + 7
    for lo, hi in ((-1000, 900), (-1074, -1030), (-1074, -900), (-60, 60)):
        x = np.ldexp(rng.standard_normal(n), rng.integers(lo, hi, n))
        for values in (x, np.concatenate([x, -x[::2]]), np.where(x > 0, x, 0.0)):
            assert exact_parts_of_pieces(values, cuts).hex() == reference(values).hex()
    # huge values that cancel beside tiny ones: the sum is that of the
    # remainders the folds leave, which must not be dropped
    cancel = np.empty(3 * n)
    cancel[0::3] = np.ldexp(rng.standard_normal(n), rng.integers(800, 900, n))
    cancel[1::3] = -cancel[0::3]
    cancel[2::3] = np.ldexp(rng.standard_normal(n), rng.integers(-1074, -1000, n))
    assert fixed_sum(cancel).hex() == reference(cancel).hex() != "0x0.0p+0"
    assert exact_parts_of_pieces(cancel, cuts).hex() == reference(cancel).hex()
