from datetime import timedelta

from hypothesis import given
from hypothesis import strategies as st

from xsign import intervals
from xsign.timeutil import utc

BASE = utc(2000)


def _iv(a, b):
    return (BASE + timedelta(days=a), BASE + timedelta(days=b))


def _days(items):
    out = set()
    for start, end in items:
        d = start
        while d < end:
            out.add(d)
            d += timedelta(days=1)
    return out


spans = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
        lambda t: _iv(min(t), max(t))),
    max_size=6)


def test_normalize_merges_adjacent():
    assert intervals.normalize([_iv(0, 5), _iv(5, 9)]) == [_iv(0, 9)]
    assert intervals.normalize([_iv(3, 3)]) == []


def test_subtract_splits():
    assert intervals.subtract([_iv(0, 10)], [_iv(3, 5)]) == [_iv(0, 3), _iv(5, 10)]


@given(spans, spans)
def test_set_semantics_against_day_enumeration(a, b):
    a, b = intervals.normalize(a), intervals.normalize(b)
    assert _days(intervals.normalize(a + b)) == _days(a) | _days(b)
    assert _days(intervals.intersect(a, b)) == _days(a) & _days(b)
    assert _days(intervals.subtract(a, b)) == _days(a) - _days(b)


@given(spans)
def test_normalize_is_canonical(a):
    out = intervals.normalize(a)
    assert out == intervals.normalize(out)
    assert all(s < e for s, e in out)
    assert all(out[i][1] < out[i + 1][0] for i in range(len(out) - 1))
