"""The assessment report's two encodings of a row, and the CSV's two ways
of reading the report's lines, agree."""

import json
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from xsign import reports
from xsign.pathengine import TrustAssessment, TrustInterval
from xsign.timeutil import utc

# Text without a character that JSON escapes, and text with characters
# that JSON must escape or that `ensure_ascii` writes as `\u` escapes, both
# sometimes named like an interval's key.
_PLAIN = st.one_of(st.text("abcdef0123456789:-", max_size=6), st.just("from"))
_SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                            "\u00e9", "\u4e2d", "\U0001f600", "\ud800", ",",
                            "/"])
_TEXT = st.one_of(st.text(st.one_of(st.characters(), _SPECIAL), max_size=6),
                  st.sampled_from(['"from"', '"from": "']), _PLAIN)
_T0 = utc(2015, 1, 1)


def _store_ids(text=_TEXT):
    return st.lists(st.one_of(text, st.just("web1")), max_size=4, unique=True)


@st.composite
def _intervals(draw, text):
    start = _T0 + timedelta(days=draw(st.integers(0, 3000)))
    end = start + timedelta(days=draw(st.integers(1, 900)))
    paths = draw(st.lists(st.lists(text, min_size=1, max_size=3).map(tuple),
                          max_size=2))
    blocked = draw(st.lists(st.fixed_dictionaries({"kind": text}),
                            max_size=1))
    return TrustInterval(start, end, paths, blocked)


@st.composite
def _assessments(draw):
    """Assessments over a few shared store-id sets, each in a random store
    order, some of their stores holding intervals. Either every text of
    them is plain, so that their lines hold no backslash, or any text is
    drawn."""
    text = draw(st.sampled_from([_PLAIN, _TEXT]))
    id_sets = draw(st.lists(_store_ids(text), min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        ids = draw(st.permutations(draw(st.sampled_from(id_sets))))
        stores = {sid: (draw(st.lists(_intervals(text), max_size=2))
                        if draw(st.booleans()) else [])
                  for sid in ids}
        rows.append(TrustAssessment(draw(text), draw(text), stores))
    return rows


def _decoding_every_line(lines):
    """The CSV as rendered by decoding every line of the report."""
    yield "fingerprint,view,store,from,to,paths\n"
    for row in map(json.loads, lines):
        for store_id, items in row["stores"].items():
            for item in items:
                paths = ";".join(",".join(p) for p in item["paths"])
                yield (f"{row['fingerprint']},{row['view']},{store_id},"
                       f"{item['from']},{item['to']},{paths}\n")


@settings(max_examples=100, deadline=None)
@given(rows=_assessments())
def test_every_line_is_the_rows_own_encoding(rows):
    # The interval-free rows take the template; every line, with or
    # without intervals, equals the encoding of `to_json`.
    assert list(reports.assessments_jsonl(rows)) == [
        reports._ENCODER.encode(a.to_json()) for a in rows]


@settings(max_examples=100, deadline=None)
@given(store_ids=_store_ids(), fingerprint=_TEXT, view=_TEXT)
def test_an_interval_free_row_is_written_from_the_template(store_ids,
                                                          fingerprint, view):
    a = TrustAssessment(fingerprint, view, {sid: [] for sid in store_ids})
    [line] = reports.assessments_jsonl([a])
    assert line == reports._ENCODER.encode(a.to_json())
    assert json.loads(line) == {"fingerprint": fingerprint, "view": view,
                                "stores": {sid: [] for sid in store_ids}}


def _rewrites(line: str, how: int) -> str:
    """The same row written another way: as is, with every `"from"` key
    escaped, or with spaces around its separators."""
    if how == 1:
        return line.replace('"from": "', '"\\u0066rom": "')
    if how == 2:
        return json.dumps(json.loads(line), sort_keys=True,
                          separators=(" , ", " : "))
    return line


@settings(max_examples=100, deadline=None)
@given(rows=_assessments())
def test_csv_over_lines_equals_decoding_every_line(rows):
    written = list(reports.assessments_jsonl(rows))
    for how in range(3):
        lines = [_rewrites(line, how) for line in written]
        assert list(reports.assessments_csv(lines)) == list(
            _decoding_every_line(lines)), how


def test_csv_decodes_an_escaped_from_key():
    row = TrustAssessment("fp", "v", {"web1": [TrustInterval(
        _T0, _T0 + timedelta(days=1), [("fp", "root")])]})
    [line] = reports.assessments_jsonl([row])
    escaped = line.replace('"from"', '"\\u0066rom"')
    assert '"from"' not in escaped
    assert list(reports.assessments_csv([escaped])) == list(
        _decoding_every_line([escaped])) == [
        "fingerprint,view,store,from,to,paths\n",
        "fp,v,web1,2015-01-01T00:00:00Z,2015-01-02T00:00:00Z,fp,root\n"]
