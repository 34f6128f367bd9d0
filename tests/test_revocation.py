import random
from collections import Counter
from datetime import timedelta

from hypothesis import given
from hypothesis import strategies as st

from xsign.certmodel import record_from_json
from xsign.corpus import ScenarioSpec, generate
from xsign.names import normalize_name
from xsign.pathengine import build_index
from xsign.revocation import (Fingerprint, IssuerSerial, RevocationIndex,
                              RevocationRecord, RevocationSource,
                              RevocationView, SpkiDigest, matching_records,
                              revocation_onset)
from xsign.timeutil import utc


def _revoked_at(cert, view, records, at):
    """Revoked iff an accepted record matches with effective_date <= at."""
    onset = revocation_onset(cert, view, RevocationIndex(records))
    return onset is not None and onset <= at


def test_empty_record_set():
    from xsign.certmodel import record_from_json
    cert = record_from_json({
        "fingerprint": "ab" * 32, "subject": "CN=x", "issuer": "CN=y",
        "spki": "cd" * 32, "serial": "1",
        "not_before": "2015-01-01T00:00:00Z", "not_after": "2020-01-01T00:00:00Z",
        "is_ca": False})
    view = RevocationView("v", frozenset(["onecrl"]))
    assert matching_records(cert, view, RevocationIndex([])) == []
    assert revocation_onset(cert, view, RevocationIndex([])) is None


def test_actalis_per_view_divergence(actalis):
    b = actalis
    onecrl_view = next(v for v in b.views if v.consumer_id == "mozilla")
    crlset_view = next(v for v in b.views if v.consumer_id == "google")
    g2_xs = b.record("g2_xs")
    at = utc(2017, 1, 1)
    assert _revoked_at(g2_xs, onecrl_view, b.revocations, at)
    assert not _revoked_at(g2_xs, crlset_view, b.revocations, at)
    g2 = b.record("g2")
    assert _revoked_at(g2, onecrl_view, b.revocations, at)
    assert _revoked_at(g2, crlset_view, b.revocations, at)


def test_revocation_is_monotone(actalis):
    b = actalis
    view = next(v for v in b.views if v.consumer_id == "mozilla")
    g2 = b.record("g2")
    onset = revocation_onset(g2, view, RevocationIndex(b.revocations))
    assert onset == utc(2016, 11, 1)
    assert not _revoked_at(g2, view, b.revocations, onset - timedelta(seconds=1))
    for days in (0, 1, 100, 5000):
        assert _revoked_at(g2, view, b.revocations, onset + timedelta(days=days))


def test_spki_selector_covers_shared_key_members():
    bundle = generate(ScenarioSpec("random", seed=5, mode="structural",
                                   params={"n": 200, "xs_rate": 0.3}))
    index = build_index(bundle.records)
    rng = random.Random(5)
    keys = Counter(r.spki_digest for r in bundle.records)
    shared = [spki for spki, count in keys.items() if count >= 2]
    assert shared, "corpus must contain cross-signed keys"
    view = RevocationView("v", frozenset(["list"]))
    for spki in shared[:10]:
        record = RevocationRecord(RevocationSource("vendor", "list"),
                                  SpkiDigest(spki), utc(2012, 6, 1))
        # Oracle: per-certificate scan over the whole corpus.
        expected = {r.fingerprint for r in bundle.records if r.spki_digest == spki}
        got = {r.fingerprint for r in bundle.records
               if _revoked_at(r, view, [record], utc(2030))}
        assert got == expected
        # Members issued after the record's effective date are still caught.
        for fp in expected:
            cert = index.get(fp)
            if cert.not_before > record.effective_date:
                assert _revoked_at(cert, view, [record], cert.not_before)


def test_spki_matches_superset_of_fingerprint_selector(figure1):
    i5 = figure1.record("I5")
    i5x = figure1.record("I5x")
    spki_rec = RevocationRecord(RevocationSource("vendor", "l"),
                                SpkiDigest(i5.spki_digest), utc(2016))
    fp_rec = RevocationRecord(RevocationSource("vendor", "l"),
                              Fingerprint(i5.fingerprint), utc(2016))
    for cert in figure1.records:
        if fp_rec.matches(cert):
            assert spki_rec.matches(cert)
    assert spki_rec.matches(i5x) and not fp_rec.matches(i5x)


def test_issuer_serial_selector_is_exact(figure1):
    i5 = figure1.record("I5")
    rec = RevocationRecord(RevocationSource("ca_crl", "crl"),
                           IssuerSerial(i5.issuer, i5.serial), utc(2016))
    assert rec.matches(i5)
    assert not rec.matches(figure1.record("I5x"))  # same subject, other issuer


def test_sources_gate_acceptance(actalis):
    b = actalis
    g2_xs = b.record("g2_xs")
    nothing = RevocationView("isolated", frozenset())
    assert not _revoked_at(g2_xs, nothing, b.revocations, utc(2030))
    assert matching_records(g2_xs, nothing,
                            RevocationIndex(b.revocations)) == []
    everything = RevocationView("omni", frozenset(
        r.source.name for r in b.revocations))
    assert _revoked_at(g2_xs, everything, b.revocations, utc(2030))


# Small pools, so that certificates and selectors share issuers, serials and
# SPKIs, and records tie on effective date and source.
_ISSUERS = ("CN=A", "cn=a", "CN=B", "CN=B,O=x")
_HEX = ("aa", "bb")
_SERIALS = ("1", "2", "0a")
_SOURCES = (("ca_crl", "crl-a"), ("ca_crl", "crl-b"), ("vendor", "onecrl"),
            ("vendor", "crlset"))

_certs = st.builds(lambda fp, issuer, spki, serial: record_from_json({
    "fingerprint": fp * 32, "subject": "CN=s", "issuer": issuer,
    "spki": spki * 32, "serial": serial, "not_before": "2015-01-01T00:00:00Z",
    "not_after": "2020-01-01T00:00:00Z", "is_ca": True}),
    st.sampled_from(_HEX), st.sampled_from(_ISSUERS), st.sampled_from(_HEX),
    st.sampled_from(_SERIALS))
_selectors = st.one_of(
    st.builds(lambda issuer, serial: IssuerSerial(normalize_name(issuer),
                                                  serial),
              st.sampled_from(_ISSUERS), st.sampled_from(_SERIALS)),
    st.builds(lambda h: SpkiDigest(h * 32), st.sampled_from(_HEX)),
    st.builds(lambda h: Fingerprint(h * 32), st.sampled_from(_HEX)))
_records = st.builds(
    lambda source, selector, year: RevocationRecord(
        RevocationSource(*source), selector, utc(year)),
    st.sampled_from(_SOURCES), _selectors, st.integers(2015, 2016))
_views = st.builds(lambda names: RevocationView("v", frozenset(names)),
                   st.sets(st.sampled_from([name for _, name in _SOURCES])))


@given(st.lists(_certs, min_size=1, max_size=4),
       st.lists(_records, max_size=12), st.lists(_views, min_size=1,
                                                 max_size=3))
def test_index_lookup_equals_linear_scan(certs, records, views):
    index = RevocationIndex(records)
    assert list(index) == records and len(index) == len(records)
    for cert in certs:
        for view in views:
            scan = [r for r in records if view.accepts(r) and r.matches(cert)]
            scan.sort(key=lambda r: (r.effective_date, r.source.name))
            assert matching_records(cert, view, index) == scan
            assert revocation_onset(cert, view, index) == (
                scan[0].effective_date if scan else None)
