import random
from datetime import timedelta

from xsign.corpus import ScenarioSpec, generate
from xsign.pathengine import build_index
from xsign.revocation import (Fingerprint, IssuerSerial, RevocationRecord,
                              RevocationSource, RevocationView, SpkiDigest,
                              matching_records, revocation_onset)
from xsign.timeutil import utc


def _revoked_at(cert, view, records, at):
    """Revoked iff an accepted record matches with effective_date <= at."""
    onset = revocation_onset(cert, view, records)
    return onset is not None and onset <= at


def test_empty_record_set():
    from xsign.certmodel import record_from_json
    cert = record_from_json({
        "fingerprint": "ab" * 32, "subject": "CN=x", "issuer": "CN=y",
        "spki": "cd" * 32, "serial": "1",
        "not_before": "2015-01-01T00:00:00Z", "not_after": "2020-01-01T00:00:00Z",
        "is_ca": False})
    view = RevocationView("v", frozenset(["onecrl"]))
    assert matching_records(cert, view, []) == []
    assert revocation_onset(cert, view, []) is None


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
    onset = revocation_onset(g2, view, b.revocations)
    assert onset == utc(2016, 11, 1)
    assert not _revoked_at(g2, view, b.revocations, onset - timedelta(seconds=1))
    for days in (0, 1, 100, 5000):
        assert _revoked_at(g2, view, b.revocations, onset + timedelta(days=days))


def test_spki_selector_covers_shared_key_members():
    bundle = generate(ScenarioSpec("random", seed=5, mode="structural",
                                   params={"n": 200, "xs_rate": 0.3}))
    index = build_index(bundle.records)
    rng = random.Random(5)
    shared = [spki for spki, fps in index.by_spki.items() if len(fps) >= 2]
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
    assert matching_records(g2_xs, nothing, b.revocations) == []
    everything = RevocationView("omni", frozenset(
        r.source.name for r in b.revocations))
    assert _revoked_at(g2_xs, everything, b.revocations, utc(2030))
