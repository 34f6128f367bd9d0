import random
from datetime import timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xsign.pathengine import build_index
from xsign.timeutil import utc
from xsign.truststore import (AmbiguousOperator, DistrustRule, OperatorMap,
                              OperatorSpan, OwnershipEvent, RootStoreTimeline,
                              StoreSnapshot, rule_blocks_path)
from xsign.names import normalize_name


def _store(snaps):
    return RootStoreTimeline("t", "web", [
        StoreSnapshot(date, frozenset(roots)) for date, roots in snaps])


def test_empty_before_first_snapshot():
    store = _store([(utc(2015), ["a"])])
    assert store.active_roots(utc(2014, 12, 31)) == frozenset()
    assert store.active_roots(utc(2015)) == {"a"}


def test_certinomis_store_membership(certinomis):
    moz = next(s for s in certinomis.stores if s.store_id == "mozilla")
    certinomis_root = certinomis.fp("certinomis_root")
    assert certinomis_root in moz.active_roots(utc(2017, 5, 1))
    assert certinomis_root not in moz.active_roots(utc(2019, 12, 1))


def test_active_roots_matches_linear_scan_oracle():
    rng = random.Random(11)
    snaps = []
    date = utc(2010)
    for i in range(20):
        date += timedelta(days=rng.randrange(1, 400))
        snaps.append((date, [f"r{rng.randrange(8)}" for _ in range(rng.randrange(0, 5))]))
    store = _store(snaps)
    lo, hi = utc(2009), date + timedelta(days=500)
    span = int((hi - lo).total_seconds())
    for _ in range(1000):
        at = lo + timedelta(seconds=rng.randrange(span))
        expected = frozenset()
        for d, roots in snaps:  # linear scan
            if d <= at:
                expected = frozenset(roots)
        assert store.active_roots(at) == expected


def test_monotone_between_snapshots():
    store = _store([(utc(2015), ["a"]), (utc(2016), ["b"])])
    assert store.active_roots(utc(2015, 3)) == store.active_roots(utc(2015, 11))


def test_presence_intervals():
    store = _store([(utc(2015), ["a"]), (utc(2016), []), (utc(2017), ["a"])])
    ivs = store.presence_intervals("a")
    assert ivs[0] == (utc(2015), utc(2016))
    assert ivs[1][0] == utc(2017)


def _wosign_rule_setup(certinomis):
    moz = next(s for s in certinomis.stores if s.store_id == "mozilla")
    rule = moz.distrust_rules[0]
    index = build_index(certinomis.records)
    return rule, index, certinomis


def test_rule_blocks_banned_leaf(certinomis):
    rule, index, b = _wosign_rule_setup(certinomis)
    path = [b.record("leaf_banned"), b.record("ica"), b.record("startcom_g3")]
    assert rule_blocks_path(rule, path, utc(2017, 1, 1))
    assert not rule_blocks_path(rule, path, utc(2016, 10, 20))


def test_rule_ignores_other_anchor(certinomis):
    rule, index, b = _wosign_rule_setup(certinomis)
    path = [b.record("leaf_banned"), b.record("ica_xs"), b.record("certinomis_root")]
    assert not rule_blocks_path(rule, path, utc(2017, 6, 1))


def test_rule_cutoff_is_strict(certinomis):
    rule, _, b = _wosign_rule_setup(certinomis)
    import dataclasses
    on_cutoff = dataclasses.replace(b.record("leaf_banned"),
                                    not_before=utc(2016, 10, 21))
    path = [on_cutoff, b.record("ica"), b.record("startcom_g3")]
    assert not rule_blocks_path(rule, path, utc(2017, 6, 1))


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=0, max_value=2000))
def test_rule_blocking_is_monotone_in_time(d1, d2):
    rule = DistrustRule(issued_after=utc(2016, 10, 21),
                        effective_from=utc(2016, 10, 21),
                        anchor_subjects=(normalize_name("CN=Anchor"),))
    from xsign.certmodel import CertRecord
    anchor = CertRecord("f" * 64, normalize_name("CN=Anchor"),
                        normalize_name("CN=Anchor"), "a" * 64, "1",
                        utc(2000), utc(2040), True, self_signed=True)
    leaf = CertRecord("e" * 64, normalize_name("CN=l"),
                      normalize_name("CN=Anchor"), "b" * 64, "2",
                      utc(2017, 1, 1), utc(2019), False)
    t1 = utc(2016) + timedelta(days=min(d1, d2))
    t2 = utc(2016) + timedelta(days=max(d1, d2))
    if rule_blocks_path(rule, [leaf, anchor], t1):
        assert rule_blocks_path(rule, [leaf, anchor], t2)


def test_operator_event_reassignment(certinomis):
    opmap = certinomis.operator_map
    startcom = normalize_name("CN=StartCom Certification Authority, O=StartCom Ltd.")
    assert opmap.operator_for_name(startcom, utc(2016, 1, 1)) == "wosign"
    assert opmap.operator_for_name(startcom, utc(2014, 1, 1)) == "startcom"


def test_operator_unmatched_subject(certinomis):
    opmap = certinomis.operator_map
    assert opmap.operator_for_name(normalize_name("CN=Nobody"), utc(2016)) is None


def test_overlapping_spans_rejected_at_load():
    name = normalize_name("CN=Shared")
    with pytest.raises(AmbiguousOperator):
        OperatorMap([
            OperatorSpan("a", subjects=(name,), valid_from=utc(2010),
                         valid_to=utc(2016)),
            OperatorSpan("b", subjects=(name,), valid_from=utc(2015)),
        ])


def test_disjoint_spans_allowed_and_queried():
    name = normalize_name("CN=Handover")
    opmap = OperatorMap([
        OperatorSpan("a", subjects=(name,), valid_to=utc(2015)),
        OperatorSpan("b", subjects=(name,), valid_from=utc(2015)),
    ])
    assert opmap.operator_for_name(name, utc(2014)) == "a"
    assert opmap.operator_for_name(name, utc(2015)) == "b"


def test_operator_matches_brute_force_interval_scan():
    rng = random.Random(23)
    spans = []
    for i in range(50):
        start = utc(2000) + timedelta(days=rng.randrange(0, 8000))
        end = start + timedelta(days=rng.randrange(30, 2000))
        spans.append(OperatorSpan(f"op{i}",
                                  subjects=(normalize_name(f"CN=Subject {i}"),),
                                  valid_from=start, valid_to=end))
    opmap = OperatorMap(spans)
    for _ in range(1000):
        i = rng.randrange(50)
        name = normalize_name(f"CN=Subject {i}")
        at = utc(2000) + timedelta(days=rng.randrange(0, 11000))
        expected = None
        for span in spans:  # brute force
            if any(name == s for s in span.subjects) and \
                    span.valid_from <= at < span.valid_to:
                expected = span.operator_id
        assert opmap.operator_for_name(name, at) == expected


def test_operator_fingerprint_matcher(figure1):
    root = figure1.record("R1")
    opmap = OperatorMap([OperatorSpan("ca-one",
                                      fingerprints=frozenset([root.fingerprint]))])
    assert opmap.operator_of(root, utc(2016)) == "ca-one"
    assert opmap.operator_of(figure1.record("R2"), utc(2016)) is None


def test_rule_anchor_subject_matcher(certinomis):
    rule = DistrustRule(
        issued_after=utc(2016, 10, 21), effective_from=utc(2016, 10, 21),
        anchor_subjects=(normalize_name(
            "CN=StartCom Certification Authority G3, O=StartCom Ltd."),))
    path = [certinomis.record("leaf_banned"), certinomis.record("ica"),
            certinomis.record("startcom_g3")]
    assert rule_blocks_path(rule, path, utc(2017, 6, 1))


def test_store_class_is_validated():
    with pytest.raises(ValueError):
        RootStoreTimeline("s", "browser", [])
    for cls in ("web", "government", "grid", "other"):
        RootStoreTimeline("s", cls, [])
