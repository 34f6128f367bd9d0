import random
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from xsign.corpus import PkiBuilder, ScenarioSpec, generate
from xsign.pathengine import build_index
from xsign.timeutil import utc
from xsign.truststore import combined_anchors
from xsign.xsdetect import (classify_scope, classify_type, group_xs,
                            overlap_days)


def _two_member_corpus(overlap: int):
    """Subject/key shared, issuers A/B, validity overlap of exactly
    `overlap` days."""
    b = PkiBuilder(f"overlap-{overlap}")
    b.root("A", "CN=Issuer A, O=T", nb=utc(2000), na=utc(2040))
    b.root("B", "CN=Issuer B, O=T", nb=utc(2000), na=utc(2040))
    start = utc(2015, 1, 1)
    b.ca("m1", "CN=Shared, O=T", issuer="A", nb=start,
         na=start + timedelta(days=400))
    b.cross_sign("m2", "m1", issuer="B",
                 nb=start + timedelta(days=400 - overlap),
                 na=start + timedelta(days=900))
    return build_index(b.build("structural").values())


def test_clear_overlap_is_cross_sign():
    xs, re = group_xs(_two_member_corpus(200))
    assert len(xs) == 1 and not re


def test_boundary_120_vs_121():
    xs, re = group_xs(_two_member_corpus(120))
    assert not xs and len(re) == 1
    xs, re = group_xs(_two_member_corpus(121))
    assert len(xs) == 1 and not re


def test_sweep_flips_exactly_at_threshold():
    for overlap in range(0, 366):
        xs, re = group_xs(_two_member_corpus(overlap))
        assert bool(xs) == (overlap >= 121), overlap


def test_letsencrypt_group(letsencrypt):
    index = build_index(letsencrypt.records)
    xs, re = group_xs(index)
    assert len(xs) == 1
    group = xs[0]
    assert set(group.members) == {letsencrypt.fp("x3"), letsencrypt.fp("x3_xs")}
    assert classify_type(group, combined_anchors(letsencrypt.stores),
                         index) == "intermediate"
    assert classify_scope(group, letsencrypt.operator_map, index) == "external"


def test_same_issuer_renewal_is_not_a_group():
    b = PkiBuilder("renewal")
    b.root("A", "CN=Issuer A, O=T", nb=utc(2000), na=utc(2040))
    b.ca("m1", "CN=Renewed, O=T", issuer="A", nb=utc(2015), na=utc(2017))
    b.cert("m2", "CN=Renewed, O=T", issuer="A", key="m1",
           nb=utc(2016), na=utc(2019), is_ca=True)
    index = build_index(b.build("structural").values())
    xs, re = group_xs(index)
    assert not xs and not re


def oracle_groups(records, overlap_min):
    """O(n^2) pairwise scan; groups keyed by (subject, key digest)."""
    keys = {}
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if a.subject != b.subject or a.spki_digest != b.spki_digest:
                continue
            if a.issuer == b.issuer:
                continue
            key = (a.subject, a.spki_digest)
            start = max(a.not_before, b.not_before)
            end = min(a.not_after, b.not_after)
            days = max(0, int((end - start).total_seconds() // 86400)) \
                if start < end else 0
            entry = keys.setdefault(key, {"pairs": set(), "qualifying": set()})
            entry["pairs"].add((a.fingerprint, b.fingerprint))
            if days >= overlap_min:
                entry["qualifying"].add(
                    tuple(sorted((a.fingerprint, b.fingerprint))))
    xs_keys, re_keys = set(), set()
    for key, entry in keys.items():
        (xs_keys if entry["qualifying"] else re_keys).add(key)
    return xs_keys, re_keys, keys


def test_group_detection_matches_pairwise_oracle():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randrange(10, 200)
        bundle = generate(ScenarioSpec("random", seed=5000 + trial,
                                       mode="structural",
                                       params={"n": n, "xs_rate": 0.5,
                                               "mutual_pairs": trial % 2}))
        index = build_index(bundle.records)
        xs, re = group_xs(index)
        xs_keys, re_keys, details = oracle_groups(bundle.records, 121)
        assert {(g.subject, g.spki_digest) for g in xs} == xs_keys
        assert {(g.subject, g.spki_digest) for g in re} == re_keys
        for group in xs:
            oracle_pairs = details[(group.subject, group.spki_digest)]["qualifying"]
            got_pairs = {tuple(sorted((p.a, p.b)))
                         for p in group.qualifying_pairs}
            assert got_pairs == oracle_pairs


def test_partition_no_cert_in_two_groups():
    bundle = generate(ScenarioSpec("random", seed=41, mode="structural",
                                   params={"n": 300, "xs_rate": 0.5}))
    index = build_index(bundle.records)
    xs, re = group_xs(index)
    seen = set()
    for group in xs + re:
        for fp in group.members:
            assert fp not in seen
            seen.add(fp)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=365),
       st.integers(min_value=0, max_value=400),
       st.integers(min_value=0, max_value=400))
def test_raising_threshold_is_monotone(overlap, m1, m2):
    index = _two_member_corpus(overlap)
    lo, hi = sorted((m1, m2))
    xs_hi, _ = group_xs(index, overlap_min=hi)
    xs_lo, _ = group_xs(index, overlap_min=lo)
    if xs_hi:
        assert xs_lo


def test_overlap_days_floor():
    b = PkiBuilder("floor")
    b.root("A", "CN=A", nb=utc(2000), na=utc(2040))
    b.ca("m1", "CN=S", issuer="A", nb=utc(2015, 1, 1), na=utc(2015, 1, 3))
    records = b.build("structural")
    m1 = records["m1"]
    import dataclasses
    m2 = dataclasses.replace(
        m1, fingerprint="f" * 64,
        not_before=utc(2015, 1, 1, 12), not_after=utc(2015, 1, 4))
    assert overlap_days(m1, m2) == 1  # 36 hours -> floor 1 day


def test_taxonomy_all_four_shapes():
    bundle = generate(ScenarioSpec("leafmix", 1, "structural"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    anchors = combined_anchors(bundle.stores)
    types = {classify_type(g, anchors, index) for g in xs}
    assert types == {"root", "intermediate", "leaf", "leaf_mix"}
    by_type = {classify_type(g, anchors, index): g for g in xs}
    mix = by_type["leaf_mix"]
    assert {index.get(fp).is_ca for fp in mix.members} == {True, False}


def test_classify_type_assigns_exactly_one(figure1):
    index = build_index(figure1.records)
    xs, _ = group_xs(index)
    for group in xs:
        t = classify_type(group, combined_anchors(figure1.stores), index)
        assert t in ("root", "intermediate", "leaf", "leaf_mix")


def test_scope_internal_external_unknown(certinomis):
    index = build_index(certinomis.records)
    xs, _ = group_xs(index)
    group = xs[0]
    assert classify_scope(group, certinomis.operator_map, index) == "external"
    assert classify_scope(group, None, index) == "unknown"


def test_scope_internal(letsencrypt):
    # GlobalSign-style: one operator on both sides of every member.
    bundle = generate(ScenarioSpec("globalsign", 1, "structural"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    for group in xs:
        assert classify_scope(group, bundle.operator_map, index) == "internal"


def test_scope_unknown_with_partial_map(letsencrypt):
    from xsign.truststore import OperatorMap, OperatorSpan
    from xsign.names import normalize_name
    partial = OperatorMap([OperatorSpan("identrust", subjects=(
        normalize_name("CN=DST Root CA X3, O=Digital Signature Trust Co."),))])
    index = build_index(letsencrypt.records)
    xs, _ = group_xs(index)
    assert classify_scope(xs[0], partial, index) == "unknown"


def test_equal_issuer_names_distinct_keys_cryptographic():
    # Two different CAs can share a subject string; only cryptographic mode
    # can tell the resulting members apart as a genuine cross-sign.
    b = PkiBuilder("samename")
    nb, na = utc(2014, 1, 1), utc(2026, 1, 1)
    b.root("root_a", "CN=Ambiguous CA, O=D", nb=nb, na=na)
    b.root("root_b", "CN=Ambiguous CA, O=D", nb=nb, na=na)
    b.ca("m1", "CN=Member, O=D", issuer="root_a", nb=nb, na=na)
    b.cert("m2", "CN=Member, O=D", issuer="root_b", key="m1", nb=nb, na=na,
           is_ca=True)
    crypto_records = b.build("cryptographic")
    index = build_index(crypto_records.values())
    xs, re = group_xs(index, mode="cryptographic")
    assert len(xs) == 1
    assert set(xs[0].members) == {crypto_records["m1"].fingerprint,
                                  crypto_records["m2"].fingerprint}
    # Structurally the issuers are indistinguishable.
    xs, re = group_xs(index, mode="structural")
    assert not xs and not re
