import itertools
import random
import time
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from xsign import intervals
from xsign.certmodel import record_from_json
from xsign.constants import DEFAULT_MAX_DEPTH
from xsign.corpus import SCENARIOS, ScenarioSpec, generate
from xsign.pathengine import (PathEnumeration, assess_paths, assess_trust,
                              build_index, enumerate_paths, merge, path_trust,
                              select_stores)
from xsign.revocation import RevocationIndex, RevocationView, all_sources_view
from xsign.timeutil import DT_MAX, utc
from xsign.truststore import (RootStoreTimeline, UnknownStore, combined_anchors,
                              rule_blocks_path)


def fingerprints(chain):
    return tuple(c.fingerprint for c in chain)


def test_empty_index():
    index = build_index([])
    assert len(index) == 0


def test_figure1_subject_map_groups_cross_sign(figure1):
    index = build_index(figure1.records)
    i5 = figure1.record("I5")
    same_subject = index.subjects(i5.subject)
    assert {r.fingerprint for r in same_subject} == {
        figure1.fp("I5"), figure1.fp("I5x")}


def test_issuers_of_sees_an_issuer_added_after_a_lookup(figure1):
    leaf = figure1.record("I5")
    issuers = [r for r in figure1.records if r.subject == leaf.issuer]
    assert issuers
    index = build_index(r for r in figure1.records if r not in issuers)
    assert index.issuers_of(leaf) == []
    for issuer in issuers:
        index.add(issuer)
    assert index.issuers_of(leaf) == sorted(issuers,
                                            key=lambda r: r.fingerprint)


def test_duplicates_are_idempotent(figure1):
    index = build_index(list(figure1.records) + list(figure1.records))
    assert len(index) == len(figure1.records)


def test_large_corpus_membership():
    bundle = generate(ScenarioSpec("random", seed=3, mode="structural",
                                   params={"n": 10000}))
    assert len(bundle.records) == 10000
    index = build_index(bundle.records)
    for record in bundle.records:
        assert index.get(record.fingerprint) is record
        assert record in index.subjects(record.subject)
        assert all(p.subject == record.issuer for p in index.issuers_of(record))


def test_figure1_leaf_has_exactly_two_paths(figure1):
    index = build_index(figure1.records)
    anchors = combined_anchors(figure1.stores)
    result = enumerate_paths(figure1.record("L6"), index, anchors=anchors)
    chains = [p.chain for p in result.paths]
    assert chains == sorted(chains, key=lambda c: (len(c), c))
    assert len(chains) == 2
    assert (figure1.fp("L6"), figure1.fp("I5"), figure1.fp("R3")) in chains
    assert (figure1.fp("L6"), figure1.fp("I5x"), figure1.fp("I4"),
            figure1.fp("R2")) in chains


def test_self_signed_root_single_path(figure1):
    index = build_index(figure1.records)
    result = enumerate_paths(figure1.record("R1"), index)
    assert [p.chain for p in result.paths] == [(figure1.fp("R1"),)]


def test_random_dags_match_dfs_oracle():
    rng = random.Random(1234)
    for trial in range(40):
        bundle = generate(ScenarioSpec(
            "random", seed=1000 + trial, mode="structural",
            params={"n": rng.randrange(8, 50), "xs_rate": 0.4,
                    "mutual_pairs": trial % 3}))
        records = bundle.records
        index = build_index(records)
        anchors = combined_anchors(bundle.stores)
        for record in records:
            result = enumerate_paths(record, index, max_depth=64,
                                     anchors=anchors)
            chains, _ = oracles.chains(record, records, anchors)
            assert {p.chain for p in result.paths} == {
                fingerprints(c) for c in chains if oracles.usable(c)}, \
                record.fingerprint
            assert result.roots == {c[-1].fingerprint for c in chains}, \
                record.fingerprint


def test_mutual_cross_sign_terminates(mutual_crypto):
    index = build_index(mutual_crypto.records)
    anchors = combined_anchors(mutual_crypto.stores)
    result = enumerate_paths(mutual_crypto.record("L"), index, anchors=anchors)
    # L -> R1 plus L -> R1x -> R2; the key repetition rule prunes anything
    # deeper.
    assert len(result.paths) == 2
    assert not result.truncated


def test_depth_bound_reports_truncation(figure1):
    index = build_index(figure1.records)
    anchors = combined_anchors(figure1.stores)
    result = enumerate_paths(figure1.record("L6"), index, max_depth=2,
                             anchors=anchors)
    assert result.truncated
    assert len(result.paths) == 0


def test_adding_certificates_never_removes_paths():
    bundle = generate(ScenarioSpec("random", seed=77, mode="structural",
                                   params={"n": 30, "xs_rate": 0.4}))
    records = list(bundle.records)
    anchors = combined_anchors(bundle.stores)
    half_index = build_index(records[: len(records) // 2])
    full_index = build_index(records)
    for record in records[: len(records) // 2]:
        before = {p.chain for p in enumerate_paths(
            record, half_index, anchors=anchors).paths}
        after = {p.chain for p in enumerate_paths(
            record, full_index, anchors=anchors).paths}
        assert before <= after


def test_cryptographic_paths_subset_of_structural(figure1_crypto):
    index = build_index(figure1_crypto.records)
    anchors = combined_anchors(figure1_crypto.stores)
    for record in figure1_crypto.records:
        structural = {p.chain for p in enumerate_paths(
            record, index, mode="structural", anchors=anchors).paths}
        crypto = {p.chain for p in enumerate_paths(
            record, index, mode="cryptographic", anchors=anchors).paths}
        assert crypto <= structural
        assert crypto == structural  # fixture edges all genuinely verify


def test_validity_window_is_member_intersection(figure1):
    index = build_index(figure1.records)
    anchors = combined_anchors(figure1.stores)
    for path in enumerate_paths(figure1.record("L6"), index,
                                anchors=anchors).paths:
        records = [index.get(fp) for fp in path.chain]
        assert path.validity == (max(r.not_before for r in records),
                                 min(r.not_after for r in records))


def test_non_ca_issuer_flagged():
    from xsign.corpus import PkiBuilder
    b = PkiBuilder("nonca-test")
    nb, na = utc(2015), utc(2030)
    b.root("root_a", "CN=Root A, O=T", nb=nb, na=na)
    b.root("root_b", "CN=Root B, O=T", nb=nb, na=na)
    b.ca("shared_ca", "CN=Shared Identity, O=T", issuer="root_a", nb=nb, na=na)
    b.cert("shared_leaf", "CN=Shared Identity, O=T", issuer="root_b",
           key="shared_ca", nb=nb, na=na, is_ca=False)
    b.leaf("child", "CN=below.example, O=T", issuer="shared_ca", nb=nb, na=na)
    records = b.build("structural")
    index = build_index(records.values())
    result = enumerate_paths(records["child"], index)
    fp = {label: record.fingerprint for label, record in records.items()}
    # The chain through the non-CA certificate reaches root B, but is no path.
    assert [p.chain for p in result.paths] == [
        (fp["child"], fp["shared_ca"], fp["root_a"])]
    assert result.roots == {fp["root_a"], fp["root_b"]}


def test_pathlen_constraint_enforced():
    from xsign.corpus import PkiBuilder
    b = PkiBuilder("pathlen-test")
    nb, na = utc(2015), utc(2030)
    b.root("root", "CN=Limited Root, O=T", nb=nb, na=na)
    b.specs["root"].path_len = 0
    b.ca("mid", "CN=Middle, O=T", issuer="root", nb=nb, na=na)
    b.leaf("leaf", "CN=deep.example, O=T", issuer="mid", nb=nb, na=na)
    records = list(b.build("structural").values())
    index = build_index(records)
    by_label = {r.subject.attr_values("cn")[0]: r for r in records}
    root = by_label["limited root"].fingerprint
    deep = enumerate_paths(by_label["deep.example"], index)
    assert deep.paths == []
    assert deep.roots == {root}
    shallow = enumerate_paths(by_label["middle"], index)
    assert [p.chain for p in shallow.paths] == [
        (by_label["middle"].fingerprint, root)]


def test_name_constraint_dual_reporting(swiss):
    index = build_index(swiss.records)
    anchors = combined_anchors(swiss.stores)

    def enumerate_xs(label, mode):
        result = enumerate_paths(swiss.record(label), index, mode=mode,
                                 anchors=anchors)
        return result, [p.chain for p in result.paths
                        if swiss.fp("sg02_xs") in p.chain]

    # Non-critical: the off-list leaf keeps its path through the
    # constrained cross-sign by default, and loses it in strict mode.
    _, off_default = enumerate_xs("leaf_offlist", "structural")
    assert off_default
    off_strict, off_strict_xs = enumerate_xs("leaf_offlist", "strict")
    assert not off_strict_xs
    assert {chain[-1] for chain in off_default} <= off_strict.roots

    for mode in ("structural", "strict"):
        _, on_xs = enumerate_xs("leaf_listed", mode)
        assert on_xs, mode


def test_critical_name_constraint_invalidates_in_default_mode():
    from xsign.certmodel import NameConstraints, Subtree
    from xsign.corpus import PkiBuilder
    b = PkiBuilder("nc-critical")
    nb, na = utc(2015), utc(2030)
    b.root("root", "CN=Root, O=T", nb=nb, na=na)
    b.ca("ca", "CN=Scoped CA, O=T", issuer="root", nb=nb, na=na,
         name_constraints=NameConstraints(
             permitted=(Subtree("dns", "inside.example"),), excluded=(),
             critical=True))
    b.leaf("leaf", "CN=www.outside.example, O=T", issuer="ca", nb=nb, na=na)
    records = b.build("structural")
    index = build_index(records.values())
    result = enumerate_paths(records["leaf"], index)
    assert result.paths == []
    assert result.roots == {records["root"].fingerprint}


@pytest.mark.parametrize("subtrees", ["permitted", "excluded"])
def test_critical_directory_name_constraint(subtrees):
    # A permitted subtree that the leaf's subject does not start with, or an
    # excluded one that it does, removes the leaf's path. The subjects are
    # written in the order NormalizedName.startswith compares their RDNs.
    from xsign.certmodel import NameConstraints, Subtree
    from xsign.corpus import PkiBuilder
    from xsign.names import normalize_name
    subtree = {"permitted": "O=Inside", "excluded": "O=Outside"}[subtrees]
    scope = {"permitted": (), "excluded": (),
             subtrees: (Subtree("dirname", normalize_name(subtree)),)}
    b = PkiBuilder(f"nc-dirname-{subtrees}")
    nb, na = utc(2015), utc(2030)
    b.root("root", "O=T, CN=Root", nb=nb, na=na)
    b.ca("ca", "O=T, CN=Scoped CA", issuer="root", nb=nb, na=na,
         name_constraints=NameConstraints(critical=True, **scope))
    b.leaf("inside", "O=Inside, CN=in.example", issuer="ca", nb=nb, na=na)
    b.leaf("outside", "O=Outside, CN=out.example", issuer="ca", nb=nb, na=na)
    records = b.build("structural")
    index = build_index(records.values())
    chain = tuple(records[label].fingerprint for label in ("inside", "ca", "root"))
    assert [p.chain for p in enumerate_paths(records["inside"], index).paths] \
        == [chain]
    assert enumerate_paths(records["outside"], index).paths == []


def test_unknown_store_rejected(figure1):
    with pytest.raises(UnknownStore):
        select_stores(figure1.stores, ["nonexistent"])


def test_assessment_within_cert_validity(certinomis):
    index = build_index(certinomis.records)
    view = RevocationView("all", frozenset(
        r.source.name for r in certinomis.revocations))
    for record in certinomis.records:
        a = assess_trust(record, index, certinomis.stores,
                         certinomis.revocations, view)
        for intervals_ in a.stores.values():
            for ti in intervals_:
                assert record.not_before <= ti.start
                assert ti.end <= record.not_after


def test_assess_no_path_empty(figure1):
    from xsign.certmodel import record_from_json
    orphan = record_from_json({
        "fingerprint": "9" * 64, "subject": "CN=orphan", "issuer": "CN=missing",
        "spki": "8" * 64, "serial": "1", "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z", "is_ca": False})
    index = build_index(list(figure1.records) + [orphan])
    a = assess_trust(orphan, index, figure1.stores, [], RevocationView("v", frozenset()))
    assert all(not items for items in a.stores.values())


def test_assess_without_paths_answers_every_store_at_once(certinomis,
                                                         monkeypatch):
    # A certificate without paths gets an empty answer for every store in
    # the order given, and the per-store loop, which looks up each path
    # root's presence and merges the intervals, does not run.
    orphan = record_from_json({
        "fingerprint": "9" * 64, "subject": "CN=orphan", "issuer": "CN=missing",
        "spki": "8" * 64, "serial": "1", "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z", "is_ca": False})
    index = build_index(list(certinomis.records) + [orphan])
    stores = certinomis.stores    # mozilla, google: not sorted by id
    enumeration = enumerate_paths(orphan, index,
                                  anchors=combined_anchors(stores))
    assert enumeration.paths == [] and len(stores) > 1

    def per_store_loop(*args):
        raise AssertionError("the per-store loop ran")

    monkeypatch.setattr(RootStoreTimeline, "presence_intervals",
                        per_store_loop)
    monkeypatch.setattr(intervals, "normalize", per_store_loop)
    a = assess_paths(orphan, enumeration, stores, RevocationIndex([]),
                     RevocationView("v", frozenset()))
    assert (a.fingerprint, a.view_id) == (orphan.fingerprint, "v")
    assert list(a.stores.items()) == [(s.store_id, []) for s in stores]


def test_determinism_of_assessments(certinomis):
    index = build_index(certinomis.records)
    view = next(v for v in certinomis.views if v.consumer_id == "mozilla")
    leaf = certinomis.record("leaf_banned")
    a1 = assess_trust(leaf, index, certinomis.stores, certinomis.revocations, view)
    a2 = assess_trust(leaf, index, certinomis.stores, certinomis.revocations, view)
    assert a1.to_json() == a2.to_json()


def test_ten_thousand_certificates_enumerate_quickly():
    bundle = generate(ScenarioSpec("random", seed=9, mode="structural",
                                   params={"n": 10000, "xs_rate": 0.1}))
    index = build_index(bundle.records)
    anchors = combined_anchors(bundle.stores)
    start = time.monotonic()
    total = 0
    for record in bundle.records:
        total += len(enumerate_paths(record, index, anchors=anchors).paths)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"enumeration took {elapsed:.1f}s"
    assert total > 0


def test_enumerate_requires_cert_in_index(figure1):
    index = build_index(figure1.records)
    from xsign.certmodel import record_from_json
    stranger = record_from_json({
        "fingerprint": "1" * 64, "subject": "CN=a", "issuer": "CN=b",
        "spki": "2" * 64, "serial": "1",
        "not_before": "2015-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z", "is_ca": False})
    with pytest.raises(KeyError):
        enumerate_paths(stranger, index)


def test_unsupported_subtree_forms_reported_not_evaluated():
    from xsign.certmodel import NameConstraints, Subtree
    from xsign.corpus import PkiBuilder
    b = PkiBuilder("nc-ip")
    nb, na = utc(2015), utc(2030)
    b.root("root", "CN=Root, O=T", nb=nb, na=na)
    b.ca("ca", "CN=Net CA, O=T", issuer="root", nb=nb, na=na,
         name_constraints=NameConstraints(
             permitted=(Subtree("ip", "10.0.0.0/8"),), excluded=(),
             critical=False))
    b.leaf("leaf", "CN=www.anywhere.example, O=T", issuer="ca", nb=nb, na=na)
    records = b.build("structural")
    index = build_index(records.values())
    chain = tuple(records[label].fingerprint for label in ("leaf", "ca", "root"))
    for mode in ("structural", "strict"):
        result = enumerate_paths(records["leaf"], index, mode=mode)
        assert [p.chain for p in result.paths] == [chain], mode


def test_certinomis_spring_leaf_window(certinomis):
    # A leaf issued after the cross-sign opens at its own not_before.
    index = build_index(certinomis.records)
    view = next(v for v in certinomis.views if v.consumer_id == "mozilla")
    leaf = certinomis.record("leaf_spring")
    a = assess_trust(leaf, index, certinomis.stores, certinomis.revocations,
                     view)
    assert a.intervals_for("mozilla") == [(utc(2017, 5, 1), utc(2017, 9, 26))]
    onecrl_causes = [c for ti in a.stores["mozilla"] for c in ti.blocked_by
                     if c.get("source") == "onecrl"]
    assert onecrl_causes and onecrl_causes[0]["kind"] == "revocation"


def test_fewer_sources_never_shrink_trust():
    # Dropping revocation sources from a view can only widen trusted
    # intervals, never shrink them.
    from xsign import intervals as iv
    bundle = generate(ScenarioSpec("random", seed=555, mode="structural",
                                   params={"n": 40, "xs_rate": 0.5,
                                           "revocation_rate": 0.4}))
    index = build_index(bundle.records)
    sources = sorted({r.source.name for r in bundle.revocations})
    full = RevocationView("full", frozenset(sources))
    partial = RevocationView("partial", frozenset(sources[:1]))
    empty = RevocationView("empty", frozenset())
    for record in bundle.records:
        per_view = {}
        for view in (full, partial, empty):
            a = assess_trust(record, index, bundle.stores, bundle.revocations,
                             view)
            per_view[view.consumer_id] = {
                sid: a.intervals_for(sid) for sid in a.stores}
        for sid in per_view["full"]:
            narrow = per_view["full"][sid]
            for wider in (per_view["partial"][sid], per_view["empty"][sid]):
                assert iv.subtract(narrow, wider) == []


# Hostname-shaped subjects, so that DNS name constraints apply to them.
_DAG_NAMES = ("CN=a.example", "CN=b.a.example", "CN=c.example", "CN=Root")
_DAG_CONSTRAINTS = (
    None,
    {"permitted": [{"kind": "dns", "value": "a.example"}], "excluded": []},
    {"permitted": [], "excluded": [{"kind": "dns", "value": "a.example"}]},
)
# A DAG record's fields besides its names, each with its values; a
# repeated value is a weight.
_DAG_RECORD_FIELDS = {
    "key": range(4), "start": range(2010, 2017), "length": range(1, 5),
    "is_ca": (True, True, False), "path_len": (None, 0, 1),
    "nc": _DAG_CONSTRAINTS, "critical": (False, True),
    "self_signed": (False, True), "unknown_critical": (False, False, True),
    "anchor": (False, True),
}


@st.composite
def _dags(draw):
    """Up to 7 metadata records over 4 names and 4 keys, the fingerprints
    anchored among them, a depth bound and a mode: shared names make
    cross-signs and mutual pairs, a record naming itself as issuer is a
    self-loop, and windows over a few years are sometimes disjoint.

    A record is three draws: its subject, its issuer, and 4 uniform bytes
    for its other fields. One draw per field made the generator cost more
    than the test. The names stay separate draws because hypothesis often
    repeats a drawn value, which links records into chains, loops and
    mutual pairs. The depth bound comes from one more byte: as its own
    integer draw, hypothesis tended to pair the bound 1 with trivial
    records, whose enumerations it cannot truncate."""
    records, anchors = [], set()
    for i in range(draw(st.integers(1, 7))):
        subject = draw(st.sampled_from(_DAG_NAMES))
        issuer = draw(st.sampled_from(_DAG_NAMES))
        # The bytes read as a mixed-radix number, one digit per field.
        value = int.from_bytes(draw(st.binary(min_size=4, max_size=4)), "big")
        f = {}
        for name, choices in _DAG_RECORD_FIELDS.items():
            value, pick = divmod(value, len(choices))
            f[name] = choices[pick]
        records.append(record_from_json({
            "fingerprint": f"{i:064x}", "subject": subject, "issuer": issuer,
            "spki": f"{f['key']:064x}", "serial": str(i),
            "not_before": f"{f['start']}-01-01T00:00:00Z",
            "not_after": f"{f['start'] + f['length']}-01-01T00:00:00Z",
            "is_ca": f["is_ca"], "path_len": f["path_len"],
            "name_constraints": f["nc"] and {**f["nc"],
                                             "critical": f["critical"]},
            "self_signed": subject == issuer and f["self_signed"],
            "unknown_critical": f["unknown_critical"],
        }))
        if f["anchor"]:
            anchors.add(records[-1].fingerprint)
    max_depth = 1 + draw(st.binary(min_size=1, max_size=1))[0] % 6
    mode = draw(st.sampled_from(("structural", "strict")))
    return records, frozenset(anchors), max_depth, mode


@settings(max_examples=1000, deadline=None)
@given(dag=_dags())
def test_paths_and_roots_match_oracle_on_random_dags(dag):
    records, anchors, max_depth, mode = dag
    index = build_index(records)
    for record in records:
        result = enumerate_paths(record, index, max_depth=max_depth,
                                 mode=mode, anchors=anchors)
        chains, truncated = oracles.chains(record, records, anchors, max_depth)
        # Strict mode builds no chain with an unknown critical extension.
        built = [c for c in chains
                 if mode != "strict" or not any(r.unknown_critical for r in c)]
        assert [p.chain for p in result.paths] == sorted(
            (fingerprints(c) for c in built
             if oracles.usable(c, strict=mode == "strict")),
            key=lambda chain: (len(chain), chain))
        assert result.roots == {c[-1].fingerprint for c in built}
        assert result.truncated == truncated
        for path in result.paths:
            members = [index.get(fp) for fp in path.chain]
            assert path.validity == (max(r.not_before for r in members),
                                     min(r.not_after for r in members))


_SECOND = timedelta(seconds=1)


def _sampled_rows(bundle):
    """Each certificate, view and store of `bundle`, under the all-sources
    view and each of the bundle's own (also one that shares its id), with
    the assessed intervals, the certificate's usable chains from the chain
    oracle, each with its revocation instants in the view, and the sorted
    instants the answer can change at and one second either side."""
    index = build_index(bundle.records)
    anchors = combined_anchors(bundle.stores)
    revocations = RevocationIndex(bundle.revocations)
    views = [all_sources_view(bundle.revocations), *bundle.views]
    dates = {rec.effective_date for rec in bundle.revocations}
    for store in bundle.stores:
        dates |= {snap.effective_date for snap in store.snapshots}
        dates |= {at for rule in store.distrust_rules
                  for at in (rule.effective_from, rule.issued_after)}
    for cert in bundle.records:
        found, truncated = oracles.chains(cert, bundle.records, anchors,
                                          DEFAULT_MAX_DEPTH)
        chains = [chain for chain in found if oracles.usable(chain)]
        enumeration = enumerate_paths(cert, index, anchors=anchors)
        assert enumeration.truncated == truncated, cert.fingerprint
        bounds = dates | {at for chain in chains
                          for at in (max(r.not_before for r in chain),
                                     min(r.not_after for r in chain))}
        for view in views:
            revoked = [oracles.revocation_instants(chain, bundle.revocations,
                                                   view)
                       for chain in chains]
            assessment = assess_paths(cert, enumeration, bundle.stores,
                                      revocations, view)
            for store in bundle.stores:
                rows = assessment.stores[store.store_id]
                instants = sorted({at + step
                                   for at in bounds | {b for ti in rows
                                                       for b in (ti.start,
                                                                 ti.end)}
                                   for step in (-_SECOND, timedelta(0),
                                                _SECOND)
                                   if at < DT_MAX})
                yield (cert, view, store, rows, list(zip(chains, revoked)),
                       instants)


def _check_instants(bundle):
    """An instant lies in an assessed interval iff some chain makes the
    certificate trusted at that instant."""
    for cert, view, store, rows, chains, instants in _sampled_rows(bundle):
        for t in instants:
            assert any(ti.start <= t < ti.end for ti in rows) == any(
                oracles.trusted_at(chain, revoked, store, t)
                for chain, revoked in chains), \
                (cert.fingerprint, view.consumer_id, store.store_id, t)


@pytest.mark.parametrize("scenario_id, seed", [
    *((sid, 1) for sid in sorted(SCENARIOS) if sid != "random"),
    *(("random", seed) for seed in (1, 2, 3))])
def test_assessed_intervals_match_an_instant_oracle(scenario_id, seed):
    """Every certificate, view and store: an instant lies in an assessed
    interval iff some chain makes the certificate trusted at that instant,
    sampled at every bound the answer can change at and one second either
    side."""
    params = {"n": 80, "revocation_rate": 0.2} \
        if scenario_id == "random" else {}
    _check_instants(generate(ScenarioSpec(scenario_id, seed=seed,
                                          params=params)))


def _check_merge_of_path_trusts(bundle, subsets):
    """For each certificate, store and view, and each subset of the
    certificate's paths that `subsets(paths)` yields: `merge` over the
    subset's `path_trust` results, taken in reverse, equals `assess_paths`
    on an enumeration holding just that subset."""
    index = build_index(bundle.records)
    anchors = combined_anchors(bundle.stores)
    revocations = RevocationIndex(bundle.revocations)
    views = [all_sources_view(bundle.revocations), *bundle.views]
    for cert in bundle.records:
        paths = enumerate_paths(cert, index, anchors=anchors).paths
        for subset in subsets(paths):
            for view in views:
                assessment = assess_paths(cert, PathEnumeration(list(subset)),
                                          bundle.stores, revocations, view)
                for store in bundle.stores:
                    merged = merge(path_trust(path, store, revocations, view)
                                   for path in reversed(subset))
                    assert [ti.to_json() for ti in merged] == [
                        ti.to_json()
                        for ti in assessment.stores[store.store_id]], \
                        (cert.fingerprint, view.consumer_id, store.store_id)


@pytest.mark.parametrize("scenario_id", ["certinomis", "diginotar"])
def test_merge_of_path_trusts_is_assess_paths_on_named_scenarios(scenario_id):
    bundle = generate(ScenarioSpec(scenario_id, seed=1))
    assert len(bundle.stores) > 1

    def every_subset(paths):
        return (subset for size in range(len(paths) + 1)
                for subset in itertools.combinations(paths, size))

    _check_merge_of_path_trusts(bundle, every_subset)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(5, 40), data=st.data())
def test_merge_of_path_trusts_is_assess_paths_on_random_corpora(seed, n, data):
    bundle = generate(ScenarioSpec("random", seed=seed, params={
        "n": n, "xs_rate": 0.4, "revocation_rate": 0.3}))

    def drawn_subset(paths):
        picked = data.draw(st.sets(st.sampled_from(range(len(paths))))
                           if paths else st.just(set()))
        return [[path for i, path in enumerate(paths) if i in picked]]

    _check_merge_of_path_trusts(bundle, drawn_subset)


@pytest.mark.parametrize("scenario_id, seed", [
    *((sid, 1) for sid in sorted(SCENARIOS) if sid != "random"),
    *(("random", seed) for seed in (1, 2, 3))])
def test_assessed_paths_and_causes_match_the_inputs(scenario_id, seed):
    params = {"n": 80, "revocation_rate": 0.2} \
        if scenario_id == "random" else {}
    _check_paths_and_causes(generate(ScenarioSpec(scenario_id, seed=seed,
                                                  params=params)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(20, 80))
# Seed 25 holds an interval whose end is also the expiry of a member of a
# chain that does not support it.
@example(seed=25, n=80)
def test_assessed_paths_and_causes_match_the_inputs_with_dense_cross_signs(
        seed, n):
    # The scenarios above hold no certificate with two trust intervals in
    # one store, one of which a trusting path misses; dense cross-signs in
    # a store whose roots come and go make such certificates.
    _check_paths_and_causes(generate(ScenarioSpec("random", seed=seed, params={
        "n": n, "xs_rate": 0.5, "revocation_rate": 0.2})))


def test_a_distrust_rule_ends_trust_at_its_effective_date():
    # No scenario ends a trust interval at a distrust rule: here the rule
    # takes effect inside the leaf's trusted interval.
    from xsign.corpus import PkiBuilder
    b = PkiBuilder("distrust-mid-interval")
    b.root("root", "CN=Root, O=T", nb=utc(2010), na=utc(2040))
    b.ca("ica", "CN=Issuing CA, O=T", issuer="root", nb=utc(2012),
         na=utc(2030))
    b.leaf("early", "CN=early.example, O=T", issuer="ica", nb=utc(2014),
           na=utc(2020))
    b.leaf("late", "CN=late.example, O=T", issuer="ica", nb=utc(2016),
           na=utc(2020))
    rule = {"anchors": ["root"], "issued_after": utc(2015),
            "effective_from": utc(2017), "description": "root: late leaves"}
    b.store("web", "web", [(utc(2010), ["root"])], rules=[rule])
    b.view("none")
    bundle = b.realize(ScenarioSpec("distrust-mid-interval"))
    index = build_index(bundle.records)
    early, late = (assess_trust(bundle.record(label), index, bundle.stores,
                                bundle.revocations, bundle.views[0])
                   for label in ("early", "late"))
    # The leaf issued before the rule's cutoff keeps its trust.
    assert early.intervals_for("web") == [(utc(2014), utc(2020))]
    assert late.intervals_for("web") == [(utc(2016), utc(2017))]
    assert late.stores["web"][0].blocked_by == [
        {"kind": "distrust_rule", "description": "root: late leaves"}]
    _check_instants(bundle)
    _check_paths_and_causes(bundle)


def _check_paths_and_causes(bundle):
    """Every certificate, view and store of `bundle`, at the instants the
    interval oracle samples: an interval lists a chain iff that chain alone
    makes the certificate trusted at some sampled instant inside it, and
    every interval that ends names a cause, each of which the inputs
    confirm and each of which names a member or the root of a listed chain
    whose own trust ends there."""
    records = {r.fingerprint: r for r in bundle.records}
    for cert, view, store, rows, chains, instants in _sampled_rows(bundle):
        for ti in rows:
            where = (cert.fingerprint, view.consumer_id, store.store_id,
                     ti.start)
            inside = [t for t in instants if ti.start <= t < ti.end]
            supporting = [(chain, revoked) for chain, revoked in chains
                          if any(oracles.trusted_at(chain, revoked, store, t)
                                 for t in inside)]
            assert ti.paths == sorted(
                (fingerprints(chain) for chain, _ in supporting),
                key=lambda c: (len(c), c)), where
            if ti.end == DT_MAX:
                continue
            assert ti.blocked_by, where
            ending = [chain for chain, revoked in supporting
                      if oracles.trusted_at(chain, revoked, store,
                                            ti.end - _SECOND)
                      and not oracles.trusted_at(chain, revoked, store,
                                                 ti.end)]
            for cause in ti.blocked_by:
                assert _confirms(cause, ti.end, records, store, view,
                                 bundle.revocations), (where, cause)
                assert any(_names(cause, chain, store, ti.end)
                           for chain in ending), (where, cause)


def _confirms(cause, end, records, store, view, revocations):
    """Whether the inputs show that `cause` can end trust at `end`."""
    kind = cause["kind"]
    if kind == "path_expiry":
        return records[cause["member"]].not_after == end
    if kind == "revocation":
        return any(rec.source.name == cause["source"]
                   and (rec.reason or "") == cause["reason"]
                   and rec.effective_date == end
                   and rec.source.name in view.accepted_sources
                   and rec.selector.matches(records[cause["member"]])
                   for rec in revocations)
    if kind == "distrust_rule":
        return any(rule.description == cause["description"]
                   and rule.effective_from == end
                   for rule in store.distrust_rules)
    if kind == "store_removal":
        return (cause["store"] == store.store_id
                and cause["root"] in oracles.roots_at(store, end - _SECOND)
                and cause["root"] not in oracles.roots_at(store, end))
    return False


def _names(cause, chain, store, end):
    """Whether `cause` names a member or the root of `chain` (records,
    leaf first), or a distrust rule that blocks it at `end`."""
    if cause["kind"] == "store_removal":
        return cause["root"] == chain[-1].fingerprint
    if cause["kind"] == "distrust_rule":
        return any(rule.description == cause["description"]
                   and rule_blocks_path(rule, chain, end)
                   for rule in store.distrust_rules)
    return cause["member"] in fingerprints(chain)
