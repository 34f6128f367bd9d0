import random
import time
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsign import intervals
from xsign.certmodel import dns_identities, record_from_json
from xsign.corpus import SCENARIOS, ScenarioSpec, generate
from xsign.pathengine import (assess_paths, assess_trust, build_index,
                              enumerate_paths, select_stores)
from xsign.revocation import (RevocationIndex, RevocationView,
                              all_sources_view, matching_records)
from xsign.timeutil import DT_MAX, utc
from xsign.truststore import (RootStoreTimeline, UnknownStore, combined_anchors,
                              rule_blocks_path)


def oracle_chains(cert, records, anchors, max_depth=64):
    """Brute-force DFS with an explicit visited set of key digests: every
    name-matching chain (records, leaf first) ending at a terminal record,
    and whether the depth bound cut off a further parent."""
    found = []
    truncated = False

    def dfs(chain, spkis):
        nonlocal truncated
        cur = chain[-1]
        if cur.self_signed or cur.fingerprint in anchors:
            found.append(tuple(chain))
        parents = [p for p in records
                   if p.subject == cur.issuer and p.spki_digest not in spkis]
        if parents and len(chain) >= max_depth:
            truncated = True
            return
        for parent in parents:
            dfs(chain + [parent], spkis | {parent.spki_digest})

    dfs([cert], {cert.spki_digest})
    return found, truncated


def _within(identity, subtree):
    return identity == subtree or identity.endswith("." + subtree)


def oracle_usable(chain, strict=False):
    """RFC 5280 path checks over a chain of records, leaf first: a common
    validity window, CA-capable issuers, no exceeded path length (counting
    the non-self-issued intermediates below each CA), and no DNS name below
    a CA outside its permitted or inside its excluded subtrees, for
    critical name constraints or, in strict mode, any."""
    if max(c.not_before for c in chain) >= min(c.not_after for c in chain):
        return False
    for pos, ca in enumerate(chain[1:], start=1):
        if not ca.ca_capable:
            return False
        intermediates = [c for c in chain[1:pos] if c.subject != c.issuer]
        if (ca.path_len_constraint is not None
                and len(intermediates) > ca.path_len_constraint):
            return False
        nc = ca.name_constraints
        if nc is None or not (nc.critical or strict):
            continue
        permitted = [s.value for s in nc.permitted if s.kind == "dns"]
        excluded = [s.value for s in nc.excluded if s.kind == "dns"]
        for below in chain[:pos]:
            for name in dns_identities(below):
                if permitted and not any(_within(name, p) for p in permitted):
                    return False
                if any(_within(name, e) for e in excluded):
                    return False
    return True


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
            chains, _ = oracle_chains(record, records, anchors)
            assert {p.chain for p in result.paths} == {
                fingerprints(c) for c in chains if oracle_usable(c)}, \
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
    from xsign.corpus import PkiBuilder, ScenarioDef
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
    a = assess_paths(orphan, enumeration, index, stores, RevocationIndex([]),
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


@st.composite
def _dag_records(draw):
    """Up to 7 metadata records over 4 names and 4 keys: shared names make
    cross-signs and mutual pairs, a record naming itself as issuer is a
    self-loop, and windows over a few years are sometimes disjoint."""
    records = []
    for i in range(draw(st.integers(1, 7))):
        subject = draw(st.sampled_from(_DAG_NAMES))
        issuer = draw(st.sampled_from(_DAG_NAMES))
        start = draw(st.integers(2010, 2016))
        nc = draw(st.sampled_from(_DAG_CONSTRAINTS))
        records.append(record_from_json({
            "fingerprint": f"{i:064x}", "subject": subject, "issuer": issuer,
            "spki": f"{draw(st.integers(0, 3)):064x}", "serial": str(i),
            "not_before": f"{start}-01-01T00:00:00Z",
            "not_after": f"{start + draw(st.integers(1, 4))}-01-01T00:00:00Z",
            "is_ca": draw(st.sampled_from((True, True, False))),
            "path_len": draw(st.sampled_from((None, 0, 1))),
            "name_constraints": nc and {**nc, "critical": draw(st.booleans())},
            "self_signed": subject == issuer and draw(st.booleans()),
            "unknown_critical": draw(st.sampled_from((False, False, True))),
        }))
    return records


@settings(max_examples=1000, deadline=None)
@given(records=_dag_records(), data=st.data(),
       max_depth=st.integers(1, 6),
       mode=st.sampled_from(("structural", "strict")))
def test_paths_and_roots_match_oracle_on_random_dags(records, data, max_depth,
                                                     mode):
    index = build_index(records)
    anchors = frozenset(data.draw(st.sets(st.sampled_from(
        [r.fingerprint for r in records]))))
    for record in records:
        result = enumerate_paths(record, index, max_depth=max_depth,
                                 mode=mode, anchors=anchors)
        chains, truncated = oracle_chains(record, records, anchors, max_depth)
        # Strict mode builds no chain with an unknown critical extension.
        built = [c for c in chains
                 if mode != "strict" or not any(r.unknown_critical for r in c)]
        assert [p.chain for p in result.paths] == sorted(
            (fingerprints(c) for c in built
             if oracle_usable(c, strict=mode == "strict")),
            key=lambda chain: (len(chain), chain))
        assert result.roots == {c[-1].fingerprint for c in built}
        assert result.truncated == truncated
        for path in result.paths:
            members = [index.get(fp) for fp in path.chain]
            assert path.validity == (max(r.not_before for r in members),
                                     min(r.not_after for r in members))


_SECOND = timedelta(seconds=1)


def _trusted_at(chains, revoked_from, store, t):
    """The instant oracle: whether some chain (records, leaf first) is
    valid at `t`, ends in a root of the store's snapshot at `t`, has no
    member revoked at or before `t` (`revoked_from`: each chain's matching
    revocation dates) and is blocked by no distrust rule at `t`."""
    roots = store.active_roots(t)
    return any(
        max(r.not_before for r in chain) <= t < min(r.not_after for r in chain)
        and chain[-1].fingerprint in roots
        and not any(at <= t for at in revoked)
        and not any(rule_blocks_path(rule, chain, t)
                    for rule in store.distrust_rules)
        for chain, revoked in zip(chains, revoked_from))


@pytest.mark.parametrize("scenario_id, seed", [
    *((sid, 1) for sid in sorted(SCENARIOS) if sid != "random"),
    *(("random", seed) for seed in (1, 2, 3))])
def test_assessed_intervals_match_an_instant_oracle(scenario_id, seed):
    """Every certificate, view and store: an instant lies in an assessed
    interval iff some enumerated path makes the certificate trusted at that
    instant, sampled at every bound the answer can change at and one second
    either side."""
    params = {"n": 80, "revocation_rate": 0.2} \
        if scenario_id == "random" else {}
    bundle = generate(ScenarioSpec(scenario_id, seed=seed, params=params))
    index = build_index(bundle.records)
    anchors = combined_anchors(bundle.stores)
    revocations = RevocationIndex(bundle.revocations)
    views = {v.consumer_id: v for v in (all_sources_view(bundle.revocations),
                                        *bundle.views)}
    dates = {rec.effective_date for rec in bundle.revocations}
    for store in bundle.stores:
        dates |= {snap.effective_date for snap in store.snapshots}
        dates |= {at for rule in store.distrust_rules
                  for at in (rule.effective_from, rule.issued_after)}
    for cert in bundle.records:
        enumeration = enumerate_paths(cert, index, anchors=anchors)
        chains = [[index.get(fp) for fp in path.chain]
                  for path in enumeration.paths]
        bounds = dates | {at for path in enumeration.paths
                          for at in path.validity}
        for view in views.values():
            revoked_from = [[rec.effective_date for member in chain
                             for rec in matching_records(member, view,
                                                         revocations)]
                            for chain in chains]
            assessment = assess_paths(cert, enumeration, index, bundle.stores,
                                      revocations, view)
            for store in bundle.stores:
                found = assessment.intervals_for(store.store_id)
                instants = {at + step
                            for at in bounds | {b for iv in found for b in iv}
                            for step in (-_SECOND, timedelta(0), _SECOND)
                            if at < DT_MAX}
                for t in sorted(instants):
                    assert any(start <= t < end for start, end in found) == \
                        _trusted_at(chains, revoked_from, store, t), \
                        (cert.fingerprint, view.consumer_id, store.store_id, t)
