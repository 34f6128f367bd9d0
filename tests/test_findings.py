import random
from datetime import timedelta

import oracles
import xsign.analysis
import xsign.findings
import xsign.pathengine
from xsign.analysis import (COVERAGE_VIEW_ID, AnalysisOptions, analyze_corpus,
                            build_run, lint_corpus)
from xsign.corpus import PkiBuilder, ScenarioSpec, generate
from xsign.findings import (find_backdating, find_ownership_span,
                            find_revocation_inconsistency)
from xsign.pathengine import build_index
from xsign.revocation import (IssuerSerial, RevocationRecord,
                              RevocationSource, RevocationView)
from xsign.timeutil import parse_rfc3339, utc
from xsign.truststore import combined_anchors
from xsign.xsdetect import group_xs

DELTA_CATEGORIES = {"bootstrapping", "expanded_trust", "extended_validity",
                    "alternative_paths"}


def _analyzed(bundle):
    return analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                          bundle.views, bundle.operator_map)


def _by_category(result):
    out = {}
    for f in result.findings:
        out.setdefault(f.category, []).append(f)
    return out


# --- valid after revocation ---------------------------------------------------

def test_actalis_crlset_window_two_years(actalis):
    result = _analyzed(actalis)
    hits = [f for f in _by_category(result)["valid_after_revocation"]
            if f.evidence["view"] == "google" and f.evidence["store"] == "google"]
    assert len(hits) == 1
    window = hits[0].evidence["window"]
    start = parse_rfc3339(window[0]["from"])
    end = parse_rfc3339(window[-1]["to"])
    assert start == utc(2016, 11, 1)
    assert end == utc(2018, 11, 1)
    assert abs((end - start).days - 730) <= 31


def test_no_finding_when_all_members_revoked_everywhere():
    b = PkiBuilder("uniform-revoked")
    b.root("A", "CN=Root A, O=T", nb=utc(2000), na=utc(2040))
    b.root("B", "CN=Root B, O=T", nb=utc(2000), na=utc(2040))
    b.ca("m1", "CN=Shared, O=T", issuer="A", nb=utc(2014), na=utc(2024))
    b.cross_sign("m2", "m1", issuer="B", nb=utc(2014), na=utc(2024))
    b.store("web1", "web", [(utc(2010), ["A", "B"])])
    b.revoke("vendor", "onecrl", "issuer_serial", "m1", utc(2018))
    b.revoke("vendor", "onecrl", "issuer_serial", "m2", utc(2018))
    b.view("mozilla", "onecrl")
    bundle = b.realize(ScenarioSpec("uniform-revoked"))
    result = _analyzed(bundle)
    assert "valid_after_revocation" not in _by_category(result)


def test_random_pkis_match_daily_sampled_oracle():
    rng = random.Random(31337)
    for trial in range(8):
        bundle = generate(ScenarioSpec(
            "random", seed=31000 + trial, mode="structural",
            params={"n": 30, "xs_rate": 0.6, "revocation_rate": 0.35,
                    "mutual_pairs": 0}))
        # The scenario's `all` view accepts no source, so the windows are
        # compared under a view that accepts every source as well.
        every_source = RevocationView(
            "every-source",
            frozenset(r.source.name for r in bundle.revocations))
        views = [v for v in bundle.views if v.consumer_id == "all"]
        views.append(every_source)
        result = analyze_corpus(bundle.records, bundle.stores,
                                bundle.revocations,
                                [*bundle.views, every_source],
                                bundle.operator_map)
        index = build_index(bundle.records)
        anchors = combined_anchors(bundle.stores)
        records = bundle.records
        store = bundle.stores[0]
        impl = {}
        for f in result.findings:
            if f.category != "valid_after_revocation":
                continue
            key = (f.spki, f.evidence["view"], f.evidence["store"])
            impl[key] = [(parse_rfc3339(w["from"]), parse_rfc3339(w["to"]))
                         for w in f.evidence["window"]]

        for group in result.xs_groups:
            members = [index.get(fp) for fp in group.members]
            chains = [chain for m in members
                      for chain in oracles.chains(m, records, anchors)[0]]
            for view in views:
                revoked = [oracles.revocation_instants(chain,
                                                       bundle.revocations, view)
                           for chain in chains]
                events = []
                for m in members:
                    hits = [r.effective_date for r in bundle.revocations
                            if r.source.name in view.accepted_sources
                            and r.selector.matches(m)]
                    if hits:
                        events.append(min(hits))
                    for i, snap in enumerate(store.snapshots[:-1]):
                        nxt = store.snapshots[i + 1]
                        if (m.fingerprint in snap.roots
                                and m.fingerprint not in nxt.roots):
                            events.append(nxt.effective_date)
                key = (group.spki_digest, view.consumer_id, store.store_id)
                windows = impl.get(key, [])
                if not events:
                    assert not windows
                    continue
                first = min(events)
                horizon = max(m.not_after for m in members) + timedelta(days=2)
                day = first
                while day < horizon:
                    oracle_says = any(
                        oracles.trusted_at(chain, rev, store, day)
                        for chain, rev in zip(chains, revoked))
                    impl_says = any(s <= day < e for s, e in windows)
                    assert impl_says == oracle_says, (trial, key, day)
                    day += timedelta(days=1)


# --- barrier breaches ----------------------------------------------------------

def test_fpki_breach_into_web_class():
    bundle = generate(ScenarioSpec("fpki", 1, "structural"))
    result = _analyzed(bundle)
    breaches = _by_category(result)["barrier_breach"]
    assert len(breaches) == 1
    ev = breaches[0].evidence
    assert ev["member"] == bundle.fp("fbca_xs")
    assert ev["native_classes"] == ["government"]
    assert ev["breached_classes"] == ["web"]
    assert ev["mitigation"] is None
    assert breaches[0].severity == "bad"


def test_swiss_breach_carries_nc_mitigation(swiss):
    result = _analyzed(swiss)
    breaches = _by_category(result)["barrier_breach"]
    assert len(breaches) == 1
    assert breaches[0].evidence["mitigation"] == "nc_noncritical"


def test_breach_is_measured_from_the_operator_internal_member():
    # The earliest member is a web CA's cross-sign of an agency CA, and the
    # agency's own certificate comes later: the native member is the
    # agency's, and the cross-sign breaches into the web class.
    b = PkiBuilder("native-member")
    b.root("web_root", "CN=Web Root, O=Web CA", nb=utc(2005), na=utc(2035))
    b.root("gov_root", "CN=Agency Root, O=Agency", nb=utc(2005), na=utc(2035))
    b.ca("gov_ca", "CN=Agency CA, O=Agency", issuer="gov_root",
         nb=utc(2012), na=utc(2030))
    b.cross_sign("gov_xs", "gov_ca", issuer="web_root", nb=utc(2010),
                 na=utc(2030))
    b.store("mozilla", "web", [(utc(2005), ["web_root"])])
    b.store("agency", "government", [(utc(2005), ["gov_root"])])
    b.view("none")
    b.operator_spans = [
        {"operator_id": "agency", "subjects": ["CN=Agency Root, O=Agency",
                                               "CN=Agency CA, O=Agency"]},
        {"operator_id": "webca", "subjects": ["CN=Web Root, O=Web CA"]}]
    bundle = b.realize(ScenarioSpec("native-member"))
    breaches = _by_category(_analyzed(bundle))["barrier_breach"]
    assert [f.evidence["member"] for f in breaches] == [bundle.fp("gov_xs")]
    ev = breaches[0].evidence
    assert ev["native_member"] == bundle.fp("gov_ca")
    assert (ev["native_classes"], ev["breached_classes"]) == (
        ["government"], ["web"])


def test_single_class_corpus_no_breach(figure1):
    result = _analyzed(figure1)
    assert "barrier_breach" not in _by_category(result)


# --- trust deltas ----------------------------------------------------------------

def test_bootstrapping_for_externally_anchored_newcomer(letsencrypt):
    result = _analyzed(letsencrypt)
    deltas = [f for f in result.findings if f.category in DELTA_CATEGORIES]
    assert len(deltas) == 1
    assert deltas[0].category == "bootstrapping"
    expansion = deltas[0].evidence["expansions"][0]
    assert expansion["member"] == letsencrypt.fp("x3_xs")
    assert expansion["external_issuer"]
    assert expansion["own_root_absent_at_issuance"]


def test_twin_coverage_is_alternative_paths():
    bundle = generate(ScenarioSpec("twin", 1, "structural"))
    result = _analyzed(bundle)
    deltas = [f for f in result.findings if f.category in DELTA_CATEGORIES]
    assert [f.category for f in deltas] == ["alternative_paths"]


def test_globalsign_dv_extends_validity():
    bundle = generate(ScenarioSpec("globalsign", 1, "structural"))
    result = _analyzed(bundle)
    dv_spki = bundle.record("dv").spki_digest
    deltas = [f for f in result.findings
              if f.category in DELTA_CATEGORIES and f.spki == dv_spki]
    assert [f.category for f in deltas] == ["extended_validity"]
    ext = deltas[0].evidence["extensions"][0]
    assert ext["member"] == bundle.fp("dv_xs")


def test_every_group_gets_exactly_one_delta_label():
    for seed in range(6):
        bundle = generate(ScenarioSpec("random", seed=7000 + seed,
                                       mode="structural",
                                       params={"n": 80, "xs_rate": 0.5,
                                               "mutual_pairs": seed % 3}))
        result = _analyzed(bundle)
        for group in result.xs_groups:
            labels = [f.category for f in result.findings
                      if f.category in DELTA_CATEGORIES
                      and f.spki == group.spki_digest
                      and f.subject == str(group.subject)]
            assert len(labels) == 1, (seed, group.key, labels)


def test_trust_deltas_use_the_analysis_depth_bound(figure1):
    # At depth 2 the native members reach no root of the target store, so
    # their anchors count as absent, as the depth-2 assessments say.
    result = analyze_corpus(figure1.records, figure1.stores,
                            figure1.revocations, figure1.views,
                            figure1.operator_map,
                            options=AnalysisOptions(max_depth=2))
    [finding] = _by_category(result)["expanded_trust"]
    [expansion] = finding.evidence["expansions"]
    assert expansion["own_root_absent_at_issuance"] is True
    member = next(r for r in figure1.records
                  if r.fingerprint == expansion["member"])
    others = [fp for fp in finding.members if fp != member.fingerprint]
    for store_id in expansion["new_stores"]:
        native = [iv for fp in others
                  for iv in result.assessments[fp, COVERAGE_VIEW_ID]
                  .intervals_for(store_id)]
        assert not any(s <= member.not_before < e for s, e in native)


def test_analysis_enumerates_each_certificate_once(figure1, monkeypatch):
    calls = []
    original = xsign.pathengine.enumerate_paths

    def counting(cert, *args, **kwargs):
        calls.append(cert.fingerprint)
        return original(cert, *args, **kwargs)

    # Only the analysis module's binding is patched: analyze and lint both
    # enumerate through its one enumeration helper.
    monkeypatch.setattr(xsign.analysis, "enumerate_paths", counting)
    result = _analyzed(figure1)
    # The certificates that are not members are enumerated as the rows
    # are read.
    list(result.rows)
    assert sorted(calls) == sorted(r.fingerprint for r in figure1.records)
    members = sorted(fp for group in result.xs_groups for fp in group.members)
    assert 0 < len(members) < len(figure1.records)
    # Coverage is assessed for the cross-sign members only.
    assert sorted(fp for fp, view_id in result.assessments
                  if view_id == COVERAGE_VIEW_ID) == members

    calls.clear()
    lint_corpus(figure1.records, figure1.stores, figure1.revocations,
                figure1.views, figure1.operator_map,
                extensions=figure1.extensions)
    assert sorted(calls) == members


# --- multiple algorithms -------------------------------------------------------

def test_virginia_tech_algorithm_transition():
    bundle = generate(ScenarioSpec("virginia-tech", 1, "structural"))
    result = _analyzed(bundle)
    hits = _by_category(result)["multi_algorithm"]
    assert len(hits) == 1
    assert hits[0].evidence["algorithm_set"] == ["sha1-rsa", "sha256-rsa"]


def test_identical_algorithms_no_finding(figure1):
    result = _analyzed(figure1)
    assert "multi_algorithm" not in _by_category(result)


def test_keynectis_includes_ecdsa():
    bundle = generate(ScenarioSpec("keynectis", 1, "structural"))
    result = _analyzed(bundle)
    hits = _by_category(result)["multi_algorithm"]
    assert len(hits) == 1
    algs = set(hits[0].evidence["algorithm_set"])
    assert {"sha1-rsa", "sha256-rsa", "sha512-rsa", "ecdsa-sha384"} <= algs


# --- ownership spans -------------------------------------------------------------

def test_netsol_spans_two_ownership_events():
    bundle = generate(ScenarioSpec("netsol", 1, "structural"))
    result = _analyzed(bundle)
    hits = _by_category(result)["ownership_change"]
    assert len(hits) == 1
    events = {(e["from_operator"], e["to_operator"])
              for span in hits[0].evidence["spans"] for e in span["events"]}
    assert ("pivotal-equity", "general-atlantic") in events
    assert ("general-atlantic", "web-com") in events


def test_no_events_inside_interval_no_finding(letsencrypt):
    result = _analyzed(letsencrypt)
    assert "ownership_change" not in _by_category(result)


def test_ownership_matches_containment_oracle():
    rng = random.Random(4242)
    subject = "CN=Churn CA, O=Churn"
    for trial in range(25):
        b = PkiBuilder(f"churn-{trial}")
        b.root("A", "CN=Root A, O=T", nb=utc(2000), na=utc(2040))
        b.root("B", "CN=Root B, O=T", nb=utc(2000), na=utc(2040))
        start = utc(2010) + timedelta(days=rng.randrange(0, 1000))
        m1_end = start + timedelta(days=rng.randrange(500, 4000))
        b.ca("m1", subject, issuer="A", nb=start, na=m1_end)
        xs_start = start + timedelta(days=rng.randrange(0, 300))
        xs_end = xs_start + timedelta(days=rng.randrange(500, 4000))
        b.cross_sign("m2", "m1", issuer="B", nb=xs_start, na=xs_end)
        b.store("web1", "web", [(utc(2005), ["A", "B"])])
        b.view("all")
        event_date = utc(2010) + timedelta(days=rng.randrange(0, 6000))
        b.ownership_events = [{"date": event_date, "subjects": [subject],
                               "from": "x", "to": "y"}]
        bundle = b.realize(ScenarioSpec(f"churn-{trial}"))
        run, xs, _ = build_run(bundle.records, bundle.stores,
                               bundle.revocations, bundle.views,
                               bundle.operator_map)
        if not xs:
            continue
        findings = find_ownership_span(xs[0], run)
        joint_start = max(start, xs_start)
        joint_end = min(m1_end, xs_end)
        expected = joint_start <= event_date < joint_end
        assert bool(findings) == expected, trial


# --- backdating --------------------------------------------------------------------

def test_backdated_cross_sign_flagged():
    bundle = generate(ScenarioSpec("backdating", 1, "structural"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    ut = next(g for g in xs
              if g.spki_digest == bundle.record("usertrust_ecc").spki_digest)
    findings = find_backdating(ut, index)
    assert len(findings) == 1
    ev = findings[0].evidence
    assert ev["member"] == bundle.fp("ut_xs_backdated")
    assert ev["max_gap_days"] >= 9 * 365
    kinds = {r["kind"] for r in ev["reasons"]}
    assert "predates_group" in kinds


def test_not_before_equal_to_issuer_not_flagged():
    b = PkiBuilder("equal-nb")
    b.root("A", "CN=Root A, O=T", nb=utc(2010), na=utc(2040))
    b.root("B", "CN=Root B, O=T", nb=utc(2000), na=utc(2040))
    b.ca("m1", "CN=Shared, O=T", issuer="A", nb=utc(2012), na=utc(2030))
    b.cross_sign("m2", "m1", issuer="B", nb=utc(2000), na=utc(2030))
    index = build_index(b.build("structural").values())
    xs, _ = group_xs(index)
    findings = find_backdating(xs[0], index)
    # m2's claimed start equals its issuer's: the group-gap clause needs the
    # issuer to post-date the member, so nothing fires.
    assert not findings


def test_gap_exactly_slack_not_flagged(monkeypatch):
    bundle = generate(ScenarioSpec("backdating", 1, "structural"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    boundary = next(g for g in xs
                    if g.spki_digest == bundle.record("bd_root").spki_digest)
    # The control group's cross-sign predates its sibling by exactly 365
    # days and does not predate its issuer: silent at any slack.
    assert not find_backdating(boundary, index)
    monkeypatch.setattr(xsign.findings, "DEFAULT_BACKDATING_SLACK_DAYS", 1)
    assert not find_backdating(boundary, index)


def test_group_gap_comparison_is_strict(monkeypatch):
    bundle = generate(ScenarioSpec("backdating", 1, "structural"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    ut = next(g for g in xs
              if g.spki_digest == bundle.record("usertrust_ecc").spki_digest)

    def group_gap_reasons(slack):
        monkeypatch.setattr(xsign.findings, "DEFAULT_BACKDATING_SLACK_DAYS",
                            slack)
        out = set()
        for f in find_backdating(ut, index):
            out |= {r["kind"] for r in f.evidence["reasons"]}
        return out

    gap = (bundle.record("usertrust_ecc").not_before
           - bundle.record("ut_xs_backdated").not_before).days
    assert "predates_group" in group_gap_reasons(gap - 1)
    assert "predates_group" not in group_gap_reasons(gap)


# --- revocation inconsistencies -------------------------------------------------

def test_globalsign_partial_revocation():
    bundle = generate(ScenarioSpec("globalsign", 1, "structural"))
    result = _analyzed(bundle)
    ev_spki = bundle.record("ev").spki_digest
    hits = [f for f in _by_category(result)["revocation_inconsistency"]
            if f.spki == ev_spki]
    assert len(hits) == 1
    assert hits[0].severity == "warn"
    partials = [i for i in hits[0].evidence["issues"] if i["kind"] == "partial"]
    assert any(p["unrevoked_sibling"] == bundle.fp("ev_xs") for p in partials)


def test_entrust_lag_seven_months():
    bundle = generate(ScenarioSpec("entrust", 1, "structural"))
    result = _analyzed(bundle)
    hits = _by_category(result)["revocation_inconsistency"]
    assert len(hits) == 1
    lags = [i for i in hits[0].evidence["issues"] if i["kind"] == "lag"]
    assert lags and lags[0]["lag_days"] == 215


def test_uniformly_revoked_group_no_inconsistency():
    b = PkiBuilder("uniform")
    b.root("A", "CN=Root A, O=T", nb=utc(2000), na=utc(2040))
    b.root("B", "CN=Root B, O=T", nb=utc(2000), na=utc(2040))
    b.ca("m1", "CN=Shared, O=T", issuer="A", nb=utc(2014), na=utc(2024))
    b.cross_sign("m2", "m1", issuer="B", nb=utc(2014), na=utc(2024))
    b.store("web1", "web", [(utc(2010), ["A", "B"])])
    for label in ("m1", "m2"):
        b.revoke("vendor", "onecrl", "issuer_serial", label, utc(2018))
        b.revoke("vendor", "crlset", "issuer_serial", label, utc(2018))
    b.view("mozilla", "onecrl")
    b.view("google", "crlset")
    bundle = b.realize(ScenarioSpec("uniform"))
    run, xs, _ = build_run(bundle.records, bundle.stores, bundle.revocations,
                           bundle.views)
    findings = find_revocation_inconsistency(xs[0], run)
    assert not findings


def test_a_source_with_ca_crl_records_keeps_its_scope_rule_in_any_order(
        figure1):
    # One source name with a CA-CRL record and a vendor record, both for
    # the same member: as a CA CRL it cannot list the member's sibling
    # under another issuer, whichever of its records comes first.
    run, xs, _ = build_run(figure1.records, figure1.stores,
                           figure1.revocations, figure1.views)
    member = run.index.get(xs[0].members[0])
    mixed = [RevocationRecord(RevocationSource(kind, "mixed"),
                              IssuerSerial(member.issuer, member.serial),
                              utc(2015))
             for kind in ("ca_crl", "vendor")]
    issues = []
    for order in (mixed, mixed[::-1]):
        run, xs, _ = build_run(figure1.records, figure1.stores,
                               [*figure1.revocations, *order], figure1.views)
        issues.append([issue for finding in find_revocation_inconsistency(
                           xs[0], run)
                       for issue in finding.evidence["issues"]])
    assert issues[0] == issues[1]
    assert not [i for i in issues[0] if i["kind"] == "partial"]


def test_actalis_view_divergence(actalis):
    result = _analyzed(actalis)
    hits = _by_category(result)["revocation_inconsistency"]
    assert len(hits) == 1
    kinds = {i["kind"] for i in hits[0].evidence["issues"]}
    assert "divergence" in kinds
    assert "partial" in kinds


# --- evidence replay ----------------------------------------------------------------

def test_finding_windows_replay_through_assessments(actalis):
    result = _analyzed(actalis)
    for f in result.findings:
        if f.category != "valid_after_revocation":
            continue
        view = f.evidence["view"]
        store = f.evidence["store"]
        for w in f.evidence["window"]:
            start = parse_rfc3339(w["from"])
            mid = start + (parse_rfc3339(w["to"]) - start) / 2
            assert any(s <= mid < e for fp in f.members
                       for s, e in result.assessments[fp, view]
                       .intervals_for(store))
