"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import json
import random
import time
from dataclasses import replace
from datetime import timedelta

import oracles
from xsign.analysis import AnalysisOptions, analyze_corpus, build_run
from xsign.corpus import PkiBuilder, ScenarioSpec, generate
from xsign.findings import find_revocation_inconsistency
from xsign.pathengine import assess_trust, build_index, enumerate_paths
from xsign.revocation import RevocationIndex, RevocationView, revocation_onset
from xsign.timeutil import utc
from xsign.truststore import combined_anchors
from xsign.xsdetect import classify_type, group_xs
from xsign.xsext import (Bootstrapping, ExpandingTrust, FallBack, LogTimestamp,
                         MultipleAlgorithms, XsExtension, decode_xs_extension,
                         encode_xs_extension, lint_cross_sign)

DELTA_CATEGORIES = {"bootstrapping", "expanded_trust", "extended_validity",
                    "alternative_paths"}


def _ok(num: int, text: str):
    print(f"ACCEPTANCE PASS [{num:02d}] {text}")


def test_criterion_01_certinomis_window():
    started = time.monotonic()
    bundle = generate(ScenarioSpec("certinomis", 1, "structural"))
    index = build_index(bundle.records)
    mozilla_view = next(v for v in bundle.views if v.consumer_id == "mozilla")
    leaf = bundle.record("leaf_banned")
    assert leaf.not_before > utc(2016, 10, 21)

    assessment = assess_trust(leaf, index, bundle.stores, bundle.revocations,
                              mozilla_view)
    windows = assessment.intervals_for("mozilla")
    assert len(windows) == 1
    start, end = windows[0]
    # Untrusted before the cross-sign: the not-before rule blocks the
    # native chain entirely.
    assert start == bundle.record("ica_xs").not_before
    assert (start.year, start.month) == (2017, 4)
    # The window closes at the vendor-list entry.
    assert end == utc(2017, 9, 26)
    length = (end - start).days
    assert 150 <= length <= 210

    result = analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                            bundle.views, bundle.operator_map)
    var = [f for f in result.findings
           if f.category == "valid_after_revocation"
           and f.evidence["view"] == "mozilla"
           and f.evidence["store"] == "mozilla"]
    assert var, "undesired-window finding must fire in the Mozilla view"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _ok(1, f"certinomis window {start.date()}..{end.date()} = {length}d "
           f"(in [150,210]), runtime {elapsed:.2f}s < 5s")


def test_criterion_02_diginotar_exact_boundaries():
    bundle = generate(ScenarioSpec("diginotar", 1, "structural"))
    index = build_index(bundle.records)
    leaf = bundle.record("leaf")
    legacy = next(v for v in bundle.views if v.consumer_id == "legacy")
    chrome = next(v for v in bundle.views if v.consumer_id == "chrome")

    legacy_assessment = assess_trust(leaf, index, bundle.stores,
                                     bundle.revocations, legacy)
    for store_id in ("mozilla", "microsoft"):
        windows = legacy_assessment.intervals_for(store_id)
        assert windows[-1][1] == utc(2013, 8, 1), store_id
    chrome_assessment = assess_trust(leaf, index, bundle.stores,
                                     bundle.revocations, chrome)
    for store_id in ("mozilla", "microsoft"):
        windows = chrome_assessment.intervals_for(store_id)
        assert windows[-1][1] == utc(2011, 9, 1), store_id
    _ok(2, "diginotar: trust ends 2013-08-01 without vendor sources, "
           "2011-09-01 under the key blacklist (exact)")


def test_criterion_03_actalis_two_year_window():
    bundle = generate(ScenarioSpec("actalis", 1, "structural"))
    index = build_index(bundle.records)
    onecrl = next(v for v in bundle.views if v.consumer_id == "mozilla")
    crlset = next(v for v in bundle.views if v.consumer_id == "google")
    g2, g2_xs = bundle.record("g2"), bundle.record("g2_xs")

    revocations = RevocationIndex(bundle.revocations)
    onset = revocation_onset(g2, onecrl, revocations)
    assert onset == utc(2016, 11, 1)
    assert revocation_onset(g2_xs, onecrl, revocations) == onset

    # In the OneCRL view nothing survives the revocation.
    a = assess_trust(g2_xs, index, bundle.stores, bundle.revocations, onecrl)
    assert all(end <= onset for _, end in a.intervals_for("google"))
    # In the CRLSet view the cross-sign stays valid until its expiry.
    a = assess_trust(g2_xs, index, bundle.stores, bundle.revocations, crlset)
    open_window = [iv for iv in a.intervals_for("google") if iv[1] > onset]
    assert len(open_window) == 1
    days = (open_window[0][1] - onset).days
    assert abs(days - 730) <= 31
    assert open_window[0][1] == g2_xs.not_after
    _ok(3, f"actalis: revoked 2016-11 in OneCRL view; CRLSet window {days}d "
           f"= 730 +/- 31 until cross-sign expiry")


def _overlap_corpus(overlap_days: int):
    b = PkiBuilder(f"acc-overlap-{overlap_days}")
    b.root("A", "CN=Issuer A, O=T", nb=utc(2000), na=utc(2040))
    b.root("B", "CN=Issuer B, O=T", nb=utc(2000), na=utc(2040))
    start = utc(2015, 1, 1)
    b.ca("m1", "CN=Shared, O=T", issuer="A", nb=start,
         na=start + timedelta(days=400))
    b.cross_sign("m2", "m1", issuer="B",
                 nb=start + timedelta(days=400 - overlap_days),
                 na=start + timedelta(days=900))
    return build_index(b.build("structural").values())


def test_criterion_04_overlap_boundary_sweep():
    flips = []
    for overlap in range(0, 366):
        xs, re = group_xs(_overlap_corpus(overlap))
        assert len(xs) + len(re) == 1
        if xs:
            flips.append(overlap)
    assert flips == list(range(121, 366))
    _ok(4, "overlap sweep 0..365: re-issuance below 121, cross-sign from 121")


def test_criterion_05_enumeration_oracle_and_scale(figure1):
    index = build_index(figure1.records)
    anchors = combined_anchors(figure1.stores)
    chains = [p.chain for p in enumerate_paths(figure1.record("L6"), index,
                                               anchors=anchors).paths]
    assert len(chains) == 2

    rng = random.Random(20260810)
    for trial in range(200):
        bundle = generate(ScenarioSpec(
            "random", seed=50_000 + trial, mode="structural",
            params={"n": rng.randrange(6, 51), "xs_rate": 0.5,
                    "mutual_pairs": trial % 3}))
        assert len(bundle.records) <= 50
        assert not any(r.name_constraints for r in bundle.records)
        idx = build_index(bundle.records)
        anch = combined_anchors(bundle.stores)
        for record in bundle.records:
            got = {p.chain for p in enumerate_paths(
                record, idx, max_depth=60, anchors=anch).paths}
            chains, _ = oracles.chains(record, bundle.records, anch, 60)
            want = {tuple(r.fingerprint for r in chain) for chain in chains
                    if oracles.usable(chain)}
            assert got == want

    big = generate(ScenarioSpec("random", seed=9, mode="structural",
                                params={"n": 10000, "xs_rate": 0.1}))
    big_index = build_index(big.records)
    big_anchors = combined_anchors(big.stores)
    started = time.monotonic()
    for record in big.records:
        enumerate_paths(record, big_index, max_depth=12, anchors=big_anchors)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _ok(5, f"enumeration: figure1 scenario leaf has 2 paths; 200 random DAGs "
           f"match the DFS oracle; 10,000-cert corpus in {elapsed:.1f}s < 60s")


def test_criterion_06_grouping_matches_brute_force():
    rng = random.Random(606)
    for trial in range(100):
        n = rng.randrange(10, 501)
        bundle = generate(ScenarioSpec(
            "random", seed=60_000 + trial, mode="structural",
            params={"n": n, "xs_rate": 0.4, "mutual_pairs": trial % 3}))
        assert len(bundle.records) <= 500
        index = build_index(bundle.records)
        xs, re = group_xs(index)
        want_xs, want_re, _ = oracles.groups(bundle.records, 121)
        assert {(g.subject, g.spki_digest) for g in xs} == want_xs, trial
        assert {(g.subject, g.spki_digest) for g in re} == want_re, trial
    _ok(6, "grouping equals the pairwise brute-force oracle on 100 random "
           "corpora (<=500 certs)")


def test_criterion_07_taxonomy_totality():
    shapes = generate(ScenarioSpec("leafmix", 1, "structural"))
    for seed in range(5):
        noise = generate(ScenarioSpec("random", seed=70_000 + seed,
                                      mode="structural",
                                      params={"n": 60, "xs_rate": 0.4}))
        records = list(shapes.records) + list(noise.records)
        stores = list(shapes.stores) + list(noise.stores)
        index = build_index(records)
        xs, _ = group_xs(index)
        types = {}
        for group in xs:
            t = classify_type(group, combined_anchors(stores))
            assert t in ("root", "intermediate", "leaf", "leaf_mix")
            types.setdefault(t, []).append(group)
        mix_spki = shapes.record("mix_ca").spki_digest
        assert any(g.spki_digest == mix_spki for g in types.get("leaf_mix", []))
    _ok(7, "taxonomy: every group gets exactly one of the four types; the "
           "synthetic CA/leaf key-share is detected as leaf_mix")


def test_criterion_08_name_constraint_duality(swiss):
    index = build_index(swiss.records)
    anchors = combined_anchors(swiss.stores)
    leaf = swiss.record("leaf_offlist")

    def xs_paths(mode):
        result = enumerate_paths(leaf, index, mode=mode, anchors=anchors)
        return result, [p for p in result.paths
                        if swiss.fp("sg02_xs") in p.chain]

    honoring, honoring_xs = xs_paths("strict")
    assert not honoring_xs
    _, ignoring_xs = xs_paths("structural")
    assert ignoring_xs
    # Strict mode built the chains through the cross-sign, and rejected
    # them for the name constraints.
    assert {p.root for p in ignoring_xs} <= honoring.roots
    _ok(8, "off-list leaf: rejected honoring the non-critical name "
           "constraints, accepted when they are ignored")


def test_criterion_09_delta_precedence(letsencrypt):
    for seed in range(8):
        bundle = generate(ScenarioSpec("random", seed=90_000 + seed,
                                       mode="structural",
                                       params={"n": 70, "xs_rate": 0.5,
                                               "mutual_pairs": seed % 3}))
        result = analyze_corpus(bundle.records, bundle.stores,
                                bundle.revocations, bundle.views,
                                bundle.operator_map)
        for group in result.xs_groups:
            labels = [f.category for f in result.findings
                      if f.category in DELTA_CATEGORIES
                      and f.spki == group.spki_digest
                      and f.subject == str(group.subject)]
            assert len(labels) == 1, (seed, group.key, labels)

    le = analyze_corpus(letsencrypt.records, letsencrypt.stores,
                        letsencrypt.revocations, letsencrypt.views,
                        letsencrypt.operator_map)
    le_labels = [f.category for f in le.findings
                 if f.category in DELTA_CATEGORIES]
    assert le_labels == ["bootstrapping"]

    twin = generate(ScenarioSpec("twin", 1, "structural"))
    tw = analyze_corpus(twin.records, twin.stores, twin.revocations,
                        twin.views, twin.operator_map)
    tw_labels = [f.category for f in tw.findings
                 if f.category in DELTA_CATEGORIES]
    assert tw_labels == ["alternative_paths"]
    _ok(9, "trust deltas: exactly one label per group; bootstrapping for the "
           "externally anchored newcomer, alternative_paths for twins")


def test_criterion_10_backdating():
    from xsign.findings import find_backdating
    bundle = generate(ScenarioSpec("backdating", 1, "structural"))
    run, xs, _ = build_run(bundle.records, bundle.stores, bundle.revocations,
                           bundle.views)
    ut = next(g for g in xs
              if g.spki_digest == bundle.record("usertrust_ecc").spki_digest)
    flagged = find_backdating(ut, run)
    assert len(flagged) == 1
    assert flagged[0].evidence["member"] == bundle.fp("ut_xs_backdated")
    gap = flagged[0].evidence["max_gap_days"]
    assert gap >= 9 * 365

    boundary = next(g for g in xs
                    if g.spki_digest == bundle.record("bd_root").spki_digest)
    assert not find_backdating(boundary, run)
    _ok(10, f"backdating: year-2000 cross-sign of a 2010 root flagged "
            f"(gap {gap}d >= 9y); exact-slack control not flagged")


def test_criterion_11_extension_and_lints():
    rng = random.Random(11_011)

    def random_ext():
        def fp():
            return "".join(rng.choice("0123456789abcdef") for _ in range(64))
        makers = [
            lambda: Bootstrapping(fp(), ("s1", "s2"), f"t-{rng.randrange(999)}"),
            lambda: ExpandingTrust((f"s{rng.randrange(4)}",)),
            lambda: FallBack((f"s{rng.randrange(4)}",), fp()),
            lambda: MultipleAlgorithms(("sha256-rsa", "ecdsa-sha384"),
                                       (fp(), fp())),
        ]
        motivations = tuple(rng.choice(makers)()
                            for _ in range(rng.randrange(1, 4)))
        stamps = tuple(LogTimestamp(f"log{rng.randrange(5)}",
                                    utc(2016, 1, 1 + rng.randrange(28)))
                       for _ in range(rng.randrange(0, 3)))
        return XsExtension(motivations, stamps)

    for _ in range(1000):
        ext = random_ext()
        blob = encode_xs_extension(ext)
        assert decode_xs_extension(blob) == ext
        assert encode_xs_extension(decode_xs_extension(blob)) == blob

    # Lint fixtures: a short-lived original (m1) and a ten-year cross-sign
    # (m2) over two web stores.
    b = PkiBuilder("acc-lint")
    b.root("root_a", "CN=Lint Root A, O=L", nb=utc(2000), na=utc(2040))
    b.root("root_b", "CN=Lint Root B, O=L", nb=utc(2000), na=utc(2040))
    b.root("newroot", "CN=Lint Newcomer, O=L", nb=utc(2015), na=utc(2040))
    b.ca("m1", "CN=Lint CA, O=L", issuer="root_a", nb=utc(2015, 1, 1),
         na=utc(2016, 1, 1))
    b.cross_sign("m2", "m1", issuer="root_b", nb=utc(2015, 3, 1),
                 na=utc(2025, 3, 1))
    b.store("web1", "web", [(utc(2005), ["root_a", "root_b"])])
    b.store("web2", "web", [(utc(2005), ["root_b"])])
    b.view("all")
    bundle = b.realize(ScenarioSpec("acc-lint"))
    index = build_index(bundle.records)
    xs, _ = group_xs(index)
    group = xs[0]
    m1, m2 = bundle.fp("m1"), bundle.fp("m2")
    newroot = bundle.fp("newroot")
    root_b = bundle.fp("root_b")
    full_cov = {m1: {"web1", "web2"}, m2: {"web1", "web2"}}

    def lint(exts, stores=None, coverage=None, revocations=(), views=(),
             explanations=(), at=None, max_validity_days=398):
        run, _, _ = build_run(
            bundle.records, stores if stores is not None else bundle.stores,
            revocations, views,
            options=AnalysisOptions(max_validity_days=max_validity_days),
            extensions=exts, explanations=explanations)
        if at is not None:
            run = replace(run, lint_at=at)
        verdicts = lint_cross_sign(
            group, run, coverage if coverage is not None else full_cov,
            bool(find_revocation_inconsistency(group, run)))
        return {v.code for v in verdicts}

    base_ext = {m2: XsExtension((ExpandingTrust(("web2",)),))}
    # V1: fires at the 398-day default for the ten-year member; the
    # 365-day member stays quiet.
    assert "V1" in lint(base_ext)
    short_group_codes = lint(base_ext, max_validity_days=4000)
    assert "V1" not in short_group_codes
    # V2
    assert "V2" in lint({})
    assert "V2" not in lint(base_ext)
    # V3
    boot = {m2: XsExtension((Bootstrapping(newroot, ("web1",), "req-1"),))}
    assert "V3" not in lint(boot)
    from xsign.truststore import RootStoreTimeline, StoreSnapshot
    included = [RootStoreTimeline("web1", "web", [
        StoreSnapshot(utc(2005), frozenset([bundle.fp("root_a"), root_b])),
        StoreSnapshot(utc(2020), frozenset([bundle.fp("root_a"), root_b,
                                            newroot]))])]
    assert "V3" in lint(boot, stores=included, at=utc(2021))
    # V4
    both = {m1: XsExtension((ExpandingTrust(("web2",)),)),
            m2: XsExtension((ExpandingTrust(("web2",)),))}
    assert "V4" in lint(both)
    fallback = {m1: XsExtension((FallBack(("web2",), m2),)),
                m2: XsExtension((ExpandingTrust(("web2",)),))}
    assert "V4" not in lint(fallback)
    # V5
    impure = {m2: XsExtension((MultipleAlgorithms(("sha512-rsa",), (root_b,)),))}
    assert "V5" in lint(impure)
    pure = {m2: XsExtension((MultipleAlgorithms(("ecdsa-sha256",), (root_b,)),))}
    assert "V5" not in lint(pure)
    # V6
    split = {m1: XsExtension((ExpandingTrust(("web1",)),),
                             (LogTimestamp("log-a", utc(2015, 1, 1)),)),
             m2: XsExtension((ExpandingTrust(("web2",)),),
                             (LogTimestamp("log-b", utc(2015, 3, 1)),))}
    assert "V6" in lint(split)
    joined = {m1: XsExtension((ExpandingTrust(("web1",)),),
                              (LogTimestamp("log-a", utc(2015, 1, 1)),)),
              m2: XsExtension((ExpandingTrust(("web2",)),),
                              (LogTimestamp("log-a", utc(2015, 3, 1)),))}
    assert "V6" not in lint(joined)
    # V7 (needs an actual inconsistency: revoke only one member)
    from xsign.revocation import (IssuerSerial, RevocationRecord,
                                  RevocationSource)
    rev = [RevocationRecord(RevocationSource("vendor", "onecrl"),
                            IssuerSerial(index.get(m1).issuer,
                                         index.get(m1).serial),
                            utc(2018, 1, 1))]
    views = [RevocationView("mozilla", frozenset(["onecrl"]))]
    assert "V7" in lint(base_ext, revocations=rev, views=views)
    explained = lint(base_ext, revocations=rev, views=views,
                     explanations=[f"{group.subject}|{group.spki_digest}"])
    assert "V7" not in explained
    _ok(11, "extension: 1000 random round-trips byte-identical; V1..V7 each "
            "fire and stay silent on their fixtures; V1 at the 398-day default")


def test_criterion_12_deterministic_reports(tmp_path):
    import contextlib
    import io

    from xsign.cli import main

    for scenario in ("certinomis", "actalis", "random"):
        digests = []
        for run in ("one", "two"):
            base = tmp_path / f"{scenario}-{run}"
            args_scenario = ["scenario", scenario, "--seed", "5", "--out",
                             str(base / "bundle")]
            if scenario == "random":
                args_scenario += ["--param", "n=120",
                                  "--param", "revocation_rate=0.3"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args_scenario) == 0
                assert main(["ingest", "--ws", str(base / "ws"), "--format",
                             "jsonl", str(base / "bundle")]) == 0
                assert main(["analyze", "--ws", str(base / "ws")]) == 0
            reports = sorted((base / "ws" / "reports").glob("*.jsonl"))
            digests.append({p.name: p.read_bytes() for p in reports})
        assert digests[0] == digests[1], scenario
    _ok(12, "two full analyze runs per scenario produce byte-identical "
            "reports")
