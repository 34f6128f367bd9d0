import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

import xsign
from xsign.analysis import AnalysisOptions, build_run
from xsign.corpus import PkiBuilder, ScenarioSpec, generate
from xsign.findings import find_revocation_inconsistency
from xsign.timeutil import utc
from xsign.truststore import RootStoreTimeline, StoreSnapshot
from xsign.xsext import (Bootstrapping, ExpandingTrust, FallBack, LogTimestamp,
                         MalformedExtension, MultipleAlgorithms,
                         OpaqueMotivation, XsExtension, decode_xs_extension,
                         encode_xs_extension, lint_cross_sign)

FP = "ab" * 32


def _ext(*motivations, timestamps=()):
    return XsExtension(motivations=tuple(motivations),
                       issuance_timestamps=tuple(timestamps))


# --- encoding -----------------------------------------------------------------

def test_bootstrapping_round_trip():
    ext = _ext(Bootstrapping(FP, ("mozilla", "microsoft"), "ticket-1"),
               timestamps=[LogTimestamp("log-a", utc(2016, 3, 17))])
    assert decode_xs_extension(encode_xs_extension(ext)) == ext


def test_empty_motivations_rejected():
    with pytest.raises(MalformedExtension):
        XsExtension(motivations=())
    with pytest.raises(MalformedExtension):
        decode_xs_extension(b'{"issuance_timestamps":[],"motivations":[]}')


def test_variant_invariants_enforced():
    with pytest.raises(MalformedExtension):
        _ext(ExpandingTrust(target_stores=()))
    with pytest.raises(MalformedExtension):
        _ext(MultipleAlgorithms(algorithm_set=("sha256-rsa",), path_certs=()))
    with pytest.raises(MalformedExtension):
        _ext(Bootstrapping(FP, ("mozilla",), "   "))


def test_unknown_variant_preserved_opaquely():
    payload = {"issuance_timestamps": [],
               "motivations": [{"kind": "quantum_migration", "data": [1, 2]}]}
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ext = decode_xs_extension(raw)
    assert isinstance(ext.motivations[0], OpaqueMotivation)
    assert ext.motivations[0].kind == "quantum_migration"
    assert encode_xs_extension(ext) == raw


def test_malformed_bytes_rejected():
    with pytest.raises(MalformedExtension):
        decode_xs_extension(b"\xff\xfe not json")
    with pytest.raises(MalformedExtension):
        decode_xs_extension(b'[1,2,3]')
    with pytest.raises(MalformedExtension):
        decode_xs_extension(b'{"issuance_timestamps":[],"motivations":'
                            b'[{"kind":"bootstrapping","target_stores":["a"]}]}')
    # Accepted, this re-encoded with an empty timestamp list added.
    with pytest.raises(MalformedExtension):
        decode_xs_extension(
            b'{"motivations":[{"kind":"expanding_trust","target_stores":["a"]}]}')


_STORES = {"kind": "expanding_trust", "target_stores": ["web"]}
_STAMP = {"log_id": "log-a", "timestamp": "2016-03-17T00:00:00Z"}


@pytest.mark.parametrize("doc", [
    {"motivations": [{**_STORES, "target_stores": "web"}]},
    {"motivations": [{**_STORES, "target_stores": 5}]},
    {"motivations": [{**_STORES, "target_stores": ["web", 5]}]},
    {"motivations": [{"kind": "fall_back", "target_stores": ["web"],
                      "fallback_for": 5}]},
    {"motivations": [{"kind": "bootstrapping", "bootstrapped_cert": 5,
                      "target_stores": ["web"],
                      "inclusion_request_ref": "ticket-1"}]},
    {"motivations": [{"kind": [1]}]},
    {"motivations": [{"kind": 5}]},
    {"motivations": [{"kind": "quantum_migration\ud800"}]},
    {"motivations": 5},
    {"motivations": [_STORES], "issuance_timestamps": 5},
    {"motivations": [_STORES], "issuance_timestamps": [{**_STAMP,
                                                        "log_id": 5}]},
    {"motivations": [_STORES], "issuance_timestamps": [{**_STAMP,
                                                        "timestamp": 5}]},
    {"motivations": [_STORES], "issuance_timestamps": [
        {**_STAMP, "timestamp": "9999-12-31T23:59:59-01:00"}]},
    # Accepted, each of these re-encoded to other bytes.
    {"motivations": [{**_STORES, "x": 1}]},
    {"motivations": [_STORES], "x": 1},
    {"motivations": [_STORES], "issuance_timestamps": [{**_STAMP, "x": 1}]},
    {"motivations": [_STORES], "issuance_timestamps": [
        {**_STAMP, "timestamp": "2016-03-17"}]},
    {"motivations": [_STORES], "issuance_timestamps": [
        {**_STAMP, "timestamp": "2016-03-17T01:00:00+01:00"}]},
], ids=["string-for-list", "number-for-list", "number-in-list",
        "number-for-string", "number-for-fingerprint", "list-kind",
        "number-kind", "lone-surrogate", "motivations-not-a-list",
        "timestamps-not-a-list", "number-log-id", "number-timestamp",
        "timestamp-past-year-9999", "extra-motivation-key", "extra-top-key",
        "extra-timestamp-key", "bare-date", "offset-timestamp"])
def test_decoder_rejects_what_it_cannot_re_encode(doc):
    with pytest.raises(MalformedExtension):
        decode_xs_extension(json.dumps({"issuance_timestamps": [], **doc})
                            .encode())


def test_a_timestamp_before_year_1000_round_trips():
    ext = _ext(ExpandingTrust(("web",)),
               timestamps=[LogTimestamp("log-a", utc(999, 3, 17))])
    raw = encode_xs_extension(ext)
    assert b'"0999-03-17T00:00:00Z"' in raw
    assert decode_xs_extension(raw) == ext


_NAMES = st.sampled_from(
    ["motivations", "issuance_timestamps", "kind", "log_id", "timestamp",
     "bootstrapped_cert", "target_stores", "inclusion_request_ref",
     "fallback_for", "algorithm_set", "path_certs"])
_TAGS = st.sampled_from(
    ["bootstrapping", "expanding_trust", "fall_back", "multiple_algorithms",
     "quantum_migration", "0001-01-01T00:00:00Z", "2016-03-17T00:00:00+01:00",
     "9999-12-31T23:59:59-01:00"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | _TAGS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_NAMES | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@given(st.dictionaries(_NAMES, _JSON, max_size=3))
def test_any_json_object_decodes_or_is_malformed(doc):
    """Decoding raises nothing but MalformedExtension, and a canonical
    payload it accepts encodes back to the same bytes."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    try:
        ext = decode_xs_extension(payload)
    except MalformedExtension:
        return
    assert encode_xs_extension(ext) == payload


def random_extension(rng: random.Random) -> XsExtension:
    def fp():
        return "".join(rng.choice("0123456789abcdef") for _ in range(64))

    def stores():
        return tuple(f"store{rng.randrange(6)}"
                     for _ in range(rng.randrange(1, 4)))

    makers = [
        lambda: Bootstrapping(fp(), stores(), f"ticket-{rng.randrange(10**6)}"),
        lambda: ExpandingTrust(stores()),
        lambda: FallBack(stores(), fp()),
        lambda: MultipleAlgorithms(
            tuple(rng.choice(["sha1-rsa", "sha256-rsa", "ecdsa-sha384"])
                  for _ in range(rng.randrange(1, 4))),
            tuple(fp() for _ in range(rng.randrange(1, 4)))),
    ]
    motivations = tuple(rng.choice(makers)() for _ in range(rng.randrange(1, 4)))
    timestamps = tuple(
        LogTimestamp(f"log-{rng.randrange(9)}",
                     datetime.fromtimestamp(
                         rng.randrange(1_200_000_000, 1_700_000_000),
                         tz=timezone.utc))
        for _ in range(rng.randrange(0, 3)))
    return XsExtension(motivations=motivations, issuance_timestamps=timestamps)


def test_thousand_random_extensions_round_trip_byte_identically():
    rng = random.Random(2024)
    for _ in range(1000):
        ext = random_extension(rng)
        encoded = encode_xs_extension(ext)
        again = decode_xs_extension(encoded)
        assert again == ext
        assert encode_xs_extension(again) == encoded


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    ext = random_extension(random.Random(seed))
    assert decode_xs_extension(encode_xs_extension(ext)) == ext


# --- linting -------------------------------------------------------------------

def _lint_bundle():
    b = PkiBuilder("lint")
    b.root("root_a", "CN=Lint Root A, O=L", nb=utc(2000), na=utc(2040))
    b.root("root_b", "CN=Lint Root B, O=L", nb=utc(2000), na=utc(2040))
    b.root("newroot", "CN=Lint Newcomer Root, O=L", nb=utc(2015), na=utc(2040))
    b.ca("m1", "CN=Lint CA, O=L", issuer="root_a",
         nb=utc(2015, 1, 1), na=utc(2016, 1, 1))
    b.cross_sign("m2", "m1", issuer="root_b",
                 nb=utc(2015, 3, 1), na=utc(2025, 3, 1))
    b.store("web1", "web", [(utc(2005), ["root_a", "root_b"])])
    b.store("web2", "web", [(utc(2005), ["root_b"])])
    b.view("all")
    return b.realize(ScenarioSpec("lint"))


def _lint_group(group, run, coverage):
    return lint_cross_sign(group, run, coverage,
                           bool(find_revocation_inconsistency(group, run)))


def _lint(bundle, exts, *, stores=None, coverage=None, revocations=(),
          views=(), explanations=(), at=None):
    run, xs, _ = build_run(
        bundle.records, stores if stores is not None else bundle.stores,
        list(revocations) or bundle.revocations,
        list(views) or bundle.views, extensions=exts,
        explanations=explanations)
    if at is not None:
        run = replace(run, lint_at=at)
    group = next(g for g in xs
                 if g.spki_digest == bundle.record("m1").spki_digest)
    if coverage is None:
        coverage = {fp: {"web1", "web2"} for fp in group.members}
    return group, _lint_group(group, run, coverage)


def _codes(verdicts):
    return sorted({v.code for v in verdicts})


def test_v1_validity_too_long():
    bundle = _lint_bundle()
    ok_ext = {bundle.fp("m2"): _ext(ExpandingTrust(("web2",)))}
    _, verdicts = _lint(bundle, ok_ext)
    v1 = [v for v in verdicts if v.code == "V1"]
    assert [v.member for v in v1] == [bundle.fp("m2")]  # 10y > 398d
    # m1 is 365 days: inside the limit.


def test_v1_monotone_in_limit():
    bundle = _lint_bundle()
    exts = {bundle.fp("m2"): _ext(ExpandingTrust(("web2",)))}
    _, wide = _lint(bundle, exts)
    for limit in (3000, 398, 100, 4):
        run, xs, _ = build_run(
            bundle.records, bundle.stores, [], [],
            options=AnalysisOptions(max_validity_days=limit), extensions=exts)
        group = xs[0]
        verdicts = _lint_group(group, run, {})
        v1_members = {v.member for v in verdicts if v.code == "V1"}
        wide_members = {v.member for v in wide if v.code == "V1"}
        assert wide_members <= v1_members


def test_v2_missing_extension():
    bundle = _lint_bundle()
    _, verdicts = _lint(bundle, {})
    v2 = [v for v in verdicts if v.code == "V2"]
    assert [v.member for v in v2] == [bundle.fp("m2")]
    _, verdicts = _lint(bundle, {bundle.fp("m2"): _ext(ExpandingTrust(("web2",)))})
    assert not [v for v in verdicts if v.code == "V2"]


def test_v3_bootstrap_complete():
    bundle = _lint_bundle()
    newroot = bundle.fp("newroot")
    ext = {bundle.fp("m2"): _ext(Bootstrapping(newroot, ("web1",), "req-9"))}
    # Target store does not contain the bootstrapped root yet.
    _, verdicts = _lint(bundle, ext)
    assert "V3" not in _codes(verdicts)
    # Simulated inclusion: once the root lands in the target store, renewal
    # must stop.
    stores = [RootStoreTimeline("web1", "web", [
        StoreSnapshot(utc(2005), frozenset([bundle.fp("root_a"),
                                            bundle.fp("root_b")])),
        StoreSnapshot(utc(2020), frozenset([bundle.fp("root_a"),
                                            bundle.fp("root_b"), newroot])),
    ])]
    _, verdicts = _lint(bundle, ext, stores=stores, at=utc(2021))
    assert "V3" in _codes(verdicts)


def test_v4_redundant_expansion():
    bundle = _lint_bundle()
    m1, m2 = bundle.fp("m1"), bundle.fp("m2")
    exts = {m1: _ext(ExpandingTrust(("web2",))),
            m2: _ext(ExpandingTrust(("web2",)))}
    coverage = {m1: {"web1", "web2"}, m2: {"web1", "web2"}}
    _, verdicts = _lint(bundle, exts, coverage=coverage)
    v4 = [v for v in verdicts if v.code == "V4"]
    assert [v.member for v in v4] == [m2]  # the later-issued one
    # Derived check: drop the earlier member from coverage and the verdict
    # disappears.
    coverage = {m1: set(), m2: {"web1", "web2"}}
    _, verdicts = _lint(bundle, exts, coverage=coverage)
    assert "V4" not in _codes(verdicts)


def test_v4_fallback_members_excluded():
    bundle = _lint_bundle()
    m1, m2 = bundle.fp("m1"), bundle.fp("m2")
    exts = {m1: _ext(FallBack(("web2",), m2)),
            m2: _ext(ExpandingTrust(("web2",)))}
    _, verdicts = _lint(bundle, exts,
                        coverage={m1: {"web2"}, m2: {"web2"}})
    assert "V4" not in _codes(verdicts)


def test_v5_algorithm_path_impure():
    bundle = _lint_bundle()
    m2 = bundle.fp("m2")
    root_b = bundle.fp("root_b")  # ecdsa-sha256 in structural fixtures
    impure = {m2: _ext(MultipleAlgorithms(("sha512-rsa",), (root_b,)))}
    _, verdicts = _lint(bundle, impure)
    assert "V5" in _codes(verdicts)
    pure = {m2: _ext(MultipleAlgorithms(("ecdsa-sha256",), (root_b,)))}
    _, verdicts = _lint(bundle, pure)
    assert "V5" not in _codes(verdicts)


def test_v6_disjoint_logs():
    bundle = _lint_bundle()
    m1, m2 = bundle.fp("m1"), bundle.fp("m2")
    split = {
        m1: _ext(ExpandingTrust(("web1",)),
                 timestamps=[LogTimestamp("log-a", utc(2015, 1, 1))]),
        m2: _ext(ExpandingTrust(("web2",)),
                 timestamps=[LogTimestamp("log-b", utc(2015, 3, 1))]),
    }
    _, verdicts = _lint(bundle, split, coverage={})
    assert "V6" in _codes(verdicts)
    shared = {
        m1: _ext(ExpandingTrust(("web1",)),
                 timestamps=[LogTimestamp("log-a", utc(2015, 1, 1))]),
        m2: _ext(ExpandingTrust(("web2",)),
                 timestamps=[LogTimestamp("log-a", utc(2015, 3, 1)),
                             LogTimestamp("log-b", utc(2015, 3, 1))]),
    }
    _, verdicts = _lint(bundle, shared, coverage={})
    assert "V6" not in _codes(verdicts)


def test_v7_unexplained_inconsistency():
    bundle = generate(ScenarioSpec("globalsign", 1, "structural"))
    exts = {bundle.fp("ev_xs"): _ext(ExpandingTrust(("mozilla",)))}
    run, xs, _ = build_run(bundle.records, bundle.stores, bundle.revocations,
                           bundle.views, extensions=exts)
    ev_group = next(g for g in xs
                    if g.spki_digest == bundle.record("ev").spki_digest)
    verdicts = _lint_group(ev_group, run, {})
    assert "V7" in _codes(verdicts)
    group_key = f"{ev_group.subject}|{ev_group.spki_digest}"
    run = replace(run, explanations=frozenset([group_key]))
    verdicts = _lint_group(ev_group, run, {})
    assert "V7" not in _codes(verdicts)


def test_letsencrypt_bundle_lints_clean_until_inclusion(letsencrypt):
    from xsign.analysis import lint_corpus
    verdicts, _ = lint_corpus(letsencrypt.records, letsencrypt.stores,
                              letsencrypt.revocations, letsencrypt.views,
                              letsencrypt.operator_map,
                              extensions=letsencrypt.extensions)
    codes = _codes(verdicts)
    assert "V2" not in codes  # the cross-sign carries its declaration
    assert "V3" not in codes  # the subject's root is not in the stores yet
    assert "V1" in codes      # five-year member validities exceed 398 days


def test_importing_xsext_leaves_the_analyzers_unloaded():
    """V7 is given its finding, so the extension codec and the lints load
    without the finding analyzers."""
    src = str(Path(xsign.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, xsign.xsext; print('xsign.findings' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
