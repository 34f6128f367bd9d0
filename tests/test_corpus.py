import json

import pytest

from xsign.certmodel import verify_signature
from xsign.corpus import SCENARIOS, ScenarioSpec, UnknownScenario, generate
from xsign.pathengine import build_index
from xsign.workspace import Workspace


def _bundle_bytes(tmp_path, name, spec):
    out = tmp_path / name
    generate(spec).write(out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_identical_spec_gives_byte_identical_bundles(tmp_path):
    spec = ScenarioSpec("certinomis", 1, "structural")
    a = _bundle_bytes(tmp_path, "a", spec)
    b = _bundle_bytes(tmp_path, "b", spec)
    assert a == b


def test_random_scenario_seed_determinism(tmp_path):
    spec = ScenarioSpec("random", 7, "structural", params={"n": 120})
    a = _bundle_bytes(tmp_path, "ra", spec)
    b = _bundle_bytes(tmp_path, "rb", spec)
    assert a == b
    other = _bundle_bytes(tmp_path, "rc",
                          ScenarioSpec("random", 8, "structural",
                                       params={"n": 120}))
    assert a["certs.jsonl"] != other["certs.jsonl"]


def test_figure1_topology_counts(figure1):
    roots = [r for r in figure1.records if r.self_signed]
    cas = [r for r in figure1.records if r.is_ca and not r.self_signed]
    leaves = [r for r in figure1.records if not r.is_ca]
    assert len(roots) == 3
    assert len(cas) == 6  # five intermediates plus one cross-sign
    assert len(leaves) == 6
    i5_key = figure1.record("I5").spki_digest
    assert sum(r.spki_digest == i5_key for r in figure1.records) == 2


def test_figure1_topology_independent_of_seed():
    a = generate(ScenarioSpec("figure1", 1, "structural"))
    b = generate(ScenarioSpec("figure1", 999, "structural"))
    assert [r.fingerprint for r in a.records] == [r.fingerprint for r in b.records]


def test_random_cryptographic_every_edge_verifies():
    bundle = generate(ScenarioSpec("random", 7, "cryptographic",
                                   params={"n": 200, "xs_rate": 0.3}))
    index = build_index(bundle.records)
    missing = 0
    for record in bundle.records:
        if record.self_signed:
            assert verify_signature(record, record)
            continue
        parents = [p for p in index.issuers_of(record)
                   if verify_signature(record, p)]
        assert parents, f"no verifying issuer for {record.fingerprint}"
    assert len(bundle.records) == 200


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        generate(ScenarioSpec("does-not-exist", 1, "structural"))


def _by_fingerprint(records):
    return sorted(records, key=lambda r: r.fingerprint)


def test_every_scenario_generates_and_reloads(tmp_path):
    # The route the CLI takes: `scenario` writes the bundle, `ingest` reads it.
    for scenario_id in sorted(SCENARIOS):
        params = {"n": 40} if scenario_id == "random" else {}
        bundle = generate(ScenarioSpec(scenario_id, 3, "structural",
                                       params=params))
        assert bundle.records
        out = tmp_path / scenario_id
        bundle.write(out)
        ws = Workspace(tmp_path / f"{scenario_id}-ws")
        ws.ingest_paths([out], "jsonl")
        assert _by_fingerprint(ws.load_records()) == _by_fingerprint(bundle.records)
        assert {s.store_id: s for s in ws.load_stores()} == {
            s.store_id: s for s in bundle.stores}
        assert ws.load_revocations() == bundle.revocations
        assert ws.load_views() == bundle.views
        assert ws.load_extensions() == bundle.extensions
        if bundle.operator_map is not None:
            assert ws.load_operator_map().to_json() == bundle.operator_map.to_json()


def test_cryptographic_bundle_reload_keeps_raw(tmp_path, figure1_crypto):
    out = tmp_path / "fig1c"
    figure1_crypto.write(out)
    ws = Workspace(tmp_path / "ws")
    ws.ingest_paths([p for p in sorted(out.iterdir()) if p.name != "certs.jsonl"],
                    "pem")
    again = ws.load_records()
    assert all(r.raw is not None for r in again)
    assert _by_fingerprint(again) == _by_fingerprint(figure1_crypto.records)
    assert sorted(r.raw for r in again) == sorted(
        r.raw for r in figure1_crypto.records)


def test_cryptographic_pem_is_each_record_der_as_pem(tmp_path, figure1_crypto):
    # certs.pem is written from the DER without parsing it: the bytes are
    # cryptography's own PEM encoding, in fingerprint order.
    from cryptography import x509
    from cryptography.hazmat.primitives.serialization import Encoding
    figure1_crypto.write(tmp_path)
    assert (tmp_path / "certs.pem").read_bytes() == b"".join(
        x509.load_der_x509_certificate(r.raw).public_bytes(Encoding.PEM)
        for r in sorted(figure1_crypto.records, key=lambda r: r.fingerprint))


def test_scenario_notes_document_date_conventions(certinomis, diginotar):
    assert "2017-04-13" in certinomis.notes["dates"]
    assert "2013-08-01" in diginotar.notes["dates"]
