import json
import shutil
import subprocess

import pytest

from xsign import certmodel
from xsign.certmodel import (CryptoUnavailable, MalformedInput,
                             parse_certificate, record_from_json, record_to_json,
                             verify_signature)
from xsign.corpus import SCENARIOS, ScenarioSpec, generate


def test_self_signed_v3_ca(figure1_crypto):
    root = figure1_crypto.record("R1")
    assert root.is_ca
    assert root.self_signed
    assert root.subject == root.issuer
    assert not root.legacy_v1


def test_interchange_rejects_inverted_validity():
    obj = {
        "fingerprint": "ab" * 32, "subject": "CN=x", "issuer": "CN=x",
        "spki": "cd" * 32, "serial": "1",
        "not_before": "2020-01-01T00:00:00Z",
        "not_after": "2019-01-01T00:00:00Z",
        "is_ca": False,
    }
    with pytest.raises(MalformedInput):
        record_from_json(obj)


def test_interchange_rejects_inconsistent_self_signed():
    obj = {
        "fingerprint": "ab" * 32, "subject": "CN=x", "issuer": "CN=y",
        "spki": "cd" * 32, "serial": "1",
        "not_before": "2019-01-01T00:00:00Z",
        "not_after": "2020-01-01T00:00:00Z",
        "is_ca": False, "self_signed": True,
    }
    with pytest.raises(MalformedInput):
        record_from_json(obj)


def test_undecodable_input():
    with pytest.raises(MalformedInput):
        parse_certificate(b"not a certificate")


def test_interchange_unknown_keys_ignored(figure1):
    obj = record_to_json(figure1.record("L1"))
    obj["future_field"] = {"x": 1}
    assert record_from_json(obj) == figure1.record("L1")


def test_interchange_round_trip_idempotent(figure1_crypto):
    # Everything except raw bytes, which records do not compare, survives
    # JSON interchange.
    for record in figure1_crypto.records:
        back = record_from_json(json.loads(json.dumps(record_to_json(record))))
        assert back.raw is None
        assert back == record
        assert record_to_json(back) == record_to_json(record)
    # A workspace builds a record with raw bytes from its JSON alone, so the
    # JSON must carry everything the DER's parse does, in every scenario.
    specs = [ScenarioSpec(s, 1, "cryptographic") for s in sorted(SCENARIOS)
             if s != "random"]
    specs += [ScenarioSpec("random", seed, "cryptographic", params={"n": 150})
              for seed in (1, 2, 3)]
    checked = 0
    for spec in specs:
        for record in generate(spec).records:
            back = record_from_json(json.loads(json.dumps(
                record_to_json(record))))
            assert back == parse_certificate(record.raw), (spec, record)
            checked += 1
    assert checked > 500


@pytest.mark.skipif(shutil.which("openssl") is None,
                    reason="openssl CLI not installed")
def test_generated_leaf_against_standard_tooling(figure1_crypto):
    # Independent decode of the same DER bytes via the openssl CLI.
    leaf = figure1_crypto.record("L1")
    ca = figure1_crypto.record("I1")
    assert leaf.issuer == ca.subject
    assert verify_signature(leaf, ca)

    out = subprocess.run(
        ["openssl", "x509", "-inform", "DER", "-noout", "-serial",
         "-fingerprint", "-sha256", "-dates"],
        input=leaf.raw, capture_output=True, check=True).stdout.decode()
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["serial"].lower().lstrip("0") == leaf.serial.lstrip("0")
    openssl_fp = fields["sha256 Fingerprint"].replace(":", "").lower()
    assert openssl_fp == leaf.fingerprint
    # openssl prints validity as e.g. "Jan  1 00:00:00 2015 GMT"
    from datetime import datetime, timezone
    nb = datetime.strptime(fields["notBefore"], "%b %d %H:%M:%S %Y %Z").replace(
        tzinfo=timezone.utc)
    assert nb == leaf.not_before


def test_verify_rejects_same_name_different_key(figure1_crypto):
    # R1 and R2 carry different keys; a chain edge between unrelated certs
    # must fail even though both are plausible CA records.
    leaf = figure1_crypto.record("L1")
    wrong = figure1_crypto.record("R2")
    assert not verify_signature(leaf, wrong)


def test_mutual_cross_sign_edges_verify(mutual_crypto):
    b = mutual_crypto
    edges = [("R1x", "R2"), ("R1x", "R2x"), ("R2x", "R1"), ("R2x", "R1x")]
    for child, issuer in edges:
        assert verify_signature(b.record(child), b.record(issuer)), (child, issuer)


def test_verify_requires_raw_bytes(figure1):
    leaf = figure1.record("L1")
    root = figure1.record("R1")
    with pytest.raises(CryptoUnavailable):
        verify_signature(leaf, root)


def _der_tlv(tag, value):
    n = len(value)
    if n < 0x80:
        length = bytes([n])
    else:
        body = n.to_bytes((n.bit_length() + 7) // 8, "big")
        length = bytes([0x80 | len(body)]) + body
    return bytes([tag]) + length + value


def _der_split(data):
    # Split concatenated DER elements into (tag, whole element, contents).
    items, pos = [], 0
    while pos < len(data):
        n, start = data[pos + 1], pos + 2
        if n & 0x80:
            start += n & 0x7F
            n = int.from_bytes(data[pos + 2:start], "big")
        items.append((data[pos], data[pos:start + n], data[start:start + n]))
        pos = start + n
    return items


def _self_signed_v1_der():
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID
    from datetime import datetime, timezone

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "Old Root")])
    v3 = (x509.CertificateBuilder()
          .subject_name(name).issuer_name(name)
          .public_key(key.public_key()).serial_number(1)
          .not_valid_before(datetime(2000, 1, 1, tzinfo=timezone.utc))
          .not_valid_after(datetime(2030, 1, 1, tzinfo=timezone.utc))
          .sign(key, hashes.SHA256())
          .public_bytes(serialization.Encoding.DER))
    # Certificate ::= SEQUENCE { tbsCertificate, signatureAlgorithm, signature }
    (_, _, body), = _der_split(v3)
    (_, _, tbs_body), (_, sig_alg, _), _ = _der_split(body)
    # Drop the leading "[0] EXPLICIT version"; absent means v1 (RFC 5280
    # 4.1.2.1), then sign the new TBSCertificate with the same key.
    fields = _der_split(tbs_body)
    assert fields[0][0] == 0xA0
    tbs = _der_tlv(0x30, b"".join(whole for _, whole, _ in fields[1:]))
    signature = key.sign(tbs, ec.ECDSA(hashes.SHA256()))
    return _der_tlv(0x30, tbs + sig_alg + _der_tlv(0x03, b"\x00" + signature))


def test_legacy_v1_self_signed_is_ca_capable():
    # The v1 fixture is assembled by hand: cryptography's builder always
    # writes v3, and OpenSSL >= 3.0 adds SKI/AKI (hence v3) on `x509 -req`.
    from cryptography import x509

    der = _self_signed_v1_der()
    cert = x509.load_der_x509_certificate(der)
    assert cert.version is x509.Version.v1
    assert len(cert.extensions) == 0
    record = parse_certificate(der)
    assert record.legacy_v1
    assert record.self_signed
    assert record.is_ca


def test_each_issuer_edge_is_verified_once(figure1_crypto, monkeypatch):
    import hashlib
    from collections import Counter
    from cryptography.hazmat.primitives import serialization
    from xsign import certmodel, pathengine, xsdetect
    from xsign.analysis import AnalysisOptions, analyze_corpus, lint_corpus

    def fingerprint(cert):
        return hashlib.sha256(
            cert.public_bytes(serialization.Encoding.DER)).hexdigest()

    verified, requested = Counter(), Counter()
    verify_edge = certmodel._verify_edge

    def counting_edge(child, issuer):
        verified[fingerprint(child), fingerprint(issuer)] += 1
        return verify_edge(child, issuer)

    def counting_request(child, issuer_candidate):
        requested[child.fingerprint, issuer_candidate.fingerprint] += 1
        return certmodel.verify_signature(child, issuer_candidate)

    monkeypatch.setattr(certmodel, "_verify_edge", counting_edge)
    for module in (pathengine, xsdetect):
        monkeypatch.setattr(module, "verify_signature", counting_request)
    monkeypatch.setattr(certmodel, "_SIGNATURES", {})
    b = figure1_crypto
    options = AnalysisOptions(mode="cryptographic")
    analyze_corpus(b.records, b.stores, b.revocations, b.views,
                   b.operator_map, options)
    lint_corpus(b.records, b.stores, b.revocations, b.views,
                b.operator_map, options, b.extensions)
    # Paths, groups and lint ask for the same edges many times over.
    assert sum(requested.values()) > len(requested)
    assert verified == Counter(dict.fromkeys(requested, 1))


def test_verify_rejects_child_resigned_by_another_key(figure1_crypto):
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec

    child, issuer = figure1_crypto.record("L1"), figure1_crypto.record("I1")
    assert verify_signature(child, issuer)  # the good edge is cached
    # Same TBSCertificate, signed by a key that is not the issuer's.
    (_, _, body), = _der_split(child.raw)
    (_, tbs, _), (_, sig_alg, _), _ = _der_split(body)
    signature = ec.generate_private_key(ec.SECP256R1()).sign(
        tbs, ec.ECDSA(hashes.SHA256()))
    forged = parse_certificate(
        _der_tlv(0x30, tbs + sig_alg + _der_tlv(0x03, b"\x00" + signature)))
    assert forged.issuer == child.issuer
    assert forged.fingerprint != child.fingerprint
    assert not verify_signature(forged, issuer)
    assert verify_signature(child, issuer)


def test_unknown_critical_extension_flagged_not_fatal():
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID, ObjectIdentifier
    from datetime import datetime, timezone

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "Odd CA")])
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key()).serial_number(8)
            .not_valid_before(datetime(2020, 1, 1, tzinfo=timezone.utc))
            .not_valid_after(datetime(2030, 1, 1, tzinfo=timezone.utc))
            .add_extension(x509.BasicConstraints(ca=True, path_length=None),
                           critical=True)
            .add_extension(x509.UnrecognizedExtension(
                ObjectIdentifier("1.2.3.4.5.6.7.8.1"), b"\x01"), critical=True)
            .sign(key, hashes.SHA256()))
    record = parse_certificate(cert.public_bytes(serialization.Encoding.DER))
    assert record.unknown_critical
    assert record.is_ca


def test_expected_extension_oids_match_cryptography():
    from cryptography.x509 import ExtensionOID
    names = ("BASIC_CONSTRAINTS", "KEY_USAGE", "NAME_CONSTRAINTS",
             "SUBJECT_ALTERNATIVE_NAME", "SUBJECT_KEY_IDENTIFIER",
             "AUTHORITY_KEY_IDENTIFIER", "EXTENDED_KEY_USAGE",
             "CERTIFICATE_POLICIES", "CRL_DISTRIBUTION_POINTS",
             "AUTHORITY_INFORMATION_ACCESS",
             "PRECERT_SIGNED_CERTIFICATE_TIMESTAMPS")
    assert certmodel._EXPECTED_EXTENSION_OIDS == {
        getattr(ExtensionOID, name).dotted_string for name in names}
