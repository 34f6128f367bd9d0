"""Certificate records: parsing PEM/DER and interchange JSON into one
normalized, immutable representation.

Two corpus-wide validation modes exist. Records parsed from encoded
certificates keep their raw bytes and support cryptographic signature
checks; records loaded from interchange JSON are metadata-only and support
structural (name-linkage) analysis, unless the DER they were written from
is attached (as a workspace does). Every signature check goes through
`verify_signature`, `ingest`'s too: a workspace records its answers, and
a later load seeds its memo with them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING, Any, Optional

from .names import NormalizedName, normalize_name, normalize_value
from .timeutil import format_rfc3339, parse_rfc3339, to_utc

# `cryptography` is imported inside the functions that decode DER/PEM or
# verify signatures, so that commands over interchange records, and over
# signatures recorded earlier, never load it.
if TYPE_CHECKING:
    from cryptography import x509


class MalformedInput(ValueError):
    """Input is not a decodable certificate / interchange record."""


class CryptoUnavailable(RuntimeError):
    """A cryptographic check was requested on a record without raw bytes."""


# Signature algorithm identifiers used across the toolkit.
_SIG_OID_TO_ID = {
    "1.2.840.113549.1.1.4": "md5-rsa",
    "1.2.840.113549.1.1.5": "sha1-rsa",
    "1.2.840.113549.1.1.11": "sha256-rsa",
    "1.2.840.113549.1.1.12": "sha384-rsa",
    "1.2.840.113549.1.1.13": "sha512-rsa",
    "1.2.840.10040.4.3": "sha1-dsa",
    "1.2.840.10045.4.1": "ecdsa-sha1",
    "1.2.840.10045.4.3.2": "ecdsa-sha256",
    "1.2.840.10045.4.3.3": "ecdsa-sha384",
    "1.2.840.10045.4.3.4": "ecdsa-sha512",
    "1.3.101.112": "ed25519",
    "1.3.101.113": "ed448",
}

# Extensions that may be critical without setting `unknown_critical`: the
# dotted strings of the cryptography.x509.ExtensionOID members named alongside
# (a test checks them against that enum).
_EXPECTED_EXTENSION_OIDS = {
    "2.5.29.19",                # BASIC_CONSTRAINTS
    "2.5.29.15",                # KEY_USAGE
    "2.5.29.30",                # NAME_CONSTRAINTS
    "2.5.29.17",                # SUBJECT_ALTERNATIVE_NAME
    "2.5.29.14",                # SUBJECT_KEY_IDENTIFIER
    "2.5.29.35",                # AUTHORITY_KEY_IDENTIFIER
    "2.5.29.37",                # EXTENDED_KEY_USAGE
    "2.5.29.32",                # CERTIFICATE_POLICIES
    "2.5.29.31",                # CRL_DISTRIBUTION_POINTS
    "1.3.6.1.5.5.7.1.1",        # AUTHORITY_INFORMATION_ACCESS
    "1.3.6.1.4.1.11129.2.4.2",  # PRECERT_SIGNED_CERTIFICATE_TIMESTAMPS
}


@dataclass(frozen=True)
class Subtree:
    """One name-constraint subtree matcher.

    kind 'dns' carries a lowercase domain suffix; 'dirname' carries a
    NormalizedName prefix; any other kind is recorded but not evaluated.
    """

    kind: str
    value: Any

    def to_json(self) -> dict:
        value = str(self.value) if isinstance(self.value, NormalizedName) else self.value
        return {"kind": self.kind, "value": value}

    @classmethod
    def from_json(cls, obj: dict) -> "Subtree":
        kind = obj["kind"]
        value = obj["value"]
        if kind == "dirname":
            value = normalize_name(value)
        elif kind == "dns":
            value = normalize_value(str(value))
        return cls(kind, value)


@dataclass(frozen=True)
class NameConstraints:
    """A CA's name constraints: permitted and excluded subtrees."""

    permitted: tuple[Subtree, ...]
    excluded: tuple[Subtree, ...]
    critical: bool

    def to_json(self) -> dict:
        return {
            "permitted": [s.to_json() for s in self.permitted],
            "excluded": [s.to_json() for s in self.excluded],
            "critical": self.critical,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NameConstraints":
        if not isinstance(obj, dict):
            raise ValueError("name_constraints must be an object")
        return cls(
            permitted=tuple(Subtree.from_json(s) for s in obj.get("permitted", [])),
            excluded=tuple(Subtree.from_json(s) for s in obj.get("excluded", [])),
            critical=bool(obj.get("critical", False)),
        )


@dataclass(frozen=True)
class CertRecord:
    """One parsed certificate, hashable by fingerprint."""

    fingerprint: str
    subject: NormalizedName
    issuer: NormalizedName
    spki_digest: str
    serial: str
    not_before: datetime
    not_after: datetime
    is_ca: bool
    path_len_constraint: Optional[int] = None
    name_constraints: Optional[NameConstraints] = None
    key_usages: frozenset[str] = frozenset()
    signature_algorithm: str = "sha256-rsa"
    self_signed: bool = False
    legacy_v1: bool = False
    unknown_critical: bool = False
    raw: Optional[bytes] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.not_before > self.not_after:
            raise MalformedInput(
                f"not_before after not_after for {self.fingerprint}")
        if self.self_signed and self.subject != self.issuer:
            raise MalformedInput(
                f"self_signed record with subject != issuer: {self.fingerprint}")

    def __hash__(self):
        return hash(self.fingerprint)

    @property
    def ca_capable(self) -> bool:
        """May act as an issuer: declared CA, or self-signed X509v1 legacy."""
        return self.is_ca or (self.legacy_v1 and self.self_signed)


# Interchange field names are part of the on-disk contract; unknown keys in
# incoming records are ignored.
_INTERCHANGE_REQUIRED = ("fingerprint", "subject", "issuer", "spki", "serial",
                         "not_before", "not_after", "is_ca")


def record_to_json(record: CertRecord) -> dict:
    """Serialize to the interchange dict (raw bytes are never included)."""
    return {
        "fingerprint": record.fingerprint,
        "subject": str(record.subject),
        "issuer": str(record.issuer),
        "spki": record.spki_digest,
        "serial": record.serial,
        "not_before": format_rfc3339(record.not_before),
        "not_after": format_rfc3339(record.not_after),
        "is_ca": record.is_ca,
        "path_len": record.path_len_constraint,
        "name_constraints": record.name_constraints.to_json() if record.name_constraints else None,
        "key_usages": sorted(record.key_usages),
        "sig_alg": record.signature_algorithm,
        "self_signed": record.self_signed,
        "legacy_v1": record.legacy_v1,
        "unknown_critical": record.unknown_critical,
    }


def record_from_json(obj: dict, raw: Optional[bytes] = None) -> CertRecord:
    """The record of an interchange dict; `raw`, when given, is the DER the
    dict was written from, kept for signature checks."""
    missing = [k for k in _INTERCHANGE_REQUIRED if k not in obj]
    if missing:
        raise MalformedInput(f"interchange record missing {missing}")
    try:
        nc = obj.get("name_constraints")
        usages = obj.get("key_usages") or []
        if not (isinstance(usages, list)
                and all(isinstance(u, str) for u in usages)):
            raise ValueError("key_usages must be a list of strings")
        path_len = obj.get("path_len")
        if path_len is not None and type(path_len) is not int:
            raise ValueError("path_len must be an integer")
        return CertRecord(
            fingerprint=str(obj["fingerprint"]).lower(),
            subject=normalize_name(obj["subject"]),
            issuer=normalize_name(obj["issuer"]),
            spki_digest=str(obj["spki"]).lower(),
            serial=str(obj["serial"]).lower(),
            not_before=parse_rfc3339(obj["not_before"]),
            not_after=parse_rfc3339(obj["not_after"]),
            is_ca=bool(obj["is_ca"]),
            path_len_constraint=path_len,
            name_constraints=NameConstraints.from_json(nc) if nc else None,
            key_usages=frozenset(usages),
            signature_algorithm=str(obj.get("sig_alg") or "unknown"),
            self_signed=bool(obj.get("self_signed", False)),
            legacy_v1=bool(obj.get("legacy_v1", False)),
            unknown_critical=bool(obj.get("unknown_critical", False)),
            raw=raw,
        )
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad interchange record: {exc}") from exc


def _name_from_x509(name: x509.Name) -> NormalizedName:
    rdns = []
    for rdn in name.rdns:
        pairs = []
        for attr in rdn:
            value = attr.value
            if isinstance(value, bytes):
                value = value.hex()
            pairs.append((attr.oid.dotted_string, value))
        rdns.append(pairs)
    return normalize_name(rdns)


def _subtrees_from_general_names(items) -> tuple[Subtree, ...]:
    from cryptography import x509
    out = []
    for gn in items or ():
        if isinstance(gn, x509.DNSName):
            out.append(Subtree("dns", normalize_value(gn.value.lstrip("."))))
        elif isinstance(gn, x509.DirectoryName):
            out.append(Subtree("dirname", _name_from_x509(gn.value)))
        elif isinstance(gn, x509.IPAddress):
            out.append(Subtree("ip", str(gn.value)))
        else:
            out.append(Subtree(gn.__class__.__name__.lower(), str(gn.value)))
    return tuple(out)


def _decode_x509(data: bytes) -> x509.Certificate:
    from cryptography import x509
    try:
        if b"-----BEGIN" in data:
            return x509.load_pem_x509_certificate(data)
        return x509.load_der_x509_certificate(data)
    except Exception as exc:
        raise MalformedInput(f"undecodable certificate: {exc}") from exc


def parse_certificate(data: bytes) -> CertRecord:
    """Parse PEM or DER bytes into a CertRecord.

    Unknown critical extensions never abort parsing; they set the
    record's `unknown_critical` flag (strict path evaluation rejects such
    certificates, default evaluation keeps them).
    """
    from cryptography import x509
    from cryptography.hazmat.primitives import serialization
    cert = _decode_x509(data)
    der = cert.public_bytes(serialization.Encoding.DER)
    spki = cert.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo)

    subject = _name_from_x509(cert.subject)
    issuer = _name_from_x509(cert.issuer)

    is_ca = False
    path_len = None
    name_constraints = None
    key_usages: set[str] = set()
    unknown_critical = False
    legacy_v1 = cert.version is x509.Version.v1

    for ext in cert.extensions:
        if isinstance(ext.value, x509.BasicConstraints):
            is_ca = ext.value.ca
            path_len = ext.value.path_length
        elif isinstance(ext.value, x509.KeyUsage):
            ku = ext.value
            flags = [
                ("digitalSignature", ku.digital_signature),
                ("contentCommitment", ku.content_commitment),
                ("keyEncipherment", ku.key_encipherment),
                ("dataEncipherment", ku.data_encipherment),
                ("keyAgreement", ku.key_agreement),
                ("certSign", ku.key_cert_sign),
                ("crlSign", ku.crl_sign),
            ]
            key_usages.update(name for name, on in flags if on)
        elif isinstance(ext.value, x509.NameConstraints):
            name_constraints = NameConstraints(
                permitted=_subtrees_from_general_names(ext.value.permitted_subtrees),
                excluded=_subtrees_from_general_names(ext.value.excluded_subtrees),
                critical=ext.critical,
            )
        elif ext.critical and ext.oid.dotted_string not in _EXPECTED_EXTENSION_OIDS:
            unknown_critical = True

    self_signed = subject == issuer and _verify_edge(cert, cert)
    # X509v1 has no basicConstraints at all; a self-signed v1 certificate is
    # treated as CA-capable (legacy trust-anchor behavior).
    if legacy_v1 and self_signed:
        is_ca = True

    sig_alg = _SIG_OID_TO_ID.get(
        cert.signature_algorithm_oid.dotted_string,
        cert.signature_algorithm_oid.dotted_string)

    return CertRecord(
        fingerprint=hashlib.sha256(der).hexdigest(),
        subject=subject,
        issuer=issuer,
        spki_digest=hashlib.sha256(spki).hexdigest(),
        serial=format(cert.serial_number, "x"),
        not_before=to_utc(cert.not_valid_before_utc),
        not_after=to_utc(cert.not_valid_after_utc),
        is_ca=is_ca,
        path_len_constraint=path_len,
        name_constraints=name_constraints,
        key_usages=frozenset(key_usages),
        signature_algorithm=sig_alg,
        self_signed=self_signed,
        legacy_v1=legacy_v1,
        unknown_critical=unknown_critical,
        raw=der,
    )


def load_pem_bundle(data: bytes) -> list[CertRecord]:
    """Parse every CERTIFICATE block in a PEM bundle."""
    records = []
    rest = data
    marker = b"-----END CERTIFICATE-----"
    while True:
        head, sep, rest = rest.partition(marker)
        if not sep:
            break
        block = head[head.find(b"-----BEGIN"):] + sep
        if block.strip():
            records.append(parse_certificate(block))
    return records


@functools.lru_cache(maxsize=4096)
def _load_cached(raw: bytes) -> x509.Certificate:
    return _decode_x509(raw)


def _verify_edge(child: x509.Certificate, issuer: x509.Certificate) -> bool:
    """Whether child's signature verifies under issuer's key; False also
    for a key or signature algorithm `cryptography` does not support."""
    from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
    from cryptography.hazmat.primitives.asymmetric import (dsa, ec, ed448, ed25519,
                                                           padding, rsa)
    data = child.tbs_certificate_bytes
    sig = child.signature
    try:
        pub = issuer.public_key()
        if isinstance(pub, rsa.RSAPublicKey):
            pub.verify(sig, data, padding.PKCS1v15(), child.signature_hash_algorithm)
        elif isinstance(pub, ec.EllipticCurvePublicKey):
            pub.verify(sig, data, ec.ECDSA(child.signature_hash_algorithm))
        elif isinstance(pub, dsa.DSAPublicKey):
            pub.verify(sig, data, child.signature_hash_algorithm)
        elif isinstance(pub, (ed25519.Ed25519PublicKey, ed448.Ed448PublicKey)):
            pub.verify(sig, data)
        else:
            return False
        return True
    except (InvalidSignature, UnsupportedAlgorithm):
        return False


def _verify_der(child_raw: bytes, issuer_raw: bytes) -> bool:
    return _verify_edge(_load_cached(child_raw), _load_cached(issuer_raw))


# Whether a child's signature verifies under an issuer candidate's key,
# keyed on the two fingerprints, which are the digests of their DER: an
# edge is verified once however many paths and groups reach it. A workspace
# seeds it with the answers `ingest` recorded (`remember_signatures`).
_SIGNATURES: dict[tuple[str, str], bool] = {}


def verify_signature(child: CertRecord, issuer_candidate: CertRecord) -> bool:
    """True iff child's signature verifies under the candidate's public key.

    Raises CryptoUnavailable when either record lacks raw bytes; callers in
    structural mode must not reach this.
    """
    if child.raw is None or issuer_candidate.raw is None:
        raise CryptoUnavailable(
            "signature verification requires raw certificate bytes")
    key = (child.fingerprint, issuer_candidate.fingerprint)
    verified = _SIGNATURES.get(key)
    if verified is None:
        verified = _SIGNATURES[key] = _verify_der(child.raw,
                                                  issuer_candidate.raw)
    return verified


def remember_signatures(table: dict[tuple[str, str], bool]) -> None:
    """Seed `verify_signature`'s memo with results taken earlier, keyed
    (child, issuer) fingerprint as the memo is."""
    _SIGNATURES.update(table)


def dns_identities(record: CertRecord) -> list[str]:
    """DNS-name identities of a certificate for name-constraint checks.

    Interchange records carry no SAN, so hostname-shaped common-name values
    stand in for DNS identities.
    """
    out = []
    for value in record.subject.attr_values("cn"):
        label = value.strip().lower()
        if "." in label and " " not in label and all(
                c.isalnum() or c in ".-*_" for c in label):
            out.append(label)
    return out

