"""Deterministic synthetic-PKI generator.

Named scenarios reproduce well-documented cross-signing incidents and
patterns (Certinomis/StartCom, DigiNotar, Actalis, the Federal PKI, the
Swiss government CAs, Let's Encrypt, AddTrust backdating, algorithm
transitions, ownership chains) at the fidelity needed for analysis:
topology, validity windows, store timelines, revocation feeds and operator
data. Where public timelines give only a month or year, the chosen day is
recorded in the bundle's notes.

`random` generates seeded corpora (Mersenne Twister via random.Random;
only randrange/random/choice are used, so structural bundles are
byte-reproducible). Cryptographic mode emits genuinely signed certificates;
key bytes differ between runs but topology and dates do not.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from .certmodel import (CertRecord, NameConstraints, Subtree, parse_certificate,
                        record_to_json)
from .names import normalize_name
from .revocation import (Fingerprint, IssuerSerial, RevocationRecord,
                         RevocationSource, RevocationView, SpkiDigest)
from .timeutil import utc
from .truststore import (DistrustRule, OperatorMap, OperatorSpan,
                         OwnershipEvent, RootStoreTimeline, StoreSnapshot)
from .xsext import (Bootstrapping, LogTimestamp, XsExtension,
                    encode_xs_extension)

# `cryptography` is imported inside the cryptographic builder, so that
# generating a structural bundle never loads it.
if TYPE_CHECKING:
    from cryptography import x509


class UnknownScenario(KeyError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """Which scenario to build, with its seed, mode and parameters."""

    scenario_id: str
    seed: int = 1
    mode: str = "structural"
    params: dict = field(default_factory=dict)


@dataclass
class Bundle:
    """A built scenario: its certificates, configs and notes."""

    scenario_id: str
    seed: int
    mode: str
    records: list[CertRecord]
    stores: list[RootStoreTimeline]
    revocations: list[RevocationRecord]
    operator_map: Optional[OperatorMap]
    views: list[RevocationView]
    extensions: dict[str, XsExtension]
    labels: dict[str, str]          # builder label -> fingerprint
    notes: dict[str, str]

    def fp(self, label: str) -> str:
        return self.labels[label]

    def record(self, label: str) -> CertRecord:
        fp = self.labels[label]
        return next(r for r in self.records if r.fingerprint == fp)

    def write(self, out_dir: Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "certs.jsonl", "w", encoding="utf-8") as fh:
            for record in sorted(self.records, key=lambda r: r.fingerprint):
                fh.write(json.dumps(record_to_json(record), sort_keys=True) + "\n")
        if self.mode == "cryptographic":
            from cryptography.hazmat.primitives.serialization import Encoding
            from .certmodel import _load_cached
            with open(out / "certs.pem", "wb") as fh:
                for record in sorted(self.records, key=lambda r: r.fingerprint):
                    fh.write(_load_cached(record.raw).public_bytes(Encoding.PEM))
        with open(out / "stores.json", "w", encoding="utf-8") as fh:
            json.dump({"stores": [s.to_json() for s in self.stores]},
                      fh, sort_keys=True, indent=1)
        with open(out / "revocations.jsonl", "w", encoding="utf-8") as fh:
            for rec in self.revocations:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
        if self.operator_map is not None:
            with open(out / "operators.json", "w", encoding="utf-8") as fh:
                json.dump(self.operator_map.to_json(), fh, sort_keys=True, indent=1)
        with open(out / "views.json", "w", encoding="utf-8") as fh:
            json.dump({"views": [v.to_json() for v in self.views]},
                      fh, sort_keys=True, indent=1)
        if self.extensions:
            with open(out / "extensions.jsonl", "w", encoding="utf-8") as fh:
                for member in sorted(self.extensions):
                    doc = json.loads(encode_xs_extension(self.extensions[member]))
                    fh.write(json.dumps({"member": member, "extension": doc},
                                        sort_keys=True) + "\n")
        with open(out / "scenario.json", "w", encoding="utf-8") as fh:
            json.dump({"scenario_id": self.scenario_id, "seed": self.seed,
                       "mode": self.mode, "notes": self.notes},
                      fh, sort_keys=True, indent=1)


# --- builder -------------------------------------------------------------------

_SIG_DEFAULT = "ecdsa-sha256"

_SIG_TO_KEYTYPE = {
    "sha1-rsa": "rsa", "sha256-rsa": "rsa", "sha384-rsa": "rsa",
    "sha512-rsa": "rsa",
    "ecdsa-sha1": "ec256", "ecdsa-sha256": "ec256", "ecdsa-sha384": "ec384",
    "ecdsa-sha512": "ec256",
}
# Modern toolchains refuse SHA-1 signatures; cryptographic mode substitutes
# SHA-256 and the parsed record reflects that.
_SIG_TO_HASH = {
    "sha1-rsa": "SHA256", "sha256-rsa": "SHA256",
    "sha384-rsa": "SHA384", "sha512-rsa": "SHA512",
    "ecdsa-sha1": "SHA256", "ecdsa-sha256": "SHA256",
    "ecdsa-sha384": "SHA384", "ecdsa-sha512": "SHA512",
}

_NAME_OIDS = {"cn": "2.5.4.3", "o": "2.5.4.10", "ou": "2.5.4.11", "c": "2.5.4.6"}


@dataclass
class _CertSpec:
    """A certificate to build: its names, key, validity and extensions."""

    label: str
    subject: str
    issuer_label: Optional[str]     # None -> self-signed
    key_label: str
    not_before: datetime
    not_after: datetime
    is_ca: bool
    path_len: Optional[int] = None
    name_constraints: Optional[NameConstraints] = None
    sig_alg: str = _SIG_DEFAULT
    serial: int = 0


class PkiBuilder:
    """Declarative synthetic-PKI assembly; realized per mode."""

    def __init__(self, scenario_id: str):
        self.scenario_id = scenario_id
        self.specs: dict[str, _CertSpec] = {}
        self._counter = 0

    def cert(self, label: str, subject: str, *, issuer: Optional[str] = None,
             key: Optional[str] = None, nb: datetime, na: datetime,
             is_ca: bool = False, path_len: Optional[int] = None,
             name_constraints: Optional[NameConstraints] = None,
             sig_alg: str = _SIG_DEFAULT) -> str:
        if label in self.specs:
            raise ValueError(f"duplicate label {label}")
        if issuer is not None and issuer not in self.specs:
            raise ValueError(f"issuer {issuer} not defined before {label}")
        self._counter += 1
        self.specs[label] = _CertSpec(
            label=label, subject=subject, issuer_label=issuer,
            key_label=key or label, not_before=nb, not_after=na,
            is_ca=is_ca, path_len=path_len, name_constraints=name_constraints,
            sig_alg=sig_alg, serial=0x1000 + self._counter)
        return label

    def root(self, label: str, subject: str, *, nb: datetime, na: datetime,
             **kw) -> str:
        return self.cert(label, subject, issuer=None, nb=nb, na=na,
                         is_ca=True, **kw)

    def ca(self, label: str, subject: str, *, issuer: str, nb: datetime,
           na: datetime, **kw) -> str:
        return self.cert(label, subject, issuer=issuer, nb=nb, na=na,
                         is_ca=True, **kw)

    def leaf(self, label: str, subject: str, *, issuer: str, nb: datetime,
             na: datetime, **kw) -> str:
        return self.cert(label, subject, issuer=issuer, nb=nb, na=na,
                         is_ca=False, **kw)

    def cross_sign(self, label: str, of: str, *, issuer: str, nb: datetime,
                   na: datetime, sig_alg: str = _SIG_DEFAULT,
                   name_constraints: Optional[NameConstraints] = None) -> str:
        """Same subject and key as `of`, different issuer and signature."""
        orig = self.specs[of]
        return self.cert(label, orig.subject, issuer=issuer, key=orig.key_label,
                         nb=nb, na=na, is_ca=orig.is_ca, path_len=orig.path_len,
                         name_constraints=name_constraints or orig.name_constraints,
                         sig_alg=sig_alg)

    # -- realization --

    def _structural_record(self, spec: _CertSpec) -> CertRecord:
        issuer_subject = (self.specs[spec.issuer_label].subject
                          if spec.issuer_label else spec.subject)
        fp = hashlib.sha256(
            f"{self.scenario_id}:cert:{spec.label}".encode()).hexdigest()
        spki = hashlib.sha256(
            f"{self.scenario_id}:key:{spec.key_label}".encode()).hexdigest()
        return CertRecord(
            fingerprint=fp,
            subject=normalize_name(spec.subject),
            issuer=normalize_name(issuer_subject),
            spki_digest=spki,
            serial=format(spec.serial, "x"),
            not_before=spec.not_before,
            not_after=spec.not_after,
            is_ca=spec.is_ca,
            path_len_constraint=spec.path_len,
            name_constraints=spec.name_constraints,
            key_usages=frozenset({"certSign", "crlSign"}) if spec.is_ca
            else frozenset({"digitalSignature"}),
            signature_algorithm=spec.sig_alg,
            self_signed=spec.issuer_label is None,
        )

    @staticmethod
    def _x509_name(subject: str) -> x509.Name:
        from cryptography import x509
        from cryptography.x509.oid import ObjectIdentifier
        attrs = []
        for part in subject.split(","):
            attr_type, _, value = part.strip().partition("=")
            oid = _NAME_OIDS.get(attr_type.strip().lower())
            if oid is None:
                raise ValueError(f"unsupported attribute in fixture name: {part}")
            attrs.append(x509.NameAttribute(ObjectIdentifier(oid), value.strip()))
        return x509.Name(attrs)

    def _make_key(self, sig_alg: str):
        from cryptography.hazmat.primitives.asymmetric import ec, rsa
        kind = _SIG_TO_KEYTYPE.get(sig_alg, "ec256")
        if kind == "rsa":
            return rsa.generate_private_key(65537, 2048)
        if kind == "ec384":
            return ec.generate_private_key(ec.SECP384R1())
        return ec.generate_private_key(ec.SECP256R1())

    def _cryptographic_records(self) -> dict[str, CertRecord]:
        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization
        keys: dict[str, object] = {}
        # A key must suit every signature algorithm requested of its owner
        # as an issuer; the first issuance (or the cert's own algorithm for
        # never-issuing keys) decides the key type.
        demanded: dict[str, str] = {}
        for spec in self.specs.values():
            issuer_key = (self.specs[spec.issuer_label].key_label
                          if spec.issuer_label else spec.key_label)
            demanded.setdefault(issuer_key, spec.sig_alg)
        records: dict[str, CertRecord] = {}
        for spec in self.specs.values():
            if spec.key_label not in keys:
                keys[spec.key_label] = self._make_key(
                    demanded.get(spec.key_label, _SIG_DEFAULT))
            issuer_spec = self.specs[spec.issuer_label] if spec.issuer_label else spec
            if issuer_spec.key_label not in keys:
                keys[issuer_spec.key_label] = self._make_key(
                    demanded.get(issuer_spec.key_label, _SIG_DEFAULT))
            builder = (x509.CertificateBuilder()
                       .subject_name(self._x509_name(spec.subject))
                       .issuer_name(self._x509_name(issuer_spec.subject))
                       .public_key(keys[spec.key_label].public_key())
                       .serial_number(spec.serial)
                       .not_valid_before(spec.not_before)
                       .not_valid_after(spec.not_after))
            builder = builder.add_extension(
                x509.BasicConstraints(ca=spec.is_ca, path_length=spec.path_len),
                critical=True)
            if spec.is_ca:
                builder = builder.add_extension(
                    x509.KeyUsage(digital_signature=True, content_commitment=False,
                                  key_encipherment=False, data_encipherment=False,
                                  key_agreement=False, key_cert_sign=True,
                                  crl_sign=True, encipher_only=False,
                                  decipher_only=False),
                    critical=True)
            if spec.name_constraints is not None:
                permitted = [_subtree_to_general_name(s)
                             for s in spec.name_constraints.permitted] or None
                excluded = [_subtree_to_general_name(s)
                            for s in spec.name_constraints.excluded] or None
                builder = builder.add_extension(
                    x509.NameConstraints(permitted_subtrees=permitted,
                                         excluded_subtrees=excluded),
                    critical=spec.name_constraints.critical)
            hash_cls = getattr(hashes, _SIG_TO_HASH.get(spec.sig_alg, "SHA256"))
            cert = builder.sign(keys[issuer_spec.key_label], hash_cls())
            records[spec.label] = parse_certificate(
                cert.public_bytes(serialization.Encoding.DER))
        return records

    def build(self, mode: str) -> dict[str, CertRecord]:
        if mode == "cryptographic":
            return self._cryptographic_records()
        return {label: self._structural_record(spec)
                for label, spec in self.specs.items()}


def _subtree_to_general_name(subtree: Subtree):
    from cryptography import x509
    if subtree.kind == "dns":
        return x509.DNSName(str(subtree.value))
    if subtree.kind == "dirname":
        return x509.DirectoryName(PkiBuilder._x509_name(str(subtree.value)))
    raise ValueError(f"unsupported subtree kind {subtree.kind}")


# --- scenario definition layer ---------------------------------------------

@dataclass
class ScenarioDef:
    """A scenario's PKI and the configs to write beside it."""

    builder: PkiBuilder
    store_specs: list[dict] = field(default_factory=list)
    revocation_specs: list[dict] = field(default_factory=list)
    operator_spans: list[dict] = field(default_factory=list)
    ownership_events: list[dict] = field(default_factory=list)
    views: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    extension_specs: list[dict] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    def store(self, store_id: str, store_class: str,
              snapshots: list[tuple[datetime, list[str]]],
              rules: list[dict] = ()) -> None:
        self.store_specs.append({
            "store_id": store_id, "store_class": store_class,
            "snapshots": snapshots, "rules": list(rules)})

    def revoke(self, source_kind: str, source_name: str, selector_type: str,
               label: str, effective: datetime, reason: Optional[str] = None):
        self.revocation_specs.append({
            "kind": source_kind, "name": source_name, "type": selector_type,
            "label": label, "effective": effective, "reason": reason})

    def view(self, consumer_id: str, *sources: str):
        self.views.append((consumer_id, sources))

    def realize(self, spec: ScenarioSpec) -> Bundle:
        records = self.builder.build(spec.mode)
        fp = {label: rec.fingerprint for label, rec in records.items()}
        stores = []
        for st in self.store_specs:
            rules = [DistrustRule(
                anchors=frozenset(fp[lb] for lb in rule.get("anchors", [])),
                anchor_subjects=tuple(normalize_name(s)
                                      for s in rule.get("anchor_subjects", [])),
                issued_after=rule["issued_after"],
                effective_from=rule["effective_from"],
                description=rule.get("description", ""),
            ) for rule in st["rules"]]
            stores.append(RootStoreTimeline(
                store_id=st["store_id"], store_class=st["store_class"],
                snapshots=[StoreSnapshot(date, frozenset(fp[lb] for lb in roots))
                           for date, roots in st["snapshots"]],
                distrust_rules=rules))
        revocations = []
        for rv in self.revocation_specs:
            record = records[rv["label"]]
            if rv["type"] == "issuer_serial":
                selector = IssuerSerial(record.issuer, record.serial)
            elif rv["type"] == "spki":
                selector = SpkiDigest(record.spki_digest)
            else:
                selector = Fingerprint(record.fingerprint)
            revocations.append(RevocationRecord(
                source=RevocationSource(rv["kind"], rv["name"]),
                selector=selector, effective_date=rv["effective"],
                reason=rv["reason"]))
        operator_map = None
        if self.operator_spans or self.ownership_events:
            spans = [OperatorSpan(
                operator_id=sp["operator_id"],
                subjects=tuple(normalize_name(s) for s in sp.get("subjects", [])),
                fingerprints=frozenset(fp[lb] for lb in sp.get("labels", [])),
                valid_from=sp.get("valid_from"), valid_to=sp.get("valid_to"),
            ) for sp in self.operator_spans]
            events = [OwnershipEvent(
                date=ev["date"],
                subjects=tuple(normalize_name(s) for s in ev["subjects"]),
                from_operator=ev["from"], to_operator=ev["to"],
            ) for ev in self.ownership_events]
            operator_map = OperatorMap(spans, events)
        extensions = {}
        for ex in self.extension_specs:
            motivations = []
            for mot in ex["motivations"]:
                if mot["kind"] == "bootstrapping":
                    motivations.append(Bootstrapping(
                        bootstrapped_cert=fp[mot["bootstrapped"]],
                        target_stores=tuple(mot["target_stores"]),
                        inclusion_request_ref=mot["ref"]))
                else:
                    raise ValueError(f"unsupported fixture motivation {mot}")
            extensions[fp[ex["member"]]] = XsExtension(
                motivations=tuple(motivations),
                issuance_timestamps=tuple(
                    LogTimestamp(log_id, ts)
                    for log_id, ts in ex.get("timestamps", ())))
        return Bundle(
            scenario_id=spec.scenario_id, seed=spec.seed, mode=spec.mode,
            records=sorted(records.values(), key=lambda r: r.fingerprint),
            stores=stores, revocations=revocations, operator_map=operator_map,
            views=[RevocationView(cid, frozenset(srcs))
                   for cid, srcs in self.views],
            extensions=extensions, labels=fp, notes=self.notes)


# --- named scenarios ----------------------------------------------------------

def _scn_figure1(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    nb, na = utc(2015, 1, 1), utc(2030, 1, 1)
    for i in (1, 2, 3):
        b.root(f"R{i}", f"CN=Root CA {i}, O=CA{i}", nb=nb, na=na)
    b.ca("I1", "CN=Intermediate 1, O=CA1", issuer="R1", nb=nb, na=na)
    b.ca("I2", "CN=Intermediate 2, O=CA1", issuer="R1", nb=nb, na=na)
    b.ca("I3", "CN=Intermediate 3, O=CA2", issuer="R2", nb=nb, na=na)
    b.ca("I4", "CN=Intermediate 4, O=CA2", issuer="R2", nb=nb, na=na)
    b.ca("I5", "CN=Intermediate 5, O=CA3", issuer="R3", nb=nb, na=na)
    b.cross_sign("I5x", "I5", issuer="I4", nb=nb, na=na)
    b.leaf("L1", "CN=leaf1.example", issuer="I1", nb=nb, na=na)
    b.leaf("L2", "CN=leaf2.example", issuer="I2", nb=nb, na=na)
    b.leaf("L3", "CN=leaf3.example", issuer="I2", nb=nb, na=na)
    b.leaf("L4", "CN=leaf4.example", issuer="I3", nb=nb, na=na)
    b.leaf("L5", "CN=leaf5.example", issuer="I4", nb=nb, na=na)
    b.leaf("L6", "CN=leaf6.example", issuer="I5", nb=nb, na=na)
    d = ScenarioDef(b)
    d.store("web1", "web", [(nb, ["R1", "R2", "R3"])])
    d.view("all")
    d.notes["topology"] = ("three CAs; intermediate 5 is cross-signed by "
                           "intermediate 4, so leaf 6 validates via two chains")
    return d


def _scn_mutual(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    nb, na = utc(2012, 1, 1), utc(2032, 1, 1)
    b.root("R1", "CN=Mutual Root 1, O=PairWise", nb=nb, na=na)
    b.root("R2", "CN=Mutual Root 2, O=PairWise", nb=nb, na=na)
    b.cross_sign("R1x", "R1", issuer="R2", nb=nb, na=na)
    b.cross_sign("R2x", "R2", issuer="R1", nb=nb, na=na)
    b.leaf("L", "CN=mutual-leaf.example", issuer="R1", nb=nb, na=na)
    d = ScenarioDef(b)
    d.store("web1", "web", [(nb, ["R1", "R2"])])
    d.view("all")
    d.notes["topology"] = "two roots cross-sign each other"
    return d


def _scn_certinomis(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("wosign_root", "CN=Certification Authority of WoSign, O=WoSign CA Limited",
           nb=utc(2006, 8, 1), na=utc(2039, 8, 1))
    b.root("startcom_root", "CN=StartCom Certification Authority, O=StartCom Ltd.",
           nb=utc(2006, 9, 1), na=utc(2036, 9, 1))
    b.root("startcom_g3", "CN=StartCom Certification Authority G3, O=StartCom Ltd.",
           nb=utc(2015, 1, 1), na=utc(2035, 1, 1))
    b.root("certinomis_root", "CN=Certinomis - Root CA, O=Certinomis",
           nb=utc(2013, 10, 1), na=utc(2033, 10, 1))
    b.ca("ica", "CN=StartCom EV SSL ICA, O=StartCom Ltd.", issuer="startcom_g3",
         nb=utc(2017, 4, 7), na=utc(2027, 4, 7))
    b.cross_sign("ica_xs", "ica", issuer="certinomis_root",
                 nb=utc(2017, 4, 13), na=utc(2027, 4, 13))
    b.leaf("leaf_banned", "CN=shop.banned-era.example, O=Customer",
           issuer="ica", nb=utc(2016, 11, 1), na=utc(2019, 11, 1))
    b.leaf("leaf_spring", "CN=portal.spring-era.example, O=Customer",
           issuer="ica", nb=utc(2017, 5, 1), na=utc(2019, 5, 1))
    d = ScenarioDef(b)
    rule = {
        "anchors": ["wosign_root", "startcom_root", "startcom_g3"],
        "issued_after": utc(2016, 10, 21),
        "effective_from": utc(2016, 10, 21),
        "description": "distrust of new WoSign/StartCom-anchored certificates",
    }
    d.store("mozilla", "web", [
        (utc(2015, 1, 1), ["wosign_root", "startcom_root", "startcom_g3",
                           "certinomis_root"]),
        (utc(2018, 1, 1), ["certinomis_root"]),
        (utc(2019, 7, 1), []),
    ], rules=[rule])
    d.store("google", "web", [
        (utc(2015, 1, 1), ["wosign_root", "startcom_root", "startcom_g3",
                           "certinomis_root"]),
        (utc(2017, 9, 26), ["certinomis_root"]),
    ], rules=[rule])
    d.revoke("vendor", "onecrl", "issuer_serial", "ica_xs", utc(2017, 9, 26),
             "cross-sign of banned CA")
    d.revoke("vendor", "crlset", "issuer_serial", "ica_xs", utc(2017, 9, 26),
             "cross-sign of banned CA")
    d.revoke("ca_crl", "certinomis-crl", "issuer_serial", "ica_xs",
             utc(2017, 10, 18), "superseded")
    d.view("mozilla", "onecrl")
    d.view("google", "crlset")
    d.view("none")
    d.operator_spans = [
        {"operator_id": "wosign", "subjects": [
            "CN=Certification Authority of WoSign, O=WoSign CA Limited"]},
        {"operator_id": "certinomis", "subjects": [
            "CN=Certinomis - Root CA, O=Certinomis"]},
    ]
    d.ownership_events = [{
        "date": utc(2015, 11, 1),
        "subjects": ["CN=StartCom Certification Authority, O=StartCom Ltd.",
                     "CN=StartCom Certification Authority G3, O=StartCom Ltd.",
                     "CN=StartCom EV SSL ICA, O=StartCom Ltd."],
        "from": "startcom", "to": "wosign",
    }]
    d.notes["dates"] = (
        "not-before rule cutoff 2016-10-21 (day from the public timeline); "
        "cross-sign issued 2017-04-13; the September 2017 vendor-list entries "
        "use day 26, matching the only day-precise event that month in the "
        "incident timeline; CA CRL entry 2017-10-18; root removals 2018-01-01 "
        "and mid-2019 as 2019-07-01")
    return d


def _scn_diginotar(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("entrust_root",
           "CN=Entrust.net Secure Server Certification Authority, O=Entrust.net",
           nb=utc(2000, 1, 1), na=utc(2019, 1, 1))
    b.root("dn_root", "CN=DigiNotar Root CA, O=DigiNotar",
           nb=utc(2007, 5, 1), na=utc(2025, 5, 1))
    b.cross_sign("dn_xs", "dn_root", issuer="entrust_root",
                 nb=utc(2007, 7, 1), na=utc(2013, 8, 1))
    b.leaf("leaf", "CN=www.targeted.example, O=Victim", issuer="dn_root",
           nb=utc(2010, 6, 1), na=utc(2014, 6, 1))
    d = ScenarioDef(b)
    d.store("mozilla", "web", [
        (utc(2008, 1, 1), ["entrust_root", "dn_root"]),
        (utc(2011, 9, 1), ["entrust_root"]),
        (utc(2015, 6, 1), []),
    ])
    d.store("microsoft", "web", [
        (utc(2008, 1, 1), ["entrust_root", "dn_root"]),
        (utc(2011, 9, 1), ["entrust_root"]),
    ])
    d.revoke("vendor", "chrome-blacklist", "spki", "dn_root", utc(2011, 9, 1),
             "compromised CA key")
    d.revoke("vendor", "ms-disallowed", "fingerprint", "dn_xs", utc(2011, 9, 1),
             "compromised CA")
    d.view("legacy")
    d.view("chrome", "chrome-blacklist")
    d.view("microsoft", "ms-disallowed")
    d.notes["dates"] = (
        "incident and root removal September 2011 as 2011-09-01; cross-sign "
        "issued 2007 as 2007-07-01; cross-sign expiry August 2013 as 2013-08-01")
    return d


def _scn_actalis(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("baltimore_root", "CN=Baltimore CyberTrust Root, O=Baltimore",
           nb=utc(2000, 5, 1), na=utc(2025, 5, 1))
    b.root("actalis_root", "CN=Actalis Authentication Root CA, O=Actalis S.p.A.",
           nb=utc(2011, 9, 1), na=utc(2031, 9, 1))
    b.ca("g2", "CN=Actalis Authentication CA G2, O=Actalis S.p.A.",
         issuer="actalis_root", nb=utc(2011, 9, 1), na=utc(2021, 9, 1))
    b.cross_sign("g2_xs", "g2", issuer="baltimore_root",
                 nb=utc(2011, 9, 22), na=utc(2018, 11, 1))
    b.leaf("leaf", "CN=pay.actalis-customer.example, O=Customer", issuer="g2",
           nb=utc(2014, 1, 1), na=utc(2019, 1, 1))
    d = ScenarioDef(b)
    for sid in ("mozilla", "google"):
        d.store(sid, "web", [
            (utc(2010, 1, 1), ["baltimore_root"]),
            (utc(2013, 1, 1), ["baltimore_root", "actalis_root"]),
        ])
    d.revoke("ca_crl", "actalis-crl", "issuer_serial", "g2", utc(2016, 11, 1),
             "cessation of operation")
    d.revoke("ca_crl", "cybertrust-crl", "issuer_serial", "g2_xs",
             utc(2016, 11, 1), "cessation of operation")
    d.revoke("vendor", "onecrl", "issuer_serial", "g2", utc(2016, 11, 1))
    d.revoke("vendor", "onecrl", "issuer_serial", "g2_xs", utc(2016, 11, 1))
    d.revoke("vendor", "crlset", "issuer_serial", "g2", utc(2016, 11, 1))
    d.view("mozilla", "onecrl")
    d.view("google", "crlset")
    d.notes["dates"] = (
        "revocations November 2016 as 2016-11-01; the cross-sign expires "
        "2018-11-01, exactly two years after the revocation")
    return d


def _scn_swiss(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("swiss_root", "CN=Swiss Government Root CA II, O=Swiss Government PKI",
           nb=utc(2011, 1, 1), na=utc(2035, 1, 1))
    b.root("qv_root", "CN=QuoVadis Root CA 2 G3, O=QuoVadis Limited",
           nb=utc(2012, 1, 1), na=utc(2042, 1, 1))
    b.ca("qv_ica", "CN=QuoVadis Enterprise Trust CA 2 G3, O=QuoVadis Limited",
         issuer="qv_root", nb=utc(2013, 1, 1), na=utc(2033, 1, 1))
    b.ca("sg02", "CN=Swiss Government Public Trust Standard CA 02, "
                 "O=Swiss Government PKI",
         issuer="swiss_root", nb=utc(2016, 6, 1), na=utc(2028, 6, 1))
    whitelist = NameConstraints(
        permitted=(Subtree("dns", "admin.ch"), Subtree("dns", "gov.swiss")),
        excluded=(), critical=False)
    b.cross_sign("sg02_xs", "sg02", issuer="qv_ica",
                 nb=utc(2017, 3, 1), na=utc(2027, 3, 1),
                 name_constraints=whitelist)
    b.leaf("leaf_listed", "CN=portal.admin.ch, O=Swiss Government",
           issuer="sg02", nb=utc(2017, 6, 1), na=utc(2019, 6, 1))
    b.leaf("leaf_offlist", "CN=shop.unrelated.example, O=Off List",
           issuer="sg02", nb=utc(2017, 6, 1), na=utc(2019, 6, 1))
    d = ScenarioDef(b)
    d.store("swiss-gov", "government", [(utc(2011, 1, 1), ["swiss_root"])])
    d.store("mozilla", "web", [(utc(2013, 1, 1), ["qv_root"])])
    d.revoke("ca_crl", "quovadis-crl", "issuer_serial", "sg02_xs",
             utc(2019, 7, 1), "no longer required")
    d.revoke("vendor", "crlset", "issuer_serial", "sg02_xs", utc(2019, 7, 1))
    d.view("mozilla", "onecrl")
    d.view("google", "crlset")
    d.notes["dates"] = ("cross-sign 2017 as 2017-03-01; CRL revocation mid "
                        "2019 as 2019-07-01")
    d.notes["name_constraints"] = (
        "the cross-sign white-lists government domains via a NON-critical "
        "name-constraint extension; leaf_offlist sits outside the white-list")
    return d


def _scn_letsencrypt(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("isrg_root", "CN=ISRG Root X1, O=Internet Security Research Group",
           nb=utc(2015, 6, 1), na=utc(2035, 6, 1))
    b.root("dst_root", "CN=DST Root CA X3, O=Digital Signature Trust Co.",
           nb=utc(2000, 9, 1), na=utc(2021, 9, 1))
    b.ca("x3", "CN=Let's Encrypt Authority X3, O=Let's Encrypt",
         issuer="isrg_root", nb=utc(2016, 10, 1), na=utc(2021, 10, 1))
    b.cross_sign("x3_xs", "x3", issuer="dst_root",
                 nb=utc(2016, 3, 17), na=utc(2021, 3, 17))
    b.leaf("leaf", "CN=blog.acme-user.example", issuer="x3",
           nb=utc(2017, 1, 1), na=utc(2017, 4, 1))
    d = ScenarioDef(b)
    d.store("mozilla", "web", [(utc(2005, 1, 1), ["dst_root"])])
    d.store("microsoft", "web", [(utc(2005, 1, 1), ["dst_root"])])
    d.view("all")
    d.operator_spans = [
        {"operator_id": "isrg", "subjects": [
            "CN=ISRG Root X1, O=Internet Security Research Group",
            "CN=Let's Encrypt Authority X3, O=Let's Encrypt"]},
        {"operator_id": "identrust", "subjects": [
            "CN=DST Root CA X3, O=Digital Signature Trust Co."]},
    ]
    d.extension_specs = [{
        "member": "x3_xs",
        "motivations": [{"kind": "bootstrapping", "bootstrapped": "isrg_root",
                         "target_stores": ["mozilla", "microsoft"],
                         "ref": "root-inclusion-ticket-1204656"}],
        "timestamps": [("ct-log-argon", utc(2016, 3, 17)),
                       ("ct-log-xenon", utc(2016, 3, 17))],
    }]
    d.notes["dates"] = ("cross-sign 2016-03-17 and original 2016-10 per the "
                        "published issuance records; the subject's own root "
                        "is absent from every store in this bundle horizon")
    return d


def _scn_backdating(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("addtrust_root", "CN=AddTrust External CA Root, O=AddTrust AB",
           nb=utc(2000, 5, 30), na=utc(2020, 5, 30))
    b.root("aaa_root", "CN=AAA Certificate Services, O=Comodo CA Limited",
           nb=utc(2004, 1, 1), na=utc(2029, 1, 1))
    b.root("usertrust_ecc",
           "CN=USERTrust ECC Certification Authority, O=The USERTRUST Network",
           nb=utc(2010, 2, 1), na=utc(2038, 1, 1), sig_alg="ecdsa-sha384")
    b.cross_sign("ut_xs_backdated", "usertrust_ecc", issuer="addtrust_root",
                 nb=utc(2000, 5, 1), na=utc(2020, 5, 30))
    b.cross_sign("ut_xs_recent", "usertrust_ecc", issuer="aaa_root",
                 nb=utc(2019, 3, 1), na=utc(2028, 12, 31))
    # Negative control: predates its sibling by exactly the default slack
    # and does not predate its issuer.
    b.root("bd_issuer", "CN=Boundary Issuer CA, O=Slack Control",
           nb=utc(2000, 1, 1), na=utc(2030, 1, 1))
    b.root("bd_root", "CN=Boundary Subject CA, O=Slack Control",
           nb=utc(2010, 1, 1), na=utc(2030, 1, 1))
    b.cross_sign("bd_xs", "bd_root", issuer="bd_issuer",
                 nb=utc(2009, 1, 1), na=utc(2025, 1, 1))
    d = ScenarioDef(b)
    d.store("mozilla", "web", [
        (utc(2005, 1, 1), ["addtrust_root", "aaa_root", "bd_issuer"]),
        (utc(2012, 1, 1), ["addtrust_root", "aaa_root", "bd_issuer",
                           "usertrust_ecc", "bd_root"]),
    ])
    d.view("all")
    d.notes["dates"] = (
        "the AddTrust-issued cross-sign claims a May 2000 start although the "
        "cross-signed root begins 2010-02; the boundary group's cross-sign "
        "predates its sibling by exactly 365 days")
    return d


def _scn_leafmix(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    nb, na = utc(2014, 1, 1), utc(2026, 1, 1)
    b.root("root_a", "CN=Shape Root A, O=Taxonomy", nb=nb, na=na)
    b.root("root_b", "CN=Shape Root B, O=Taxonomy", nb=nb, na=na)
    # root-type group: a store root plus its cross-sign
    b.cross_sign("root_a_xs", "root_a", issuer="root_b", nb=nb, na=na)
    # intermediate-type group
    b.ca("ica", "CN=Shape Intermediate, O=Taxonomy", issuer="root_a", nb=nb, na=na)
    b.cross_sign("ica_xs", "ica", issuer="root_b", nb=nb, na=na)
    # leaf-type group (cross-signed by a differently named intermediate)
    b.ca("icb", "CN=Shape Intermediate B, O=Taxonomy", issuer="root_b", nb=nb, na=na)
    b.leaf("www", "CN=www.shapes.example, O=Taxonomy", issuer="ica", nb=nb, na=na)
    b.cross_sign("www_xs", "www", issuer="icb", nb=nb, na=na)
    # leaf-mix group: one CA certificate and one leaf share a key
    b.ca("mix_ca", "CN=Shared Mix Identity, O=Taxonomy", issuer="root_a",
         nb=nb, na=na)
    b.cert("mix_leaf", "CN=Shared Mix Identity, O=Taxonomy", issuer="root_b",
           key="mix_ca", nb=nb, na=na, is_ca=False)
    d = ScenarioDef(b)
    d.store("web1", "web", [(nb, ["root_a", "root_b"])])
    d.view("all")
    d.notes["topology"] = ("one group of each shape: root, intermediate, "
                           "leaf, and the theoretical CA/leaf key-sharing mix")
    return d


def _scn_globalsign(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("gs_root", "CN=GlobalSign Root CA, O=GlobalSign",
           nb=utc(1998, 9, 1), na=utc(2028, 1, 28))
    b.root("r2", "CN=GlobalSign Root CA - R2, O=GlobalSign",
           nb=utc(2006, 12, 1), na=utc(2021, 12, 1))
    b.root("r3", "CN=GlobalSign Root CA - R3, O=GlobalSign",
           nb=utc(2009, 3, 1), na=utc(2029, 3, 1))
    b.ca("ev", "CN=GlobalSign Extended Validation CA - SHA256 - G2, O=GlobalSign",
         issuer="r2", nb=utc(2014, 2, 1), na=utc(2024, 2, 1))
    b.cross_sign("ev_xs", "ev", issuer="r3",
                 nb=utc(2014, 2, 1), na=utc(2024, 2, 1))
    b.ca("dv", "CN=GlobalSign Domain Validation CA - SHA256 - G2, O=GlobalSign",
         issuer="r3", nb=utc(2014, 2, 1), na=utc(2024, 2, 1))
    b.cross_sign("dv_xs", "dv", issuer="gs_root",
                 nb=utc(2014, 2, 1), na=utc(2027, 2, 1))
    d = ScenarioDef(b)
    for sid in ("mozilla", "google"):
        d.store(sid, "web", [(utc(2010, 1, 1), ["gs_root", "r2", "r3"])])
    d.revoke("ca_crl", "globalsign-crl", "issuer_serial", "ev",
             utc(2019, 9, 1), "cessation of operation")
    d.revoke("vendor", "onecrl", "issuer_serial", "ev", utc(2019, 9, 1))
    d.revoke("vendor", "crlset", "issuer_serial", "ev", utc(2019, 9, 1))
    d.view("mozilla", "onecrl")
    d.view("google", "crlset")
    d.operator_spans = [{"operator_id": "globalsign", "subjects": [
        "CN=GlobalSign Root CA, O=GlobalSign",
        "CN=GlobalSign Root CA - R2, O=GlobalSign",
        "CN=GlobalSign Root CA - R3, O=GlobalSign",
        "CN=GlobalSign Extended Validation CA - SHA256 - G2, O=GlobalSign",
        "CN=GlobalSign Domain Validation CA - SHA256 - G2, O=GlobalSign"]}]
    d.notes["dates"] = "first EV member revoked September 2019 as 2019-09-01"
    return d


def _scn_fpki(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("fpki_root", "CN=Federal Common Policy CA, O=U.S. Government",
           nb=utc(2010, 12, 1), na=utc(2030, 12, 1))
    b.root("dst_aces", "CN=DST ACES CA X6, O=Digital Signature Trust",
           nb=utc(2003, 11, 1), na=utc(2017, 11, 1))
    b.ca("identrust_aces", "CN=IdenTrust ACES CA 1, O=IdenTrust",
         issuer="dst_aces", nb=utc(2014, 1, 1), na=utc(2017, 11, 1))
    b.ca("fbca", "CN=Federal Bridge CA 2013, O=U.S. Government",
         issuer="fpki_root", nb=utc(2013, 10, 1), na=utc(2023, 10, 1))
    b.cross_sign("fbca_xs", "fbca", issuer="identrust_aces",
                 nb=utc(2015, 8, 1), na=utc(2017, 11, 1))
    b.leaf("leaf", "CN=services.agency.example, O=U.S. Government",
           issuer="fbca", nb=utc(2015, 9, 1), na=utc(2018, 9, 1))
    d = ScenarioDef(b)
    d.store("us-fpki", "government", [(utc(2011, 1, 1), ["fpki_root"])])
    d.store("mozilla", "web", [(utc(2005, 1, 1), ["dst_aces"])])
    d.revoke("ca_crl", "identrust-crl", "issuer_serial", "fbca_xs",
             utc(2016, 2, 1), "superseded")
    d.revoke("vendor", "onecrl", "issuer_serial", "fbca_xs", utc(2017, 11, 1))
    d.view("mozilla", "onecrl")
    d.view("crl-aware", "identrust-crl")
    d.notes["dates"] = ("cross-signed 2015 as 2015-08-01; the CA CRL entry "
                        "February 2016 reached the vendor list only November "
                        "2017, when the cross-sign had already expired")
    return d


def _scn_entrust(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("entrust_root", "CN=Entrust Root Certification Authority, O=Entrust Inc.",
           nb=utc(2006, 11, 1), na=utc(2026, 11, 1))
    b.root("entrust_2048",
           "CN=Entrust.net Certification Authority (2048), O=Entrust.net",
           nb=utc(1999, 12, 1), na=utc(2029, 7, 1))
    b.ca("l1e", "CN=Entrust Certification Authority - L1E, O=Entrust Inc.",
         issuer="entrust_root", nb=utc(2009, 8, 1), na=utc(2019, 8, 1))
    b.cross_sign("l1e_xs", "l1e", issuer="entrust_2048",
                 nb=utc(2009, 8, 1), na=utc(2019, 8, 1))
    d = ScenarioDef(b)
    d.store("mozilla", "web", [
        (utc(2008, 1, 1), ["entrust_root", "entrust_2048"])])
    d.revoke("ca_crl", "entrust-root-crl", "issuer_serial", "l1e",
             utc(2018, 7, 1), "superseded")
    d.revoke("ca_crl", "entrust-2048-crl", "issuer_serial", "l1e_xs",
             utc(2019, 2, 1), "superseded")
    d.view("crl-aware", "entrust-root-crl", "entrust-2048-crl")
    d.notes["dates"] = ("original revoked July 2018 as 2018-07-01, the "
                        "cross-sign only February 2019 as 2019-02-01: a "
                        "seven-month lag")
    return d


def _scn_netsol(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    ns_subject = ("CN=Network Solutions Certificate Authority, "
                  "O=Network Solutions L.L.C.")
    b.root("utn_hw", "CN=UTN-USERFirst-Hardware, O=The USERTRUST Network",
           nb=utc(1999, 7, 1), na=utc(2019, 7, 1))
    b.root("ns_root", ns_subject, nb=utc(2006, 3, 1), na=utc(2021, 3, 1))
    b.cross_sign("ns_xs1", "ns_root", issuer="utn_hw",
                 nb=utc(2006, 11, 1), na=utc(2020, 3, 1))
    b.cross_sign("ns_xs2", "ns_root", issuer="utn_hw",
                 nb=utc(2006, 12, 1), na=utc(2019, 7, 1))
    d = ScenarioDef(b)
    d.store("mozilla", "web", [
        (utc(2007, 1, 1), ["utn_hw", "ns_root"])])
    d.view("all")
    d.operator_spans = [
        {"operator_id": "comodo", "subjects": [
            "CN=UTN-USERFirst-Hardware, O=The USERTRUST Network"]},
    ]
    d.ownership_events = [
        {"date": utc(2007, 3, 1), "subjects": [ns_subject],
         "from": "pivotal-equity", "to": "general-atlantic"},
        {"date": utc(2011, 8, 1), "subjects": [ns_subject],
         "from": "general-atlantic", "to": "web-com"},
    ]
    d.notes["dates"] = ("sale to General Atlantic 2007-03-01 and to web.com "
                        "2011-08-01, both inside the cross-signs' joint "
                        "validity window")
    return d


def _scn_virginia_tech(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("trusted_g2", "CN=Trusted Root CA G2, O=GlobalSign nv-sa",
           nb=utc(2008, 1, 1), na=utc(2028, 1, 1), sig_alg="sha256-rsa")
    b.root("trusted_sha256_g2", "CN=Trusted Root CA SHA256 G2, O=GlobalSign nv-sa",
           nb=utc(2014, 2, 1), na=utc(2029, 2, 1), sig_alg="sha256-rsa")
    b.ca("vt", "CN=Virginia Tech Global Qualified Server CA, O=Virginia Tech",
         issuer="trusted_g2", nb=utc(2012, 7, 1), na=utc(2022, 7, 1),
         sig_alg="sha1-rsa")
    b.cross_sign("vt_xs", "vt", issuer="trusted_sha256_g2",
                 nb=utc(2014, 12, 1), na=utc(2022, 7, 1), sig_alg="sha256-rsa")
    d = ScenarioDef(b)
    d.store("mozilla", "web", [
        (utc(2009, 1, 1), ["trusted_g2"]),
        (utc(2014, 3, 1), ["trusted_g2", "trusted_sha256_g2"])])
    d.revoke("ca_crl", "globalsign-crl", "issuer_serial", "vt",
             utc(2017, 1, 1), "superseded by stronger algorithm")
    d.view("all")
    d.notes["algorithms"] = ("the original carries a weak-hash signature, "
                             "its cross-sign a modern one; cryptographic "
                             "bundles substitute sha256 for the weak hash")
    return d


def _scn_keynectis(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    subj = "CN=KEYNECTIS Extended Validation CA, O=KEYNECTIS"
    b.root("certplus", "CN=Class 2 Primary CA, O=Certplus",
           nb=utc(1999, 7, 1), na=utc(2019, 7, 1), sig_alg="sha256-rsa")
    b.root("certplus_g2", "CN=Class 2 Primary CA - G2, O=Certplus",
           nb=utc(2013, 1, 1), na=utc(2033, 1, 1), sig_alg="sha256-rsa")
    b.root("opentrust_aatl", "CN=OpenTrust CA for AATL G1, O=OpenTrust",
           nb=utc(2014, 5, 1), na=utc(2034, 5, 1), sig_alg="ecdsa-sha384")
    b.root("opentrust_g1", "CN=OpenTrust Root CA G1, O=OpenTrust",
           nb=utc(2014, 5, 1), na=utc(2034, 5, 1), sig_alg="sha512-rsa")
    b.ca("kn", subj, issuer="certplus", nb=utc(2011, 7, 1), na=utc(2019, 7, 1),
         sig_alg="sha1-rsa")
    b.cross_sign("kn_xs_sha256", "kn", issuer="certplus_g2",
                 nb=utc(2014, 1, 1), na=utc(2019, 7, 1), sig_alg="sha256-rsa")
    b.cross_sign("kn_xs_ecdsa", "kn", issuer="opentrust_aatl",
                 nb=utc(2015, 1, 1), na=utc(2019, 7, 1), sig_alg="ecdsa-sha384")
    b.cross_sign("kn_xs_sha512", "kn", issuer="opentrust_g1",
                 nb=utc(2015, 1, 1), na=utc(2019, 7, 1), sig_alg="sha512-rsa")
    d = ScenarioDef(b)
    d.store("mozilla", "web", [(utc(2010, 1, 1), ["certplus"]),
                               (utc(2015, 6, 1), ["certplus", "certplus_g2",
                                                  "opentrust_aatl",
                                                  "opentrust_g1"])])
    d.view("all")
    return d


def _scn_twin(spec: ScenarioSpec) -> ScenarioDef:
    b = PkiBuilder(spec.scenario_id)
    b.root("t_root_a", "CN=Twin Root A, O=Twin", nb=utc(2010, 1, 1),
           na=utc(2030, 1, 1))
    b.root("t_root_b", "CN=Twin Root B, O=Twin", nb=utc(2010, 1, 1),
           na=utc(2030, 1, 1))
    b.ca("tw", "CN=Twin Services CA, O=Twin", issuer="t_root_a",
         nb=utc(2012, 1, 1), na=utc(2022, 1, 1))
    b.cross_sign("tw_xs", "tw", issuer="t_root_b",
                 nb=utc(2012, 1, 1), na=utc(2022, 1, 1))
    d = ScenarioDef(b)
    d.store("web1", "web", [(utc(2010, 1, 1), ["t_root_a", "t_root_b"])])
    d.view("all")
    d.notes["topology"] = ("both members reach the same store over the same "
                           "window: pure alternative paths")
    return d


def _scn_random(spec: ScenarioSpec) -> ScenarioDef:
    params = dict(spec.params)
    n = int(params.get("n", 50))
    xs_rate = float(params.get("xs_rate", 0.15))
    mutual_pairs = int(params.get("mutual_pairs", 1 if n >= 10 else 0))
    revocation_rate = float(params.get("revocation_rate", 0.0))
    rng = random.Random(spec.seed)
    b = PkiBuilder(spec.scenario_id)

    n_roots = max(1, min(6, n // 8))
    n_cas = max(0, min(n // 3, n - n_roots) - 2 * mutual_pairs)
    horizon = utc(2010, 1, 1)

    def window(lo_year=2010, hi_year=2024):
        start = horizon + timedelta(days=rng.randrange(0, 365 * (hi_year - lo_year)))
        return start, start + timedelta(days=rng.randrange(200, 4000))

    roots = []
    for i in range(n_roots):
        nb, na = window()
        roots.append(b.root(f"root{i}", f"CN=Random Root {i}, O=Rand", nb=nb, na=na))
    cas = list(roots)
    for i in range(n_cas):
        issuer = rng.choice(cas)
        nb, na = window()
        label = b.ca(f"ca{i}", f"CN=Random CA {i}, O=Rand", issuer=issuer,
                     nb=nb, na=na)
        if rng.random() < xs_rate and len(cas) > 1:
            other = rng.choice([c for c in cas if c != issuer])
            xnb = nb + timedelta(days=rng.randrange(0, 200))
            xna = max(xnb + timedelta(days=rng.randrange(30, 3000)), na)
            b.cross_sign(f"ca{i}x", label, issuer=other, nb=xnb, na=xna)
        cas.append(label)
    for i in range(mutual_pairs):
        nb, na = window()
        a = b.root(f"mu{i}a", f"CN=Mutual {i} A, O=Rand", nb=nb, na=na)
        bb = b.root(f"mu{i}b", f"CN=Mutual {i} B, O=Rand", nb=nb, na=na)
        b.cross_sign(f"mu{i}ax", a, issuer=bb, nb=nb, na=na)
        b.cross_sign(f"mu{i}bx", bb, issuer=a, nb=nb, na=na)
        cas.extend([a, bb])
    i = 0
    while len(b.specs) < n:
        issuer = rng.choice(cas)
        nb, na = window(2012, 2024)
        label = b.leaf(f"leaf{i}", f"CN=site{i}.rand.example, O=Rand",
                       issuer=issuer, nb=nb, na=na)
        if (rng.random() < xs_rate / 2 and len(cas) > 1
                and len(b.specs) < n):
            other = rng.choice([c for c in cas if c != issuer])
            b.cross_sign(f"leaf{i}x", label, issuer=other, nb=nb, na=na)
        i += 1

    d = ScenarioDef(b)
    snap_dates = sorted({horizon + timedelta(days=rng.randrange(0, 4000))
                         for _ in range(rng.randrange(1, 4))})
    snapshots = []
    for date in snap_dates:
        chosen = [r for r in roots if rng.random() < 0.8]
        snapshots.append((date, chosen or roots[:1]))
    d.store("web1", "web", snapshots)
    if revocation_rate > 0:
        labels = list(b.specs)
        for label in labels:
            if rng.random() < revocation_rate:
                sel = rng.choice(["issuer_serial", "spki", "fingerprint"])
                src = rng.choice([("vendor", "onecrl"), ("vendor", "crlset"),
                                  ("ca_crl", "rand-crl")])
                when = horizon + timedelta(days=rng.randrange(0, 4500))
                d.revoke(src[0], src[1], sel, label, when)
    d.view("all")
    d.view("none")
    return d


SCENARIOS: dict[str, Callable[[ScenarioSpec], ScenarioDef]] = {
    "figure1": _scn_figure1,
    "mutual": _scn_mutual,
    "certinomis": _scn_certinomis,
    "diginotar": _scn_diginotar,
    "actalis": _scn_actalis,
    "swiss": _scn_swiss,
    "letsencrypt": _scn_letsencrypt,
    "backdating": _scn_backdating,
    "leafmix": _scn_leafmix,
    "globalsign": _scn_globalsign,
    "fpki": _scn_fpki,
    "entrust": _scn_entrust,
    "netsol": _scn_netsol,
    "virginia-tech": _scn_virginia_tech,
    "keynectis": _scn_keynectis,
    "twin": _scn_twin,
    "random": _scn_random,
}


def generate(spec: ScenarioSpec) -> Bundle:
    if spec.scenario_id not in SCENARIOS:
        raise UnknownScenario(
            f"unknown scenario {spec.scenario_id!r}; known: "
            f"{', '.join(sorted(SCENARIOS))}")
    if spec.mode not in ("structural", "cryptographic"):
        raise ValueError(f"unknown generation mode {spec.mode!r}")
    return SCENARIOS[spec.scenario_id](spec).realize(spec)
