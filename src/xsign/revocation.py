"""Revocation assertions from CA CRLs and vendor-controlled lists.

Selectors are heterogeneous: issuer+serial (classic CRL entry), SPKI digest
(key-level block, catches every cross-sign of the key), or an exact
certificate fingerprint. A view models one consumer's accepted sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Optional

from .certmodel import CertRecord
from .names import NormalizedName, normalize_name
from .timeutil import format_rfc3339, parse_rfc3339

SOURCE_KINDS = ("ca_crl", "vendor")


@dataclass(frozen=True)
class RevocationSource:
    """Who publishes a revocation: a CA CRL or a vendor list, by name."""

    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown revocation source kind {self.kind!r}")


@dataclass(frozen=True)
class IssuerSerial:
    """Selects the certificate with this issuer name and serial."""

    issuer: NormalizedName
    serial: str

    def matches(self, cert: CertRecord) -> bool:
        return cert.issuer == self.issuer and cert.serial == self.serial

    @property
    def key(self) -> tuple:
        return ("issuer_serial", self.issuer, self.serial)


@dataclass(frozen=True)
class SpkiDigest:
    """Selects every certificate with this public key digest."""

    digest: str

    def matches(self, cert: CertRecord) -> bool:
        return cert.spki_digest == self.digest

    @property
    def key(self) -> tuple:
        return ("spki", self.digest)


@dataclass(frozen=True)
class Fingerprint:
    """Selects the one certificate with this fingerprint."""

    digest: str

    def matches(self, cert: CertRecord) -> bool:
        return cert.fingerprint == self.digest

    @property
    def key(self) -> tuple:
        return ("fingerprint", self.digest)


@dataclass(frozen=True)
class RevocationRecord:
    """One revocation: its source, selector, effective date and reason."""

    source: RevocationSource
    selector: object
    effective_date: datetime
    reason: Optional[str] = None

    def to_json(self) -> dict:
        if isinstance(self.selector, IssuerSerial):
            sel = {"type": "issuer_serial", "issuer": str(self.selector.issuer),
                   "serial": self.selector.serial}
        elif isinstance(self.selector, SpkiDigest):
            sel = {"type": "spki", "digest": self.selector.digest}
        elif isinstance(self.selector, Fingerprint):
            sel = {"type": "fingerprint", "digest": self.selector.digest}
        else:
            raise TypeError(f"unknown selector {self.selector!r}")
        out = {
            "source": {"kind": self.source.kind, "name": self.source.name},
            "selector": sel,
            "effective": format_rfc3339(self.effective_date),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RevocationRecord":
        sel = obj["selector"]
        if not isinstance(sel, dict):
            raise ValueError("selector must be an object")
        sel_type = sel.get("type")
        if sel_type == "issuer_serial":
            selector = IssuerSerial(normalize_name(sel["issuer"]),
                                    str(sel["serial"]).lower())
        elif sel_type == "spki":
            selector = SpkiDigest(str(sel["digest"]).lower())
        elif sel_type == "fingerprint":
            selector = Fingerprint(str(sel["digest"]).lower())
        else:
            raise ValueError(f"unknown selector type {sel_type!r}")
        return cls(
            source=RevocationSource(obj["source"]["kind"], obj["source"]["name"]),
            selector=selector,
            effective_date=parse_rfc3339(obj["effective"]),
            reason=obj.get("reason"),
        )


@dataclass(frozen=True)
class RevocationView:
    """One consumer's revocation perspective: which sources it applies."""

    consumer_id: str
    accepted_sources: frozenset[str]

    def accepts(self, record: RevocationRecord) -> bool:
        return record.source.name in self.accepted_sources

    def to_json(self) -> dict:
        return {"consumer_id": self.consumer_id,
                "accepted_sources": sorted(self.accepted_sources)}

    @classmethod
    def from_json(cls, obj: dict) -> "RevocationView":
        sources = obj["accepted_sources"]
        if not (isinstance(sources, list)
                and all(isinstance(s, str) for s in sources)):
            raise ValueError("accepted_sources must be a list of strings")
        return cls(str(obj["consumer_id"]), frozenset(sources))


VIEW_ALL_ID = "all"
# The id of the analysis's own revocation-free view, which backs the
# coverage-style analyzers; named so that its appearances in finding
# evidence are self-explanatory.
COVERAGE_VIEW_ID = "no-revocations"


def check_view_ids(views: Iterable[RevocationView]) -> None:
    """Raise ValueError on a view id given twice or equal to the coverage
    view's: the assessment report has one row per (certificate, view id),
    and the coverage view is the analysis's own."""
    seen: set[str] = set()
    for view in views:
        if view.consumer_id == COVERAGE_VIEW_ID:
            raise ValueError(f"view id {COVERAGE_VIEW_ID!r} is reserved")
        if view.consumer_id in seen:
            raise ValueError(f"duplicate view id {view.consumer_id!r}")
        seen.add(view.consumer_id)


def all_sources_view(records: Iterable[RevocationRecord]) -> RevocationView:
    return RevocationView(VIEW_ALL_ID,
                          frozenset(r.source.name for r in records))


class RevocationIndex:
    """The revocations of one run, keyed by what their selectors name: a
    certificate's fingerprint, its SPKI digest, or its (issuer, serial).
    Iterates over the records in load order. Built once per run, so that a
    lookup costs three dict probes instead of a scan of every record. The
    same pass records the CA-CRL source names, sorted, and which issuers
    each source name can list."""

    def __init__(self, records: Iterable[RevocationRecord]):
        self._records = list(records)
        self._by_key: dict[tuple, list[tuple[int, RevocationRecord]]] = {}
        # Per source name, the issuers its issuer-and-serial records name,
        # or None once one of its records selects by key or fingerprint.
        self._issuers: dict[str, Optional[set[NormalizedName]]] = {}
        ca_sources = set()
        for position, record in enumerate(self._records):
            self._by_key.setdefault(record.selector.key, []).append(
                (position, record))
            name = record.source.name
            if record.source.kind == "ca_crl":
                ca_sources.add(name)
            issuers = self._issuers.setdefault(name, set())
            if not isinstance(record.selector, IssuerSerial):
                self._issuers[name] = None
            elif issuers is not None:
                issuers.add(record.selector.issuer)
        self.ca_sources = tuple(sorted(ca_sources))

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def candidates(self, cert: CertRecord) -> list[RevocationRecord]:
        """The records whose selectors match the certificate, in load
        order: those whose selector key is one of the certificate's (the
        keys `IssuerSerial`, `SpkiDigest` and `Fingerprint` give)."""
        found = [hit for key in (("fingerprint", cert.fingerprint),
                                 ("spki", cert.spki_digest),
                                 ("issuer_serial", cert.issuer, cert.serial))
                 for hit in self._by_key.get(key, ())]
        found.sort(key=lambda hit: hit[0])
        return [record for _, record in found]

    def can_list(self, source_name: str, cert: CertRecord) -> bool:
        """Whether the source's list can hold `cert`: a CA CRL lists only
        certificates of the issuers it speaks for, while a list that selects
        by key or fingerprint can hold any certificate."""
        issuers = self._issuers.get(source_name, ())
        return issuers is None or cert.issuer in issuers


def matching_records(cert: CertRecord, view: RevocationView,
                     revocations: RevocationIndex) -> list[RevocationRecord]:
    """Accepted records matching the certificate, regardless of date."""
    hits = [r for r in revocations.candidates(cert) if view.accepts(r)]
    hits.sort(key=lambda r: (r.effective_date, r.source.name))
    return hits


def revocation_onset(cert: CertRecord, view: RevocationView,
                     revocations: RevocationIndex) -> Optional[datetime]:
    """Earliest instant from which the certificate counts as revoked in the
    view, or None if never."""
    hits = matching_records(cert, view, revocations)
    return hits[0].effective_date if hits else None
