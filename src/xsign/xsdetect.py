"""Cross-sign group detection and classification.

Certificates sharing (subject, public key) but carrying different issuers
form a cross-sign group when at least one pair of members overlaps in
validity by the configured minimum (default 121 days); shorter overlaps are
renewals (re-issuance), not cross-signs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Optional

from .certmodel import CertRecord, CryptoUnavailable, verify_signature
from .constants import DEFAULT_OVERLAP_MIN_DAYS
from .names import NormalizedName
from .pathengine import CertIndex
from .truststore import OperatorMap


@dataclass(frozen=True)
class QualifyingPair:
    """Two members of a group whose validity overlaps by `overlap_days`."""

    a: str
    b: str
    overlap_days: int


@dataclass(frozen=True)
class XSCertGroup:
    """Certificates sharing a subject and key, with their classification."""

    subject: NormalizedName
    spki_digest: str
    records: tuple[CertRecord, ...]          # in fingerprint order
    qualifying_pairs: tuple[QualifyingPair, ...]
    reissuance_members: tuple[str, ...]
    xs_type: Optional[str] = None
    scope: Optional[str] = None

    @property
    def key(self) -> tuple[str, str]:
        return (str(self.subject), self.spki_digest)

    @property
    def members(self) -> tuple[str, ...]:
        """The members' fingerprints, in fingerprint order."""
        return tuple(r.fingerprint for r in self.records)

    def chronological(self) -> list[CertRecord]:
        """The members' records in issuance order: by not_before, then by
        fingerprint."""
        return sorted(self.records, key=lambda r: (r.not_before, r.fingerprint))

    def native(self, operator_map: Optional[OperatorMap]) -> CertRecord:
        """The group's native member: the earliest issued within the
        subject's own operator, else the earliest issued."""
        members = self.chronological()
        if operator_map is not None:
            for m in members:
                subj_op, issuer_op = operator_map.issuance_operators(m)
                if subj_op is not None and subj_op == issuer_op:
                    return m
        return members[0]

    def to_json(self) -> dict:
        return {
            "subject": str(self.subject),
            "spki": self.spki_digest,
            "members": list(self.members),
            "type": self.xs_type,
            "scope": self.scope,
            "pairs": [{"a": p.a, "b": p.b, "overlap_days": p.overlap_days}
                      for p in self.qualifying_pairs],
            "reissuance_members": list(self.reissuance_members),
        }


def overlap_days(a: CertRecord, b: CertRecord) -> int:
    """Whole days (floor) of validity-window intersection; negative-free."""
    start = max(a.not_before, b.not_before)
    end = min(a.not_after, b.not_after)
    if start >= end:
        return 0
    return int((end - start).total_seconds() // 86400)


def _verified_issuer_keys(record: CertRecord, index: CertIndex) -> frozenset[str]:
    keys = set()
    for candidate in index.issuers_of(record):
        try:
            if verify_signature(record, candidate):
                keys.add(candidate.spki_digest)
        except CryptoUnavailable:
            continue
    return frozenset(keys)


def distinct_issuers(a: CertRecord, b: CertRecord, index: CertIndex,
                     mode: str = "structural") -> bool:
    """Different issuer names always qualify; equal names qualify only in
    cryptographic mode when the actually-verifying issuer keys differ."""
    if a.issuer != b.issuer:
        return True
    if mode != "cryptographic" or a.raw is None or b.raw is None:
        return False
    keys_a = _verified_issuer_keys(a, index)
    keys_b = _verified_issuer_keys(b, index)
    return bool(keys_a) and bool(keys_b) and not (keys_a & keys_b)


def group_xs(index: CertIndex,
             overlap_min: int = DEFAULT_OVERLAP_MIN_DAYS,
             mode: str = "structural") -> tuple[list[XSCertGroup], list[XSCertGroup]]:
    """Partition the corpus into cross-sign groups and re-issuance groups.

    Returns (xs_groups, reissuance_groups), both sorted by group key.
    Every (subject, spki) combination with at least two distinct-issuer
    members yields exactly one group.
    """
    buckets: dict[tuple[NormalizedName, str], list[CertRecord]] = {}
    for record in index.sorted_records():
        buckets.setdefault((record.subject, record.spki_digest), []).append(record)

    xs_groups: list[XSCertGroup] = []
    reissuance: list[XSCertGroup] = []
    for (subject, spki), members in buckets.items():
        distinct = [(a, b) for i, a in enumerate(members)
                    for b in members[i + 1:]
                    if distinct_issuers(a, b, index, mode)]
        if not distinct:
            continue
        pairs = [QualifyingPair(a.fingerprint, b.fingerprint, days)
                 for a, b in distinct
                 if (days := overlap_days(a, b)) >= overlap_min]
        qualified = {fp for p in pairs for fp in (p.a, p.b)}
        (xs_groups if pairs else reissuance).append(XSCertGroup(
            subject=subject,
            spki_digest=spki,
            records=tuple(members),
            qualifying_pairs=tuple(pairs),
            reissuance_members=tuple(r.fingerprint for r in members
                                     if r.fingerprint not in qualified),
        ))

    key = attrgetter("key")
    return sorted(xs_groups, key=key), sorted(reissuance, key=key)


def classify_type(group: XSCertGroup, anchors: frozenset[str]) -> str:
    """Group taxonomy: root (all CA, some member ever in a store),
    intermediate (all CA, never in a store), leaf (no CA member), leaf_mix
    (CA and leaf members share the key). `anchors` is every root ever in
    any store (`truststore.combined_anchors`): store membership has no time
    qualifier."""
    ca_flags = [r.ca_capable for r in group.records]
    if all(ca_flags):
        if any(r.fingerprint in anchors for r in group.records):
            return "root"
        return "intermediate"
    if not any(ca_flags):
        return "leaf"
    return "leaf_mix"


def classify_scope(group: XSCertGroup,
                   operator_map: Optional[OperatorMap]) -> str:
    """internal: every member's subject and issuer resolve to one common
    operator at the member's issuance; external: some member's issuer is a
    different operator; unknown: the map does not cover a participant."""
    if operator_map is None:
        return "unknown"
    ops: set[str] = set()
    any_unknown = False
    for record in group.records:
        subj_op, issuer_op = operator_map.issuance_operators(record)
        if subj_op is not None and issuer_op is not None and subj_op != issuer_op:
            return "external"
        if subj_op is None or issuer_op is None:
            any_unknown = True
        else:
            ops.update((subj_op, issuer_op))
    if any_unknown or len(ops) != 1:
        return "unknown"
    return "internal"


def classify_groups(groups: Iterable[XSCertGroup], anchors: frozenset[str],
                    operator_map: Optional[OperatorMap]) -> list[XSCertGroup]:
    return [replace(g,
                    xs_type=classify_type(g, anchors),
                    scope=classify_scope(g, operator_map))
            for g in groups]
