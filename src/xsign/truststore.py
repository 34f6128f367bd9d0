"""Time-versioned root stores, distrust ("not before") rules, and the
CA-operator / ownership map."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Optional, Sequence

from . import intervals
from .certmodel import CertRecord
from .names import NormalizedName, normalize_name
from .timeutil import DT_MAX, parse_rfc3339, format_rfc3339

STORE_CLASSES = ("web", "government", "grid", "other")


class AmbiguousOperator(ValueError):
    """Two operator spans match the same (matcher, instant)."""


class UnknownStore(KeyError):
    pass


@dataclass(frozen=True)
class StoreSnapshot:
    """The roots of a store from `effective_date` until the next snapshot."""

    effective_date: datetime
    roots: frozenset[str]


@dataclass(frozen=True)
class DistrustRule:
    """Blocks paths ending in a matching anchor when the path's leaf-most
    certificate was issued (not_before) strictly after the cutoff."""

    issued_after: datetime
    effective_from: datetime
    anchors: frozenset[str] = frozenset()
    anchor_subjects: tuple[NormalizedName, ...] = ()
    description: str = ""

    def matches_anchor(self, root: CertRecord) -> bool:
        if root.fingerprint in self.anchors:
            return True
        return any(root.subject == subj for subj in self.anchor_subjects)

    def to_json(self) -> dict:
        return {
            "anchors": sorted(self.anchors),
            "anchor_subjects": [str(s) for s in self.anchor_subjects],
            "issued_after": format_rfc3339(self.issued_after),
            "effective_from": format_rfc3339(self.effective_from),
            "description": self.description,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DistrustRule":
        return cls(
            anchors=frozenset(str(a).lower() for a in obj.get("anchors", [])),
            anchor_subjects=tuple(normalize_name(s)
                                  for s in obj.get("anchor_subjects", [])),
            issued_after=parse_rfc3339(obj["issued_after"]),
            effective_from=parse_rfc3339(obj["effective_from"]),
            description=obj.get("description", ""),
        )


@dataclass
class RootStoreTimeline:
    """One root store over time: its snapshots and distrust rules."""

    store_id: str
    store_class: str = "other"
    snapshots: list[StoreSnapshot] = field(default_factory=list)
    distrust_rules: list[DistrustRule] = field(default_factory=list)

    def __post_init__(self):
        if self.store_class not in STORE_CLASSES:
            raise ValueError(f"unknown store class {self.store_class!r}")
        self.snapshots = sorted(self.snapshots, key=lambda s: s.effective_date)
        dates = [s.effective_date for s in self.snapshots]
        if len(set(dates)) != len(dates):
            raise ValueError(f"duplicate snapshot dates in store {self.store_id}")
        self._dates = dates

    def active_roots(self, at: datetime) -> frozenset[str]:
        """Roots of the latest snapshot at or before `at`; empty before the
        first snapshot."""
        idx = bisect.bisect_right(self._dates, at) - 1
        if idx < 0:
            return frozenset()
        return self.snapshots[idx].roots

    def ever_roots(self) -> frozenset[str]:
        out: set[str] = set()
        for snap in self.snapshots:
            out.update(snap.roots)
        return frozenset(out)

    def presence_intervals(self, fingerprint: str) -> list[intervals.Interval]:
        """Maximal intervals during which `fingerprint` is in the store."""
        out: list[intervals.Interval] = []
        for i, snap in enumerate(self.snapshots):
            if fingerprint in snap.roots:
                end = self.snapshots[i + 1].effective_date if i + 1 < len(self.snapshots) else DT_MAX
                out.append((snap.effective_date, end))
        return intervals.normalize(out)

    def to_json(self) -> dict:
        return {
            "store_id": self.store_id,
            "store_class": self.store_class,
            "snapshots": [
                {"date": format_rfc3339(s.effective_date), "roots": sorted(s.roots)}
                for s in self.snapshots
            ],
            "distrust_rules": [r.to_json() for r in self.distrust_rules],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RootStoreTimeline":
        return cls(
            store_id=obj["store_id"],
            store_class=obj.get("store_class", "other"),
            snapshots=[
                StoreSnapshot(parse_rfc3339(s["date"]),
                              frozenset(str(fp).lower() for fp in s["roots"]))
                for s in obj.get("snapshots", [])
            ],
            distrust_rules=[DistrustRule.from_json(r)
                            for r in obj.get("distrust_rules", [])],
        )


def rule_blocks_path(rule: DistrustRule, path: Sequence[CertRecord],
                     at: datetime) -> bool:
    """Path is leaf first, root last. Blocks from effective_from onward when
    the root matches and the leaf was issued strictly after the cutoff."""
    if at < rule.effective_from:
        return False
    if not path or not rule.matches_anchor(path[-1]):
        return False
    return path[0].not_before > rule.issued_after


def combined_anchors(stores: Iterable[RootStoreTimeline]) -> frozenset[str]:
    """Union of every root ever present in any store."""
    out: set[str] = set()
    for store in stores:
        out.update(store.ever_roots())
    return frozenset(out)


@dataclass(frozen=True)
class OperatorSpan:
    """An operator's control of subjects or certificates over a window."""

    operator_id: str
    subjects: tuple[NormalizedName, ...] = ()
    fingerprints: frozenset[str] = frozenset()
    valid_from: Optional[datetime] = None
    valid_to: Optional[datetime] = None

    def matches_name(self, name: NormalizedName, at: datetime) -> bool:
        return self._in_window(at) and any(name == s for s in self.subjects)

    def matches_cert(self, cert: CertRecord, at: datetime) -> bool:
        if not self._in_window(at):
            return False
        return cert.fingerprint in self.fingerprints or any(
            cert.subject == s for s in self.subjects)

    def _in_window(self, at: datetime) -> bool:
        if self.valid_from is not None and at < self.valid_from:
            return False
        if self.valid_to is not None and at >= self.valid_to:
            return False
        return True


@dataclass(frozen=True)
class OwnershipEvent:
    """The subjects that passed from one operator to another on a date."""

    date: datetime
    subjects: tuple[NormalizedName, ...]
    from_operator: str
    to_operator: str

    def matches(self, name: NormalizedName) -> bool:
        return any(name == s for s in self.subjects)


class OperatorMap:
    """Resolves which operator controls a subject at an instant.

    Static spans assign operators over optional validity windows; ownership
    events reassign matching subjects from their date onward. Overlapping
    spans for the same matcher are rejected at load time, never at query
    time.
    """

    def __init__(self, spans: Iterable[OperatorSpan] = (),
                 events: Iterable[OwnershipEvent] = ()):
        self.spans = list(spans)
        self.events = sorted(events, key=lambda e: (e.date, e.to_operator))
        self._check_overlaps()

    def _check_overlaps(self):
        for i, a in enumerate(self.spans):
            for b in self.spans[i + 1:]:
                if a.operator_id == b.operator_id:
                    continue
                shared = (set(a.fingerprints) & set(b.fingerprints)) or (
                    set(a.subjects) & set(b.subjects))
                if not shared:
                    continue
                a_from, a_to = a.valid_from, a.valid_to
                b_from, b_to = b.valid_from, b.valid_to
                starts_before_b_ends = b_to is None or a_from is None or a_from < b_to
                b_starts_before_a_ends = a_to is None or b_from is None or b_from < a_to
                if starts_before_b_ends and b_starts_before_a_ends:
                    raise AmbiguousOperator(
                        f"operators {a.operator_id!r} and {b.operator_id!r} "
                        f"overlap on a shared matcher")

    def operator_for_name(self, name: NormalizedName, at: datetime) -> Optional[str]:
        matching_events = [e for e in self.events if e.matches(name)]
        if matching_events:
            past = [e for e in matching_events if e.date <= at]
            if past:
                return past[-1].to_operator
            return matching_events[0].from_operator
        for span in self.spans:
            if span.matches_name(name, at):
                return span.operator_id
        return None

    def operator_of(self, cert: CertRecord, at: datetime) -> Optional[str]:
        by_name = self.operator_for_name(cert.subject, at)
        if by_name is not None:
            return by_name
        for span in self.spans:
            if span.matches_cert(cert, at):
                return span.operator_id
        return None

    def issuance_operators(self, cert: CertRecord
                           ) -> tuple[Optional[str], Optional[str]]:
        """The operators of the certificate's subject and of its issuer at
        the certificate's issuance; None where the map has none."""
        return (self.operator_of(cert, cert.not_before),
                self.operator_for_name(cert.issuer, cert.not_before))

    def to_json(self) -> dict:
        return {
            "operators": [
                {
                    "operator_id": s.operator_id,
                    "subjects": [str(n) for n in s.subjects],
                    "fingerprints": sorted(s.fingerprints),
                    "valid_from": format_rfc3339(s.valid_from) if s.valid_from else None,
                    "valid_to": format_rfc3339(s.valid_to) if s.valid_to else None,
                }
                for s in self.spans
            ],
            "ownership_events": [
                {
                    "date": format_rfc3339(e.date),
                    "subjects": [str(n) for n in e.subjects],
                    "from_operator": e.from_operator,
                    "to_operator": e.to_operator,
                }
                for e in self.events
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorMap":
        spans = [
            OperatorSpan(
                operator_id=s["operator_id"],
                subjects=tuple(normalize_name(n) for n in s.get("subjects", [])),
                fingerprints=frozenset(str(fp).lower()
                                       for fp in s.get("fingerprints", [])),
                valid_from=parse_rfc3339(s["valid_from"]) if s.get("valid_from") else None,
                valid_to=parse_rfc3339(s["valid_to"]) if s.get("valid_to") else None,
            )
            for s in obj.get("operators", [])
        ]
        events = [
            OwnershipEvent(
                date=parse_rfc3339(e["date"]),
                subjects=tuple(normalize_name(n) for n in e.get("subjects", [])),
                from_operator=e["from_operator"],
                to_operator=e["to_operator"],
            )
            for e in obj.get("ownership_events", [])
        ]
        return cls(spans, events)
