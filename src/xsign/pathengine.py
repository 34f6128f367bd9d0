"""Certificate relationship index, all-paths enumeration, and per-store
trust assessment over time.

Paths are built by name matching (child.issuer == parent.subject after
normalization), never by shortest-path search: every candidate chain up to
the depth bound is enumerated. Cycles are prevented by forbidding a repeated
SPKI digest within one path, which also tames mutual cross-sign pairs.

Trust is assessed per path: `path_trust` gives one path's fate in one
store (its allowed intervals and the events that can end them), and
`merge` combines such fates into the intervals of one assessment row.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Optional, Sequence

from . import intervals
from .certmodel import CertRecord, CryptoUnavailable, dns_identities, verify_signature
from .constants import DEFAULT_MAX_DEPTH, MODES
from .names import NormalizedName
from .revocation import (RevocationIndex, RevocationRecord, RevocationView,
                         matching_records)
from .timeutil import DT_MAX, format_rfc3339
from .truststore import (RootStoreTimeline, UnknownStore, combined_anchors,
                         rule_blocks_path)


_fingerprint = operator.attrgetter("fingerprint")


class CertIndex:
    """Immutable-after-build maps over a certificate corpus."""

    def __init__(self):
        self.records: dict[str, CertRecord] = {}
        # Each list in fingerprint order, kept sorted as records are added.
        self.by_subject: dict[NormalizedName, list[CertRecord]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.records

    def add(self, record: CertRecord) -> bool:
        """Idempotent by fingerprint; returns True when newly added."""
        if record.fingerprint in self.records:
            return False
        self.records[record.fingerprint] = record
        bisect.insort(self.by_subject.setdefault(record.subject, []), record,
                      key=_fingerprint)
        return True

    def get(self, fingerprint: str) -> CertRecord:
        return self.records[fingerprint]

    def subjects(self, name: NormalizedName) -> list[CertRecord]:
        """The records named `name`, in fingerprint order: the index's own
        list, which callers do not change."""
        return self.by_subject.get(name, [])

    def issuers_of(self, record: CertRecord) -> list[CertRecord]:
        """Candidate parents: records whose subject matches the issuer name."""
        return self.subjects(record.issuer)

    def sorted_records(self) -> list[CertRecord]:
        return [self.records[fp] for fp in sorted(self.records)]


def build_index(certs: Iterable[CertRecord]) -> CertIndex:
    index = CertIndex()
    for record in certs:
        index.add(record)
    return index


@dataclass(frozen=True)
class TrustPath:
    """One usable chain, leaf-side first, root-side last, with the window
    in which every member is valid."""

    chain: tuple[str, ...]
    validity: tuple[datetime, datetime]

    @property
    def root(self) -> str:
        return self.chain[-1]


@dataclass
class PathEnumeration:
    """`paths` holds the usable paths, shortest first; `roots` the root of
    every chain the mode builds, usable or not."""
    paths: list[TrustPath]
    roots: set[str] = field(default_factory=set)
    truncated: bool = False

    def usable_paths(self) -> list[TrustPath]:
        """`paths`, under the name the benchmark's tracer counts."""
        return self.paths


def _dns_matches_subtree(identity: str, subtree: str) -> bool:
    # RFC 5280 dNSName semantics: adding labels on the left satisfies the
    # constraint.
    return identity == subtree or identity.endswith("." + subtree)


def _nc_violated(records: Sequence[CertRecord], strict: bool) -> bool:
    """Whether a CA member's name constraints, if critical or in strict
    mode, exclude a certificate below it in the chain (records are leaf
    first). Subtree forms other than DNS names and directory names are not
    evaluated."""
    for idx in range(1, len(records)):
        nc = records[idx].name_constraints
        if nc is None or not (nc.critical or strict):
            continue
        dns_permitted = [s.value for s in nc.permitted if s.kind == "dns"]
        dir_permitted = [s.value for s in nc.permitted if s.kind == "dirname"]
        for member in records[:idx]:
            idents = dns_identities(member)
            if dns_permitted and idents:
                if not all(any(_dns_matches_subtree(i, p) for p in dns_permitted)
                           for i in idents):
                    return True
            if dir_permitted and not member.subject.is_empty:
                if not any(member.subject.startswith(p) for p in dir_permitted):
                    return True
            for sub in nc.excluded:
                if sub.kind == "dns" and any(
                        _dns_matches_subtree(i, sub.value) for i in idents):
                    return True
                if sub.kind == "dirname" and member.subject.startswith(sub.value):
                    return True
    return False


def _pathlen_ok(records: Sequence[CertRecord]) -> bool:
    # For the CA at position j (leaf first), the intermediates below it are
    # positions 1..j-1; self-issued members do not count (RFC 5280 style).
    for j in range(1, len(records)):
        limit = records[j].path_len_constraint
        if limit is None:
            continue
        below = sum(1 for r in records[1:j] if r.subject != r.issuer)
        if below > limit:
            return False
    return True


def _builds(records: Sequence[CertRecord], mode: str) -> bool:
    """Whether the mode builds the chain `records` (leaf first) at all: in
    strict mode no member has an unknown critical extension, in
    cryptographic mode every signature verifies."""
    if mode == "strict":
        return not any(r.unknown_critical for r in records)
    if mode == "cryptographic":
        try:
            return all(verify_signature(child, parent)
                       for child, parent in zip(records, records[1:]))
        except CryptoUnavailable:
            return False
    return True


def _usable_validity(records: Sequence[CertRecord], mode: str,
                     start: datetime,
                     end: datetime) -> Optional[tuple[datetime, datetime]]:
    """The window [`start`, `end`) in which every member of the built chain
    `records` (leaf first) is valid, or None when it is empty or the chain
    is unusable: an issuer that is not CA-capable, an exceeded path length,
    or a violated name constraint."""
    if (start < end and all(r.ca_capable for r in records[1:])
            and _pathlen_ok(records)
            and not _nc_violated(records, mode == "strict")):
        return start, end
    return None


def check_options(max_depth: int, mode: str) -> None:
    """Reject a depth bound or validation mode that enumeration cannot use."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")


def enumerate_paths(cert: CertRecord, index: CertIndex,
                    max_depth: int = DEFAULT_MAX_DEPTH,
                    mode: str = "structural",
                    anchors: frozenset[str] = frozenset()) -> PathEnumeration:
    """Every usable name-matching chain from `cert` to a terminal record,
    and the roots of every chain the mode builds.

    A chain terminates at a self-signed record or at a record listed in
    `anchors` (roots ever present in some store); terminal records with
    further parents also extend into longer chains. Hitting the depth bound
    with extensions left marks the enumeration truncated, which is data,
    not an error.
    """
    check_options(max_depth, mode)
    if cert.fingerprint not in index:
        raise KeyError(f"certificate {cert.fingerprint} not in index")

    result = PathEnumeration(paths=[])
    _walk([cert], {cert.spki_digest}, index, anchors, max_depth, mode, result,
          cert.not_before, cert.not_after)
    result.paths.sort(key=lambda p: (len(p.chain), p.chain))
    return result


def _walk(records: list[CertRecord], spkis: set[str], index: CertIndex,
          anchors: frozenset[str], max_depth: int, mode: str,
          result: PathEnumeration, start: datetime, end: datetime):
    """Extend the chain `records` (leaf first) depth first, adding the root
    of each terminated chain the mode builds to `result`, and the chain too
    when it is usable. [`start`, `end`) is the chain's window: its latest
    not_before and earliest not_after. A module-level function, not a
    closure: a recursive closure is a reference cycle that would keep
    `result` alive until the next garbage collection."""
    current = records[-1]
    if (current.self_signed or current.fingerprint in anchors) \
            and _builds(records, mode):
        result.roots.add(current.fingerprint)
        validity = _usable_validity(records, mode, start, end)
        if validity is not None:
            result.paths.append(TrustPath(
                tuple(r.fingerprint for r in records), validity))
    # A parent whose key is on the chain already is skipped; at the depth
    # bound, any other parent truncates the enumeration. The window is
    # narrowed by comparisons: the builtin `max` and `min` are slower on
    # datetimes.
    deep = len(records) >= max_depth
    for parent in index.issuers_of(current):
        spki = parent.spki_digest
        if spki in spkis:
            continue
        if deep:
            result.truncated = True
            return
        spkis.add(spki)
        records.append(parent)
        not_before, not_after = parent.not_before, parent.not_after
        _walk(records, spkis, index, anchors, max_depth, mode, result,
              not_before if not_before > start else start,
              not_after if not_after < end else end)
        records.pop()
        spkis.discard(spki)


@dataclass
class TrustInterval:
    """A maximal span of trust in one store, its paths and what ends it."""

    start: datetime
    end: datetime
    paths: list[tuple[str, ...]] = field(default_factory=list)
    blocked_by: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "from": format_rfc3339(self.start),
            "to": format_rfc3339(self.end),
            "paths": [list(chain) for chain in self.paths],
            "blocked_by": self.blocked_by,
        }


@dataclass
class TrustAssessment:
    """One certificate's trust intervals per store, under one view."""

    fingerprint: str
    view_id: str
    stores: dict[str, list[TrustInterval]] = field(default_factory=dict)

    def intervals_for(self, store_id: str) -> list[intervals.Interval]:
        return [(ti.start, ti.end) for ti in self.stores.get(store_id, [])]

    def covered_stores(self) -> set[str]:
        return {sid for sid, items in self.stores.items() if items}

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "view": self.view_id,
            "stores": {sid: [ti.to_json() for ti in items]
                       for sid, items in sorted(self.stores.items())},
        }


def assess_trust(cert: CertRecord, index: CertIndex,
                 stores: Sequence[RootStoreTimeline],
                 revocations: Sequence[RevocationRecord],
                 view: RevocationView,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 mode: str = "structural") -> TrustAssessment:
    """Enumerate `cert`'s paths into every store's roots, then assess them."""
    enumeration = enumerate_paths(cert, index, max_depth=max_depth, mode=mode,
                                  anchors=combined_anchors(stores))
    return assess_paths(cert, enumeration, index, stores,
                        RevocationIndex(revocations), view)


def path_trust(path: TrustPath, index: CertIndex, store: RootStoreTimeline,
               revocations: RevocationIndex,
               view: RevocationView) -> Optional[tuple]:
    """One path's fate in one store: None when it keeps no trust there,
    else its chain, the intervals in which it makes the leaf trusted
    (validity ∩ the root's presence, cut at the earliest revocation in the
    view or distrust rule), and the instants at which it can lose trust,
    with their causes: expiry, revocation, distrust rule, store removal."""
    presence = store.presence_intervals(path.root)
    allowed = intervals.intersect([path.validity], presence)
    if not allowed:
        return None
    records = [index.get(fp) for fp in path.chain]
    cutoffs = [(rec.effective_date, {
        "kind": "revocation", "member": member.fingerprint,
        "source": rec.source.name, "reason": rec.reason or ""})
        for member in records
        for rec in matching_records(member, view, revocations)]
    cutoffs += [(rule.effective_from, {
        "kind": "distrust_rule", "description": rule.description})
        for rule in store.distrust_rules
        if rule_blocks_path(rule, records, rule.effective_from)]
    cut = min((at for at, _ in cutoffs), default=DT_MAX)
    allowed = [(start, min(end, cut)) for start, end in allowed if start < cut]
    if not allowed:
        return None
    expiring = min(records, key=lambda r: r.not_after)
    events = [(path.validity[1], {
        "kind": "path_expiry", "member": expiring.fingerprint}), *cutoffs]
    events += [(end, {"kind": "store_removal",
                      "store": store.store_id, "root": path.root})
               for _, end in presence if end != DT_MAX]
    return path.chain, allowed, events


def merge(trusts: Iterable[Optional[tuple]]) -> list[TrustInterval]:
    """The maximal intervals in which some of `path_trust`'s results keeps
    trust (None entries are skipped), each with the chains that support it
    and the causes at its end: the events there of the supporting chains
    whose own trust ends there."""
    trusts = [trust for trust in trusts if trust is not None]
    if not trusts:
        return []
    out: list[TrustInterval] = []
    for start, end in intervals.normalize(
            [iv for _, allowed, _ in trusts for iv in allowed]):
        supporting = [(chain, allowed, events)
                      for chain, allowed, events in trusts
                      if intervals.intersect(allowed, [(start, end)])]
        causes = sorted({tuple(sorted(cause.items()))
                         for _, allowed, events in supporting
                         if any(e == end for _, e in allowed)
                         for at, cause in events if at == end})
        out.append(TrustInterval(
            start=start, end=end,
            paths=sorted({chain for chain, _, _ in supporting},
                         key=lambda c: (len(c), c)),
            blocked_by=[dict(c) for c in causes]))
    return out


def assess_paths(cert: CertRecord, enumeration: PathEnumeration,
                 index: CertIndex,
                 stores: Sequence[RootStoreTimeline],
                 revocations: RevocationIndex,
                 view: RevocationView) -> TrustAssessment:
    """Per store, the maximal intervals during which some enumerated path
    makes `cert` trusted: path validity covers the instant, the path root is
    in the store, no member is revoked in the view, and no distrust rule
    blocks the path."""
    return TrustAssessment(cert.fingerprint, view.consumer_id, {
        store.store_id: merge([
            path_trust(path, index, store, revocations, view)
            for path in enumeration.paths])
        for store in stores})


def select_stores(stores: Sequence[RootStoreTimeline],
                  store_ids: Optional[Sequence[str]]) -> list[RootStoreTimeline]:
    if store_ids is None:
        return list(stores)
    known: dict[str, RootStoreTimeline] = {}
    for store in stores:
        if store.store_id in known:
            raise ValueError(f"duplicate store id {store.store_id!r}")
        known[store.store_id] = store
    repeated = sorted({sid for sid in store_ids if store_ids.count(sid) > 1})
    if repeated:
        raise ValueError(f"store id(s) given more than once: "
                         f"{', '.join(repeated)}")
    missing = [sid for sid in store_ids if sid not in known]
    if missing:
        raise UnknownStore(f"unknown store(s): {', '.join(missing)}")
    return [known[sid] for sid in store_ids]
