"""Category analyzers over cross-sign groups: residual trust after
revocation, PKI barrier breaches, trust deltas (bootstrapping / expansion /
extension / alternatives), algorithm transitions, ownership spans,
backdating, and revocation inconsistencies.

Analyzers are pure functions of their inputs and emit findings carrying
machine-checkable evidence (intervals, chains, record references).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from . import intervals
from .certmodel import CertRecord
from .constants import CATEGORIES, SEVERITY
from .pathengine import CertIndex, PathEnumeration, TrustAssessment
from .revocation import (COVERAGE_VIEW_ID, IssuerSerial, RevocationIndex,
                         RevocationView, matching_records, revocation_onset)
from .timeutil import DT_MAX, format_rfc3339
from .truststore import RootStoreTimeline, combined_anchors, rule_blocks_path
from .xsdetect import XSCertGroup, overlap_days

if TYPE_CHECKING:
    from .analysis import Run

DEFAULT_BACKDATING_SLACK_DAYS = 365

# Enumerated paths keyed by certificate fingerprint; built once per
# analysis run with its depth bound, mode and anchors.
Paths = Mapping[str, PathEnumeration]


@dataclass(frozen=True)
class Finding:
    """One finding about a cross-sign group, with its evidence."""

    category: str
    severity: str
    subject: str
    spki: str
    members: tuple[str, ...]
    evidence: dict

    def to_json(self) -> dict:
        return {
            "category": self.category,
            "severity": self.severity,
            "subject": self.subject,
            "spki": self.spki,
            "members": list(self.members),
            "evidence": self.evidence,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Finding":
        return cls(obj["category"], obj["severity"], obj["subject"],
                   obj["spki"], tuple(obj["members"]), obj["evidence"])


def _finding(category: str, group: XSCertGroup, evidence: dict) -> Finding:
    return Finding(
        category=category,
        severity=SEVERITY[category],
        subject=str(group.subject),
        spki=group.spki_digest,
        members=group.members,
        evidence=evidence,
    )


class AssessmentSet:
    """Trust assessments keyed by (certificate fingerprint, view id)."""

    def __init__(self, items: Iterable[TrustAssessment] = ()):
        self._by_key: dict[tuple[str, str], TrustAssessment] = {}
        for item in items:
            self.add(item)

    def add(self, assessment: TrustAssessment):
        self._by_key[(assessment.fingerprint, assessment.view_id)] = assessment

    def get(self, fingerprint: str, view_id: str) -> Optional[TrustAssessment]:
        return self._by_key.get((fingerprint, view_id))

    def trusted(self, fingerprint: str, view_id: str,
                store_id: str) -> list[intervals.Interval]:
        item = self.get(fingerprint, view_id)
        return item.intervals_for(store_id) if item else []

    def union_trusted(self, fingerprints: Iterable[str], view_id: str,
                      store_id: str) -> list[intervals.Interval]:
        out: list[intervals.Interval] = []
        for fp in fingerprints:
            out.extend(self.trusted(fp, view_id, store_id))
        return intervals.normalize(out)

    def covered_stores(self, fingerprint: str, view_id: str) -> set[str]:
        item = self.get(fingerprint, view_id)
        return item.covered_stores() if item else set()

    def all(self) -> list[TrustAssessment]:
        return [self._by_key[k] for k in sorted(self._by_key)]


def _iv_json(items: list[intervals.Interval]) -> list[dict]:
    return [{"from": format_rfc3339(s), "to": format_rfc3339(e)} for s, e in items]


# --- valid after revocation -------------------------------------------------

def _member_blocking_events(member: CertRecord, view: RevocationView,
                            store: RootStoreTimeline, run: Run,
                            paths: Paths) -> list[dict]:
    """Instants from which `member` should have stopped providing trust in
    this (view, store): revocation onsets, matching distrust rules, and the
    member's own removal from the store."""
    events: list[dict] = []
    hits = matching_records(member, view, run.revocations)
    if hits:
        events.append({
            "kind": "revocation", "member": member.fingerprint,
            "at": hits[0].effective_date,
            "sources": sorted({r.source.name for r in hits}),
        })
    for rule in store.distrust_rules:
        if not any(rule_blocks_path(rule, [member, run.index.get(root)],
                                    rule.effective_from)
                   for root in paths[member.fingerprint].roots):
            continue
        events.append({
            "kind": "distrust_rule", "member": member.fingerprint,
            "at": max(rule.effective_from, member.not_before),
            "description": rule.description,
        })
    for _, end in store.presence_intervals(member.fingerprint):
        if end != DT_MAX:
            events.append({
                "kind": "store_removal", "member": member.fingerprint,
                "at": end, "store": store.store_id,
            })
    return events


def find_valid_after_revocation(group: XSCertGroup, run: Run,
                                assessments: AssessmentSet,
                                paths: Paths) -> list[Finding]:
    """One finding per (view, store) where a member is revoked, rule-blocked
    or store-removed at t while the group's key stays trusted afterwards
    through another member or path."""
    members = [run.index.get(fp) for fp in group.members]
    findings = []
    for view in sorted(run.views, key=lambda v: v.consumer_id):
        for store in run.stores:
            events = []
            for member in members:
                events.extend(_member_blocking_events(
                    member, view, store, run, paths))
            if not events:
                continue
            trusted = assessments.union_trusted(group.members, view.consumer_id,
                                                store.store_id)
            windows = []
            hits = []
            for event in sorted(events, key=lambda e: (e["at"], e["kind"], e["member"])):
                after = intervals.intersect(trusted, [(event["at"], DT_MAX)])
                if after:
                    windows.extend(after)
                    hits.append({**event, "at": format_rfc3339(event["at"]),
                                 "window": _iv_json(after)})
            if hits:
                findings.append(_finding("valid_after_revocation", group, {
                    "view": view.consumer_id,
                    "store": store.store_id,
                    "events": hits,
                    "window": _iv_json(intervals.normalize(windows)),
                }))
    return findings


# --- PKI barrier breaches ---------------------------------------------------

def _path_nc_mitigation(member: CertRecord, index: CertIndex, paths: Paths,
                        target_roots: frozenset[str]) -> Optional[str]:
    """'nc_critical' / 'nc_noncritical' when every usable path of the member
    into the target roots passes a name-constrained CA; None otherwise."""
    flags = []
    for path in paths[member.fingerprint].paths:
        if path.root not in target_roots:
            continue
        constrained = [index.get(fp).name_constraints
                       for fp in path.chain if index.get(fp).name_constraints]
        if not constrained:
            return None
        flags.append("nc_critical" if any(nc.critical for nc in constrained)
                     else "nc_noncritical")
    if not flags:
        return None
    return "nc_critical" if all(f == "nc_critical" for f in flags) else "nc_noncritical"


def find_barrier_breach(groups: Sequence[XSCertGroup], run: Run,
                        assessments: AssessmentSet,
                        paths: Paths) -> list[Finding]:
    """A member reaches a store class the group's earliest member (its
    native anchoring) never reaches, under the coverage view. Empty native
    coverage is bootstrapping territory, not a breach."""
    index, view_id = run.index, COVERAGE_VIEW_ID
    class_of = {s.store_id: s.store_class for s in run.stores}
    findings = []
    for group in groups:
        members = group.chronological(index)
        native = members[0]
        native_stores = assessments.covered_stores(native.fingerprint, view_id)
        native_classes = {class_of[s] for s in native_stores}
        if not native_classes:
            continue
        for member in members[1:]:
            covered = assessments.covered_stores(member.fingerprint, view_id)
            new_stores = {s for s in covered
                          if class_of[s] not in native_classes}
            if not new_stores:
                continue
            target_roots = combined_anchors(
                st for st in run.stores if st.store_id in new_stores)
            mitigation = _path_nc_mitigation(member, index, paths, target_roots)
            findings.append(_finding("barrier_breach", group, {
                "member": member.fingerprint,
                "native_member": native.fingerprint,
                "native_classes": sorted(native_classes),
                "breached_classes": sorted({class_of[s] for s in new_stores}),
                "breached_stores": sorted(new_stores),
                "view": view_id,
                "mitigation": mitigation,
            }))
    return findings


# --- trust deltas: bootstrapping / expansion / extension / alternatives ----

def find_trust_deltas(group: XSCertGroup, run: Run,
                      assessments: AssessmentSet,
                      paths: Paths) -> list[Finding]:
    """Exactly one finding per XS group under the coverage view, with
    precedence: new stores beat longer validity beat alternative paths; a
    new-store member whose issuer is external while the group has no native
    anchor in the target store is bootstrapping."""
    view_id, operator_map = COVERAGE_VIEW_ID, run.operator_map
    store_ids = sorted({s.store_id for s in run.stores})
    members = group.chronological(run.index)

    new_store_members: list[tuple[CertRecord, list[str]]] = []
    extended_members: list[tuple[CertRecord, dict]] = []
    for member in members:
        rest = [fp for fp in group.members if fp != member.fingerprint]
        new_stores: list[str] = []
        extensions: dict[str, list[dict]] = {}
        for sid in store_ids:
            own = assessments.trusted(member.fingerprint, view_id, sid)
            if not own:
                continue
            rest_cover = assessments.union_trusted(rest, view_id, sid)
            if not rest_cover:
                new_stores.append(sid)
            else:
                extra = intervals.subtract(own, rest_cover)
                if extra:
                    extensions[sid] = _iv_json(extra)
        if new_stores:
            new_store_members.append((member, new_stores))
        elif extensions:
            extended_members.append((member, extensions))

    if new_store_members:
        category = "expanded_trust"
        store_map = {s.store_id: s for s in run.stores}
        detail = []
        for member, targets in new_store_members:
            external = False
            if operator_map is not None:
                subj_op, issuer_op = operator_map.issuance_operators(member)
                external = (subj_op is not None and issuer_op is not None
                            and subj_op != issuer_op)
            # Bootstrapping: the subject's native anchors are absent from the
            # target stores when the external cross-sign is issued.
            native_roots: set[str] = set()
            for other in members:
                if other.fingerprint == member.fingerprint:
                    continue
                native_roots.update(paths[other.fingerprint].roots)
            own_root_absent = all(
                sid in store_map and not (
                    native_roots & store_map[sid].active_roots(member.not_before))
                for sid in targets)
            bootstraps = external and own_root_absent
            detail.append({"member": member.fingerprint,
                           "new_stores": targets,
                           "external_issuer": external,
                           "own_root_absent_at_issuance": own_root_absent})
            if bootstraps:
                category = "bootstrapping"
        return [_finding(category, group, {
            "view": view_id, "expansions": detail})]
    if extended_members:
        return [_finding("extended_validity", group, {
            "view": view_id,
            "extensions": [{"member": m.fingerprint, "stores": ext}
                           for m, ext in extended_members]})]
    return [_finding("alternative_paths", group, {"view": view_id})]


# --- multiple signature algorithms ------------------------------------------

def find_multi_algorithm(group: XSCertGroup, index: CertIndex,
                         paths: Paths) -> list[Finding]:
    """Members (or their best paths) use differing signature algorithms."""
    members = [index.get(fp) for fp in group.members]
    direct = {m.fingerprint: m.signature_algorithm for m in members}
    path_algs: dict[str, list[str]] = {}
    for member in members:
        usable = paths[member.fingerprint].paths
        if usable:
            best = usable[0]
            path_algs[member.fingerprint] = sorted(
                {index.get(fp).signature_algorithm for fp in best.chain})
    differs = len(set(direct.values())) > 1 or len(
        {tuple(v) for v in path_algs.values()}) > 1
    if not differs:
        return []
    return [_finding("multi_algorithm", group, {
        "member_algorithms": dict(sorted(direct.items())),
        "path_algorithms": dict(sorted(path_algs.items())),
        "algorithm_set": sorted(set(direct.values())),
    })]


# --- ownership changes -------------------------------------------------------

def find_ownership_span(group: XSCertGroup, run: Run) -> list[Finding]:
    """A qualifying pair's joint validity window contains an ownership event
    affecting the group subject or either member's issuer."""
    operator_map = run.operator_map
    if operator_map is None:
        return []
    spans = []
    for pair in group.qualifying_pairs:
        a, b = run.index.get(pair.a), run.index.get(pair.b)
        start = max(a.not_before, b.not_before)
        end = min(a.not_after, b.not_after)
        names = [group.subject, a.issuer, b.issuer]
        events = [e for e in operator_map.events
                  if start <= e.date < end and any(e.matches(n) for n in names)]
        if events:
            spans.append({
                "pair": [pair.a, pair.b],
                "joint_validity": {"from": format_rfc3339(start),
                                   "to": format_rfc3339(end)},
                "events": [{
                    "date": format_rfc3339(e.date),
                    "from_operator": e.from_operator,
                    "to_operator": e.to_operator,
                } for e in events],
            })
    if not spans:
        return []
    return [_finding("ownership_change", group, {"spans": spans})]


# --- backdating ----------------------------------------------------------------

def find_backdating(group: XSCertGroup, index: CertIndex,
                    slack_days: int = DEFAULT_BACKDATING_SLACK_DAYS) -> list[Finding]:
    """Flags members whose not_before predates their issuer's certificate,
    and members predating the rest of the group by more than the slack while
    their issuing CA's certificate post-dates them."""
    members = [index.get(fp) for fp in group.members]
    findings = []
    for member in members:
        if member.self_signed:
            continue
        # Same-key records cannot have signed the member.
        candidates = [c for c in index.issuers_of(member)
                      if c.spki_digest != member.spki_digest]
        issuer_nb = min((c.not_before for c in candidates), default=None)
        reasons = []
        if issuer_nb is not None and member.not_before < issuer_nb:
            gap = (issuer_nb - member.not_before).days
            reasons.append({"kind": "precedes_issuer", "gap_days": gap,
                            "issuer_not_before": format_rfc3339(issuer_nb)})
        others = [m for m in members if m.fingerprint != member.fingerprint]
        earliest_other = min((m.not_before for m in others), default=None)
        if (earliest_other is not None and issuer_nb is not None
                and issuer_nb > member.not_before
                and (earliest_other - member.not_before) > timedelta(days=slack_days)):
            gap = (earliest_other - member.not_before).days
            reasons.append({"kind": "predates_group", "gap_days": gap,
                            "earliest_sibling": format_rfc3339(earliest_other)})
        if reasons:
            findings.append(_finding("backdating", group, {
                "member": member.fingerprint,
                "not_before": format_rfc3339(member.not_before),
                "reasons": reasons,
                "max_gap_days": max(r["gap_days"] for r in reasons),
            }))
    return findings


# --- revocation inconsistencies ----------------------------------------------

def _source_can_cover(source_name: str, member: CertRecord,
                      revocations: RevocationIndex) -> bool:
    # A CA CRL can only list certificates of issuers it speaks for.
    for rec in revocations:
        if rec.source.name != source_name:
            continue
        if not isinstance(rec.selector, IssuerSerial):
            return True
        if rec.selector.issuer == member.issuer:
            return True
    return False


def find_revocation_inconsistency(group: XSCertGroup,
                                  run: Run) -> list[Finding]:
    """Revoked-member sets differ across scopes (each vendor source, the CA
    CRLs together, each of the run's views in the order given), a revoked
    member has an unrevoked overlapping sibling, or siblings were revoked
    with a lag."""
    index, revocations, ca_sources = run.index, run.revocations, run.ca_sources
    members = [index.get(fp) for fp in group.members]
    relevant = [r for m in members
                for r in matching_records(m, run.every_source, revocations)]
    if not relevant:
        return []

    vendor_sources = sorted({r.source.name for r in relevant
                             if r.source.kind == "vendor"})
    # Each scope carries the CA CRLs of which one must be able to list a
    # member for its absence to count; any other list can list anything.
    scopes: list[tuple[str, RevocationView, tuple[str, ...]]] = []
    for name in vendor_sources:
        crls = (name,) if name in ca_sources else ()
        scopes.append((f"source:{name}",
                       RevocationView(name, frozenset([name])), crls))
    if ca_sources:
        scopes.append(("ca-crls", RevocationView("ca-crls",
                                                 frozenset(ca_sources)),
                       ca_sources))
    for view in run.views:
        scopes.append((f"view:{view.consumer_id}", view, ()))

    issues = []
    per_scope_sets: dict[str, frozenset[str]] = {}
    for label, view, crls in scopes:
        onsets: dict[str, datetime] = {}
        for member in members:
            onset = revocation_onset(member, view, revocations)
            if onset is not None:
                onsets[member.fingerprint] = onset
        per_scope_sets[label] = frozenset(onsets)
        if not onsets:
            continue
        for member in members:
            if member.fingerprint in onsets:
                continue
            if crls and not any(_source_can_cover(src, member, revocations)
                                for src in crls):
                continue
            overlapping = [fp for fp in onsets
                           if overlap_days(index.get(fp), member) > 0]
            if overlapping:
                issues.append({
                    "kind": "partial", "scope": label,
                    "revoked": sorted(onsets),
                    "unrevoked_sibling": member.fingerprint,
                })
        if len(onsets) >= 2:
            spread = max(onsets.values()) - min(onsets.values())
            if spread > timedelta(0):
                issues.append({
                    "kind": "lag", "scope": label,
                    "lag_days": spread.days,
                    "onsets": {fp: format_rfc3339(at)
                               for fp, at in sorted(onsets.items())},
                })

    labels = [lb for lb, _, _ in scopes if lb != "ca-crls"]
    distinct = {per_scope_sets[lb] for lb in labels if per_scope_sets[lb]}
    if len(distinct) > 1:
        issues.append({
            "kind": "divergence",
            "sets": {lb: sorted(per_scope_sets[lb]) for lb in labels},
        })

    if not issues:
        return []
    return [_finding("revocation_inconsistency", group, {"issues": issues})]


# --- orchestration -----------------------------------------------------------

def run_all(groups: Sequence[XSCertGroup], run: Run,
            assessments: AssessmentSet, paths: Paths) -> list[Finding]:
    """Run every analyzer over the cross-sign groups; deterministic order
    (category, then group key).

    `paths` holds every member's enumerated paths, the ones the
    assessments were built from. The barrier-breach and trust-delta
    analyzers read the assessments under the revocation-free coverage
    view."""
    findings: list[Finding] = []
    for group in groups:
        findings.extend(find_valid_after_revocation(
            group, run, assessments, paths))
        findings.extend(find_trust_deltas(group, run, assessments, paths))
        findings.extend(find_multi_algorithm(group, run.index, paths))
        findings.extend(find_ownership_span(group, run))
        findings.extend(find_backdating(group, run.index))
        findings.extend(find_revocation_inconsistency(group, run))
    findings.extend(find_barrier_breach(groups, run, assessments, paths))
    findings.sort(key=lambda f: (CATEGORIES.index(f.category),
                                 f.subject, f.spki,
                                 json.dumps(f.evidence, sort_keys=True)))
    return findings
