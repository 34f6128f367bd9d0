"""End-to-end corpus analysis: index, group, assess per view, run the
finding analyzers, and lint. One deterministic entry point shared by the
CLI, the scenario scripts, and the test suites.

There is one route, `analyze_corpus`; `lint_corpus` is that route with
its assessment rows left unread. It starts from one `Run`, built by
`build_run`: the index, the stores sorted by id, their anchor union, the
revocation index (which also holds the CA-CRL source names), the views in
the order given, the operator map, the options, the extensions, the
explanations, the lint instant, and the paths and assessments of the
cross-sign members only. Each is built once, and every analyzer (which
takes a group and the run) and every lint reads it from there. Every other
certificate is enumerated and assessed when its assessment rows are read,
and dropped after them."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from . import findings as findings_mod
from . import xsext
from .certmodel import CertRecord
from .constants import (DEFAULT_MAX_DEPTH, DEFAULT_MAX_VALIDITY_DAYS,
                        DEFAULT_OVERLAP_MIN_DAYS)
from .findings import Finding
from .pathengine import (CertIndex, PathEnumeration, TrustAssessment,
                         assess_paths, build_index, check_options,
                         enumerate_paths)
from .revocation import (COVERAGE_VIEW_ID, RevocationIndex, RevocationRecord,
                         RevocationView, check_view_ids)
from .truststore import (OperatorMap, RootStoreTimeline, check_store_ids,
                         combined_anchors)
from .xsdetect import XSCertGroup, classify_groups, group_xs

# Synthetic revocation-free view backing coverage-style analyzers. It never
# shows up in assessment reports.
COVERAGE_VIEW = RevocationView(COVERAGE_VIEW_ID, frozenset())
_NO_EXTENSIONS: Mapping[str, xsext.XsExtension] = MappingProxyType({})


@dataclass(frozen=True)
class AnalysisOptions:
    """The options an analysis runs with, checked when they are made."""

    max_depth: int = DEFAULT_MAX_DEPTH
    overlap_min: int = DEFAULT_OVERLAP_MIN_DAYS
    mode: str = "structural"
    max_validity_days: int = DEFAULT_MAX_VALIDITY_DAYS

    def __post_init__(self):
        # Checked here, not at the first enumeration, so that a run that
        # enumerates nothing (lint on a corpus without cross-sign groups)
        # still rejects a bad depth bound, mode or limit.
        check_options(self.max_depth, self.mode)
        if self.overlap_min < 0:
            raise ValueError("overlap_min must be >= 0")
        if self.max_validity_days < 1:
            raise ValueError("max_validity_days must be >= 1")


@dataclass(frozen=True)
class Run:
    """The facts of one run that depend only on its inputs, each built once
    by `build_run` and read by every helper, analyzer and lint."""
    index: CertIndex
    stores: tuple[RootStoreTimeline, ...]    # sorted by store id
    anchors: frozenset[str]                  # every root ever in a store
    revocations: RevocationIndex
    views: tuple[RevocationView, ...]        # in the order given
    operator_map: Optional[OperatorMap]
    options: AnalysisOptions
    extensions: Mapping[str, xsext.XsExtension]
    explanations: frozenset[str]
    lint_at: Optional[datetime]              # lint instant: latest snapshot
    # The cross-sign members' paths, by fingerprint, and their assessments
    # under the coverage view and every view, by (fingerprint, view id).
    paths: dict[str, PathEnumeration]
    assessments: dict[tuple[str, str], TrustAssessment]


def build_run(records: Sequence[CertRecord],
              stores: Sequence[RootStoreTimeline],
              revocations: Sequence[RevocationRecord],
              views: Sequence[RevocationView],
              operator_map: Optional[OperatorMap] = None,
              options: AnalysisOptions = AnalysisOptions(),
              extensions: Mapping[str, xsext.XsExtension] = _NO_EXTENSIONS,
              explanations: Sequence[str] = ()
              ) -> tuple[Run, list[XSCertGroup], list[XSCertGroup]]:
    """The run, its classified cross-sign groups and its reissuance
    groups. A view id given twice or reserved, or a store id given twice,
    raises ValueError."""
    check_view_ids(views)
    check_store_ids(stores)
    index = build_index(records)
    stores = tuple(sorted(stores, key=lambda s: s.store_id))
    revocations = RevocationIndex(revocations)
    run = Run(
        index=index, stores=stores, anchors=combined_anchors(stores),
        revocations=revocations, views=tuple(views),
        operator_map=operator_map, options=options,
        extensions=extensions, explanations=frozenset(explanations),
        lint_at=max((snapshot.effective_date for store in stores
                     for snapshot in store.snapshots), default=None),
        paths={}, assessments={})
    xs_groups, reissuance = group_xs(index, overlap_min=options.overlap_min,
                                     mode=options.mode)
    xs_groups = classify_groups(xs_groups, run.anchors, operator_map)
    # Each member once, in group order. Its paths are enumerated once and
    # shared by the assessments of every view, the finding analyzers, the
    # lints and the rows. The coverage view's assessments are a
    # cross-sign's intended reach, not its fate: the trust-delta and
    # barrier-breach analyzers and lint V4 read them.
    members = [record for group in xs_groups for record in group.records]
    run.paths.update((r.fingerprint, _enumerate(run, r)) for r in members)
    run.assessments.update(
        ((r.fingerprint, view.consumer_id),
         assess_paths(r, run.paths[r.fingerprint], run.stores,
                      run.revocations, view))
        for view in (COVERAGE_VIEW, *run.views) for r in members)
    return run, xs_groups, reissuance


def _enumerate(run: Run, record: CertRecord) -> PathEnumeration:
    """`record`'s paths under the run's depth bound, mode and anchors."""
    return enumerate_paths(record, run.index, max_depth=run.options.max_depth,
                           mode=run.options.mode, anchors=run.anchors)


class AssessmentRows:
    """The assessment report's rows: every certificate under every view
    but the coverage view, by fingerprint and then view id. They can be
    read once. A cross-sign member's rows come from the analysis; any other
    certificate is enumerated and assessed when its rows are reached, and
    dropped after them, so each certificate is still enumerated once per
    run. `truncated` lists, in fingerprint order, the certificates whose
    enumeration the depth bound cut short; it is complete once the rows
    have been read."""

    def __init__(self, run: Run):
        self._run: Optional[Run] = run
        self.truncated: list[str] = []

    def __iter__(self) -> Iterator[TrustAssessment]:
        run, self._run = self._run, None
        if run is None:
            raise RuntimeError("the assessment rows can be read once")
        return self._stream(run)

    def _stream(self, run: Run) -> Iterator[TrustAssessment]:
        views = sorted(run.views, key=lambda v: v.consumer_id)
        for record in run.index.sorted_records():
            fp = record.fingerprint
            enumeration = run.paths.get(fp)
            if enumeration is None:
                enumeration = _enumerate(run, record)
                rows = (assess_paths(record, enumeration, run.stores,
                                     run.revocations, view)
                        for view in views)
            else:
                rows = (run.assessments[fp, view.consumer_id]
                        for view in views)
            if enumeration.truncated:
                self.truncated.append(fp)
            yield from rows


@dataclass
class AnalysisResult:
    """`assessments` holds the cross-sign members' assessments only, under
    every view and the coverage view, keyed by (fingerprint, view id);
    `rows` yields every certificate's."""
    xs_groups: list[XSCertGroup]
    reissuance_groups: list[XSCertGroup]
    assessments: dict[tuple[str, str], TrustAssessment]
    rows: AssessmentRows
    findings: list[Finding]
    verdicts: list[xsext.LintVerdict]
    truncated_members: list[str]


def analyze_corpus(records: Sequence[CertRecord],
                   stores: Sequence[RootStoreTimeline],
                   revocations: Sequence[RevocationRecord],
                   views: Sequence[RevocationView],
                   operator_map: Optional[OperatorMap] = None,
                   options: AnalysisOptions = AnalysisOptions(),
                   extensions: Mapping[str,
                                       xsext.XsExtension] = _NO_EXTENSIONS,
                   explanations: Sequence[str] = ()) -> AnalysisResult:
    """Group, assess the cross-sign members under every view, run the
    finding analyzers and lint the cross-sign groups, at the options'
    `max_validity_days`. The other certificates are assessed as
    `result.rows` is read."""
    run, xs_groups, reissuance = build_run(
        records, stores, revocations, views, operator_map, options,
        extensions, explanations)
    all_findings = findings_mod.run_all(xs_groups, run)
    covered = {fp: run.assessments[fp, COVERAGE_VIEW_ID].covered_stores()
               for fp in run.paths}
    inconsistent = {(f.subject, f.spki) for f in all_findings
                    if f.category == "revocation_inconsistency"}
    verdicts = sorted(
        (verdict for group in xs_groups
         for verdict in xsext.lint_cross_sign(
             group, run, covered, group.key in inconsistent)),
        key=lambda v: (v.code, v.member, v.detail))
    return AnalysisResult(
        xs_groups=xs_groups, reissuance_groups=reissuance,
        assessments=run.assessments, rows=AssessmentRows(run),
        findings=all_findings, verdicts=verdicts,
        truncated_members=[fp for fp, e in run.paths.items() if e.truncated])


def lint_corpus(records: Sequence[CertRecord],
                stores: Sequence[RootStoreTimeline],
                revocations: Sequence[RevocationRecord],
                views: Sequence[RevocationView],
                operator_map: Optional[OperatorMap] = None,
                options: AnalysisOptions = AnalysisOptions(),
                extensions: Mapping[str,
                                    xsext.XsExtension] = _NO_EXTENSIONS,
                explanations: Sequence[str] = ()
                ) -> tuple[list[xsext.LintVerdict], list[str]]:
    """Lint every cross-sign group: `analyze_corpus`, whose rows are never
    read, so that no certificate but a cross-sign member is enumerated or
    assessed. Returns the verdicts and the members whose enumeration the
    depth bound cut short."""
    result = analyze_corpus(records, stores, revocations, views,
                            operator_map, options, extensions, explanations)
    return result.verdicts, result.truncated_members
