"""End-to-end corpus analysis: index, group, assess per view, run the
finding analyzers, and lint. One deterministic entry point shared by the
CLI, the scenario scripts, and the test suites.

There is one route, `analyze_corpus`; `lint_corpus` is that route with
its assessment rows left unread. It starts from one `Run`, built by
`build_run`: the index, the stores sorted by id, their anchor union, the
revocation index, the all-sources view, the CA-CRL source names, the views
in the order given, the operator map, the options, the extensions and the
explanations. Each is built once per run, and every analyzer and lint
reads it from there. The analyzers and the lints read paths and
assessments of cross-sign members only, so those are all an analysis
keeps; every other certificate is enumerated and assessed when its
assessment rows are read, and dropped after them."""

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
from .findings import AssessmentSet, Finding, Paths
from .pathengine import (CertIndex, PathEnumeration, TrustAssessment,
                         assess_paths, build_index, check_options,
                         enumerate_paths)
from .revocation import (COVERAGE_VIEW_ID, RevocationIndex, RevocationRecord,
                         RevocationView, all_sources_view, check_view_ids)
from .truststore import OperatorMap, RootStoreTimeline, combined_anchors
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
    every_source: RevocationView             # accepts every source
    ca_sources: tuple[str, ...]              # the CA-CRL sources, sorted
    views: tuple[RevocationView, ...]        # in the order given
    operator_map: Optional[OperatorMap]
    options: AnalysisOptions
    extensions: Mapping[str, xsext.XsExtension]
    explanations: frozenset[str]
    lint_at: Optional[datetime]              # lint instant: latest snapshot


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
    groups."""
    index = build_index(records)
    stores = tuple(sorted(stores, key=lambda s: s.store_id))
    revocations = RevocationIndex(revocations)
    run = Run(
        index=index, stores=stores, anchors=combined_anchors(stores),
        revocations=revocations, every_source=all_sources_view(revocations),
        ca_sources=tuple(sorted({r.source.name for r in revocations
                                 if r.source.kind == "ca_crl"})),
        views=tuple(views), operator_map=operator_map, options=options,
        extensions=extensions, explanations=frozenset(explanations),
        lint_at=max((snapshot.effective_date for store in stores
                     for snapshot in store.snapshots), default=None))
    xs_groups, reissuance = group_xs(index, overlap_min=options.overlap_min,
                                     mode=options.mode)
    return (run, classify_groups(xs_groups, run.anchors, operator_map, index),
            reissuance)


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

    def __init__(self, run: Run, paths: Paths, assessments: AssessmentSet):
        self._inputs = (run, paths, assessments)
        self.truncated: list[str] = []

    def __iter__(self) -> Iterator[TrustAssessment]:
        inputs, self._inputs = self._inputs, None
        if inputs is None:
            raise RuntimeError("the assessment rows can be read once")
        return self._stream(*inputs)

    def _stream(self, run: Run, paths: Paths,
                assessments: AssessmentSet) -> Iterator[TrustAssessment]:
        views = sorted(run.views, key=lambda v: v.consumer_id)
        for record in run.index.sorted_records():
            fp = record.fingerprint
            enumeration = paths.get(fp)
            if enumeration is None:
                enumeration = _enumerate(run, record)
                rows = (assess_paths(record, enumeration, run.index,
                                     run.stores, run.revocations, view)
                        for view in views)
            else:
                rows = (assessments.get(fp, view.consumer_id)
                        for view in views)
            if enumeration.truncated:
                self.truncated.append(fp)
            yield from rows


@dataclass
class AnalysisResult:
    """`assessments` holds the cross-sign members' assessments only, under
    every view and the coverage view; `rows` yields every certificate's."""
    index: CertIndex
    xs_groups: list[XSCertGroup]
    reissuance_groups: list[XSCertGroup]
    assessments: AssessmentSet
    rows: AssessmentRows
    findings: list[Finding]
    views: list[RevocationView]
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
    check_view_ids(views)
    run, xs_groups, reissuance = build_run(
        records, stores, revocations, views, operator_map, options,
        extensions, explanations)
    # Each member once, in group order. Its paths are enumerated once and
    # shared by the assessments of every view, the finding analyzers, the
    # lints and the rows. The coverage view's assessments are a
    # cross-sign's intended reach, not its fate: the trust-delta and
    # barrier-breach analyzers and lint V4 read them.
    members = {fp: run.index.get(fp)
               for group in xs_groups for fp in group.members}
    paths = {fp: _enumerate(run, record) for fp, record in members.items()}
    assessments = AssessmentSet(
        assess_paths(record, paths[fp], run.index, run.stores,
                     run.revocations, view)
        for view in (COVERAGE_VIEW, *run.views)
        for fp, record in members.items())

    all_findings = findings_mod.run_all(xs_groups, run, assessments, paths)
    covered = {fp: assessments.covered_stores(fp, COVERAGE_VIEW_ID)
               for fp in members}
    inconsistent = {(f.subject, f.spki) for f in all_findings
                    if f.category == "revocation_inconsistency"}
    verdicts = sorted(
        (verdict for group in xs_groups
         for verdict in xsext.lint_cross_sign(
             group, run, covered, group.key in inconsistent)),
        key=lambda v: (v.code, v.member, v.detail))
    return AnalysisResult(
        index=run.index, xs_groups=xs_groups, reissuance_groups=reissuance,
        assessments=assessments,
        rows=AssessmentRows(run, paths, assessments),
        findings=all_findings, views=list(views), verdicts=verdicts,
        truncated_members=[fp for fp in members if paths[fp].truncated])


def lint_corpus(records: Sequence[CertRecord],
                stores: Sequence[RootStoreTimeline],
                revocations: Sequence[RevocationRecord],
                extensions: Mapping[str, xsext.XsExtension],
                views: Sequence[RevocationView],
                operator_map: Optional[OperatorMap] = None,
                options: AnalysisOptions = AnalysisOptions(),
                explanations: Sequence[str] = ()
                ) -> tuple[list[xsext.LintVerdict], list[str]]:
    """Lint every cross-sign group: `analyze_corpus`, whose rows are never
    read, so that no certificate but a cross-sign member is enumerated or
    assessed. Returns the verdicts and the members whose enumeration the
    depth bound cut short."""
    result = analyze_corpus(records, stores, revocations, views,
                            operator_map, options, extensions, explanations)
    return result.verdicts, result.truncated_members
