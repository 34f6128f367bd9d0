"""End-to-end corpus analysis: index, group, assess per view, run the
finding analyzers, and lint. One deterministic entry point shared by the
CLI, the scenario scripts, and the test suites. Both entry points group,
enumerate paths, assess member coverage and lint through the same helpers,
and look revocations up in one index built per run. The analyzers and the
lints read paths and assessments of cross-sign members only, so those are
all an analysis keeps; every other certificate is enumerated and assessed
when its assessment rows are read, and dropped after them."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import findings as findings_mod
from . import xsext
from .certmodel import CertRecord
from .findings import AssessmentSet, Finding, Paths
from .pathengine import (DEFAULT_MAX_DEPTH, CertIndex, PathEnumeration,
                         TrustAssessment, assess_paths, build_index,
                         check_options, enumerate_paths)
from .revocation import (COVERAGE_VIEW_ID, RevocationIndex, RevocationRecord,
                         RevocationView, check_view_ids)
from .truststore import OperatorMap, RootStoreTimeline, combined_anchors
from .xsdetect import DEFAULT_OVERLAP_MIN_DAYS, XSCertGroup, classify_groups, group_xs

# Synthetic revocation-free view backing coverage-style analyzers. It never
# shows up in assessment reports.
COVERAGE_VIEW = RevocationView(COVERAGE_VIEW_ID, frozenset())
_NO_EXTENSIONS: Mapping[str, xsext.XsExtension] = MappingProxyType({})


@dataclass(frozen=True)
class AnalysisOptions:
    max_depth: int = DEFAULT_MAX_DEPTH
    overlap_min: int = DEFAULT_OVERLAP_MIN_DAYS
    mode: str = "structural"
    max_validity_days: int = xsext.DEFAULT_MAX_VALIDITY_DAYS

    def __post_init__(self):
        # Checked here, not at the first enumeration, so that a run that
        # enumerates nothing (lint on a corpus without cross-sign groups)
        # still rejects a bad depth bound or mode.
        check_options(self.max_depth, self.mode)


class AssessmentRows:
    """The assessment report's rows: every certificate under every view
    but the coverage view, by fingerprint and then view id. They can be
    read once. A cross-sign member's rows come from the analysis; any other
    certificate is enumerated and assessed when its rows are reached, and
    dropped after them, so each certificate is still enumerated once per
    run. `truncated` lists, in fingerprint order, the certificates whose
    enumeration the depth bound cut short; it is complete once the rows
    have been read."""

    def __init__(self, index: CertIndex, stores: Sequence[RootStoreTimeline],
                 revocations: RevocationIndex,
                 views: Sequence[RevocationView], options: AnalysisOptions,
                 paths: Paths, assessments: AssessmentSet):
        self._run = (index, stores, revocations,
                     sorted(views, key=lambda v: v.consumer_id), options,
                     paths, assessments)
        self.truncated: list[str] = []

    def __iter__(self) -> Iterator[TrustAssessment]:
        run, self._run = self._run, None
        if run is None:
            raise RuntimeError("the assessment rows can be read once")
        return self._stream(*run)

    def _stream(self, index, stores, revocations, views, options, paths,
                assessments) -> Iterator[TrustAssessment]:
        anchors = combined_anchors(stores)
        for record in index.sorted_records():
            fp = record.fingerprint
            enumeration = paths.get(fp)
            if enumeration is None:
                enumeration = enumerate_paths(
                    record, index, max_depth=options.max_depth,
                    mode=options.mode, anchors=anchors)
                rows = (assess_paths(record, enumeration, index, stores,
                                     revocations, view) for view in views)
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


def _group_corpus(records: Sequence[CertRecord],
                  stores: Sequence[RootStoreTimeline],
                  operator_map: Optional[OperatorMap],
                  options: AnalysisOptions):
    """The index, the classified cross-sign groups and the reissuance
    groups."""
    index = build_index(records)
    xs_groups, reissuance = group_xs(index, overlap_min=options.overlap_min,
                                     mode=options.mode)
    return (index, classify_groups(xs_groups, stores, operator_map, index),
            reissuance)


def _path_table(certs: Iterable[CertRecord], index: CertIndex,
                stores: Sequence[RootStoreTimeline],
                options: AnalysisOptions) -> dict[str, PathEnumeration]:
    """Each certificate's paths under the options' depth bound and mode."""
    anchors = combined_anchors(stores)
    return {cert.fingerprint: enumerate_paths(
                cert, index, max_depth=options.max_depth, mode=options.mode,
                anchors=anchors)
            for cert in certs}


def _member_coverage(xs_groups: Sequence[XSCertGroup], paths: Paths,
                     index: CertIndex, stores: Sequence[RootStoreTimeline],
                     revocations: RevocationIndex) -> list[TrustAssessment]:
    """Each cross-sign member's trust under the coverage view: a
    cross-sign's intended reach, not its fate. Only the trust-delta and
    barrier-breach analyzers and lint V4 read it, and only for members."""
    return [assess_paths(index.get(fp), paths[fp], index, stores,
                         revocations, COVERAGE_VIEW)
            for group in xs_groups for fp in group.members]


def _truncated_members(xs_groups: Sequence[XSCertGroup],
                       paths: Paths) -> list[str]:
    """The cross-sign members whose enumeration the depth bound cut short,
    each once, in group order."""
    members = dict.fromkeys(fp for group in xs_groups for fp in group.members)
    return [fp for fp in members if paths[fp].truncated]


def _lint_groups(xs_groups: Sequence[XSCertGroup], index: CertIndex,
                 stores: Sequence[RootStoreTimeline],
                 revocations: RevocationIndex,
                 extensions: Mapping[str, xsext.XsExtension],
                 views: Sequence[RevocationView],
                 operator_map: Optional[OperatorMap],
                 options: AnalysisOptions, explanations: Sequence[str],
                 coverage: Sequence[TrustAssessment]
                 ) -> list[xsext.LintVerdict]:
    """Every cross-sign group's lint verdicts, given the members' coverage
    assessments, in report order."""
    covered = {a.fingerprint: a.covered_stores() for a in coverage}
    verdicts = [verdict for group in xs_groups
                for verdict in xsext.lint_cross_sign(
                    group, stores, extensions, revocations,
                    max_validity_days=options.max_validity_days, index=index,
                    coverage=covered, views=views, explanations=explanations,
                    operator_map=operator_map)]
    verdicts.sort(key=lambda v: (v.code, v.member, v.detail))
    return verdicts


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
    index, xs_groups, reissuance = _group_corpus(records, stores,
                                                 operator_map, options)
    revocations = RevocationIndex(revocations)
    stores = sorted(stores, key=lambda s: s.store_id)
    # Each member's paths are enumerated once and shared by the assessments
    # of every view, the finding analyzers, the lints and the rows.
    members = [index.get(fp) for group in xs_groups for fp in group.members]
    paths = _path_table(members, index, stores, options)
    coverage = _member_coverage(xs_groups, paths, index, stores, revocations)
    assessments = AssessmentSet(coverage)
    for record in members:
        for view in views:
            assessments.add(assess_paths(record, paths[record.fingerprint],
                                         index, stores, revocations, view))

    all_findings = findings_mod.run_all(
        xs_groups, index, stores, revocations, views, assessments, paths,
        coverage_view_id=COVERAGE_VIEW_ID, operator_map=operator_map)
    verdicts = _lint_groups(xs_groups, index, stores, revocations, extensions,
                            views, operator_map, options, explanations,
                            coverage)
    return AnalysisResult(
        index=index, xs_groups=xs_groups, reissuance_groups=reissuance,
        assessments=assessments,
        rows=AssessmentRows(index, stores, revocations, views, options, paths,
                            assessments),
        findings=all_findings, views=list(views), verdicts=verdicts,
        truncated_members=_truncated_members(xs_groups, paths))


def lint_corpus(records: Sequence[CertRecord],
                stores: Sequence[RootStoreTimeline],
                revocations: Sequence[RevocationRecord],
                extensions: Mapping[str, xsext.XsExtension],
                views: Sequence[RevocationView],
                operator_map: Optional[OperatorMap] = None,
                options: AnalysisOptions = AnalysisOptions(),
                explanations: Sequence[str] = ()
                ) -> tuple[list[xsext.LintVerdict], list[str]]:
    """Lint every cross-sign group. Builds only what the lints read: the
    groups and the coverage of their members. Returns the verdicts and the
    members whose enumeration the depth bound cut short."""
    index, xs_groups, _ = _group_corpus(records, stores, operator_map, options)
    revocations = RevocationIndex(revocations)
    paths = _path_table((index.get(fp) for group in xs_groups
                         for fp in group.members), index, stores, options)
    coverage = _member_coverage(xs_groups, paths, index, stores, revocations)
    return (_lint_groups(xs_groups, index, stores, revocations, extensions,
                         views, operator_map, options, explanations, coverage),
            _truncated_members(xs_groups, paths))
