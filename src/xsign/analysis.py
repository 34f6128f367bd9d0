"""End-to-end corpus analysis: index, group, assess per view, run the
finding analyzers, and lint. One deterministic entry point shared by the
CLI, the scenario scripts, and the test suites. Both entry points group,
enumerate paths and assess member coverage through the same helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import findings as findings_mod
from . import xsext
from .certmodel import CertRecord
from .findings import AssessmentSet, Finding, Paths
from .pathengine import (DEFAULT_MAX_DEPTH, CertIndex, PathEnumeration,
                         TrustAssessment, assess_paths, build_index,
                         check_options, enumerate_paths)
from .revocation import RevocationRecord, RevocationView
from .truststore import OperatorMap, RootStoreTimeline, combined_anchors
from .xsdetect import DEFAULT_OVERLAP_MIN_DAYS, XSCertGroup, classify_groups, group_xs

# Synthetic revocation-free view backing coverage-style analyzers; named so
# its appearances in finding evidence are self-explanatory. It never shows
# up in assessment reports.
COVERAGE_VIEW_ID = "no-revocations"
COVERAGE_VIEW = RevocationView(COVERAGE_VIEW_ID, frozenset())


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


@dataclass
class AnalysisResult:
    index: CertIndex
    xs_groups: list[XSCertGroup]
    reissuance_groups: list[XSCertGroup]
    assessments: AssessmentSet
    findings: list[Finding]
    views: list[RevocationView]
    truncated_certs: list[str] = field(default_factory=list)


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
                     revocations: Sequence[RevocationRecord]
                     ) -> list[TrustAssessment]:
    """Each cross-sign member's trust under the coverage view: a
    cross-sign's intended reach, not its fate. Only the trust-delta and
    barrier-breach analyzers and lint V4 read it, and only for members."""
    return [assess_paths(index.get(fp), paths[fp], index, stores,
                         revocations, COVERAGE_VIEW)
            for group in xs_groups for fp in group.members]


def analyze_corpus(records: Sequence[CertRecord],
                   stores: Sequence[RootStoreTimeline],
                   revocations: Sequence[RevocationRecord],
                   views: Sequence[RevocationView],
                   operator_map: Optional[OperatorMap] = None,
                   options: AnalysisOptions = AnalysisOptions()) -> AnalysisResult:
    index, xs_groups, reissuance = _group_corpus(records, stores,
                                                 operator_map, options)
    stores = sorted(stores, key=lambda s: s.store_id)
    # Each certificate's paths are enumerated once and shared by the
    # assessments of every view and by the finding analyzers.
    paths = _path_table(index.sorted_records(), index, stores, options)
    assessments = AssessmentSet(_member_coverage(xs_groups, paths, index,
                                                 stores, revocations))
    for record in index.sorted_records():
        for view in views:
            assessments.add(assess_paths(record, paths[record.fingerprint],
                                         index, stores, revocations, view))

    all_findings = findings_mod.run_all(
        xs_groups, index, stores, revocations, views, assessments, paths,
        coverage_view_id=COVERAGE_VIEW_ID, operator_map=operator_map)
    return AnalysisResult(
        index=index, xs_groups=xs_groups, reissuance_groups=reissuance,
        assessments=assessments, findings=all_findings, views=list(views),
        truncated_certs=[fp for fp, enumeration in paths.items()
                         if enumeration.truncated])


def lint_corpus(records: Sequence[CertRecord],
                stores: Sequence[RootStoreTimeline],
                revocations: Sequence[RevocationRecord],
                extensions: dict[str, xsext.XsExtension],
                views: Sequence[RevocationView],
                operator_map: Optional[OperatorMap] = None,
                options: AnalysisOptions = AnalysisOptions(),
                explanations: Sequence[str] = ()
                ) -> tuple[list[xsext.LintVerdict], list[str]]:
    """Lint every cross-sign group. Builds only what the lints read: the
    groups and the coverage of their members. Returns the verdicts and the
    members whose enumeration the depth bound cut short."""
    index, xs_groups, _ = _group_corpus(records, stores, operator_map, options)
    paths = _path_table((index.get(fp) for group in xs_groups
                         for fp in group.members), index, stores, options)
    coverage = {a.fingerprint: a.covered_stores()
                for a in _member_coverage(xs_groups, paths, index, stores,
                                          revocations)}

    verdicts = [verdict for group in xs_groups
                for verdict in xsext.lint_cross_sign(
                    group, stores, extensions, revocations,
                    max_validity_days=options.max_validity_days, index=index,
                    coverage=coverage, views=views, explanations=explanations,
                    operator_map=operator_map)]
    verdicts.sort(key=lambda v: (v.code, v.member, v.detail))
    return verdicts, [fp for fp, enumeration in paths.items()
                      if enumeration.truncated]
