"""End-to-end corpus analysis: index, group, assess per view, run the
finding analyzers, and lint. One deterministic entry point shared by the
CLI, the scenario scripts, and the test suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import findings as findings_mod
from . import xsext
from .certmodel import CertRecord
from .findings import AssessmentSet, Finding
from .pathengine import (DEFAULT_MAX_DEPTH, CertIndex, assess_paths,
                         assess_trust, build_index, check_options,
                         enumerate_paths)
from .revocation import RevocationRecord, RevocationView, all_sources_view
from .truststore import OperatorMap, RootStoreTimeline, combined_anchors
from .xsdetect import DEFAULT_OVERLAP_MIN_DAYS, XSCertGroup, classify_groups, group_xs

# Synthetic revocation-free view backing coverage-style analyzers; named so
# its appearances in finding evidence are self-explanatory. It never shows
# up in assessment reports.
COVERAGE_VIEW_ID = "no-revocations"


@dataclass(frozen=True)
class AnalysisOptions:
    max_depth: int = DEFAULT_MAX_DEPTH
    overlap_min: int = DEFAULT_OVERLAP_MIN_DAYS
    mode: str = "structural"
    max_validity_days: int = xsext.DEFAULT_MAX_VALIDITY_DAYS
    backdating_slack_days: int = findings_mod.DEFAULT_BACKDATING_SLACK_DAYS

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


def _group_corpus(index: CertIndex,
                  stores: Sequence[RootStoreTimeline],
                  operator_map: Optional[OperatorMap],
                  options: AnalysisOptions) -> tuple[list[XSCertGroup],
                                                     list[XSCertGroup]]:
    """The classified cross-sign groups and the reissuance groups."""
    xs_groups, reissuance = group_xs(index, overlap_min=options.overlap_min,
                                     mode=options.mode)
    return classify_groups(xs_groups, stores, operator_map, index), reissuance


def analyze_corpus(records: Sequence[CertRecord],
                   stores: Sequence[RootStoreTimeline],
                   revocations: Sequence[RevocationRecord],
                   views: Sequence[RevocationView] = (),
                   operator_map: Optional[OperatorMap] = None,
                   options: AnalysisOptions = AnalysisOptions()) -> AnalysisResult:
    index = build_index(records)
    xs_groups, reissuance = _group_corpus(index, stores, operator_map, options)

    view_list = list(views) or [all_sources_view(revocations)]
    # Revocation-free view backs coverage-style analyzers (trust deltas,
    # barrier breaches): a cross-sign's intended reach, not its fate.
    coverage_view = RevocationView(COVERAGE_VIEW_ID, frozenset())

    stores = sorted(stores, key=lambda s: s.store_id)
    # Each certificate's paths are enumerated once and shared by the
    # assessments of every view and by the finding analyzers.
    anchors = combined_anchors(stores)
    paths = {record.fingerprint: enumerate_paths(
                 record, index, max_depth=options.max_depth,
                 mode=options.mode, anchors=anchors)
             for record in index.sorted_records()}
    assessments = AssessmentSet(
        assess_paths(record, paths[record.fingerprint], index, stores,
                     revocations, view)
        for record in index.sorted_records()
        for view in [*view_list, coverage_view])

    all_findings = findings_mod.run_all(
        xs_groups, index, stores, revocations, view_list, assessments, paths,
        coverage_view_id=COVERAGE_VIEW_ID, operator_map=operator_map,
        slack_days=options.backdating_slack_days)
    return AnalysisResult(
        index=index, xs_groups=xs_groups, reissuance_groups=reissuance,
        assessments=assessments, findings=all_findings, views=view_list,
        truncated_certs=[fp for fp, enumeration in paths.items()
                         if enumeration.truncated])


def lint_corpus(records: Sequence[CertRecord],
                stores: Sequence[RootStoreTimeline],
                revocations: Sequence[RevocationRecord],
                extensions: dict[str, xsext.XsExtension],
                views: Sequence[RevocationView] = (),
                operator_map: Optional[OperatorMap] = None,
                options: AnalysisOptions = AnalysisOptions(),
                explanations: Sequence[str] = ()) -> list[xsext.LintVerdict]:
    """Lint every cross-sign group. Builds only what the lints read: the
    groups, and the coverage-view stores of each group member under the
    options' depth bound and mode; the rest of `analyze_corpus` is skipped."""
    index = build_index(records)
    xs_groups, _ = _group_corpus(index, stores, operator_map, options)
    view_list = list(views) or [all_sources_view(revocations)]
    coverage_view = RevocationView(COVERAGE_VIEW_ID, frozenset())
    members = {fp for group in xs_groups for fp in group.members}
    coverage = {fp: assess_trust(index.get(fp), index, stores, revocations,
                                 coverage_view, max_depth=options.max_depth,
                                 mode=options.mode).covered_stores()
                for fp in members}

    verdicts: list[xsext.LintVerdict] = []
    for group in xs_groups:
        verdicts.extend(xsext.lint_cross_sign(
            group, stores, extensions, revocations,
            max_validity_days=options.max_validity_days,
            index=index,
            coverage=coverage,
            views=view_list,
            explanations=explanations,
            operator_map=operator_map,
        ))
    verdicts.sort(key=lambda v: (v.code, v.member, v.detail))
    return verdicts
