"""What an analysis keeps alive and what it builds once. The finding
analyzers and the lints read paths and assessments of cross-sign members
only; every other certificate's are built as the assessment rows are read,
and dropped. The facts of a run are built once, not per group."""

import sys
import weakref

import pytest

from xsign import analysis, findings, revocation, truststore
from xsign.analysis import COVERAGE_VIEW_ID, analyze_corpus, lint_corpus
from xsign.corpus import ScenarioSpec, generate
from xsign.revocation import RevocationView


@pytest.fixture(scope="module")
def corpus():
    return generate(ScenarioSpec("random", seed=5, mode="structural",
                                 params={"n": 120, "revocation_rate": 0.2}))


def _analyze(bundle, views=None):
    return analyze_corpus(bundle.records, bundle.stores, bundle.revocations,
                          bundle.views if views is None else views,
                          bundle.operator_map, extensions=bundle.extensions)


def test_only_one_non_member_is_alive_at_a_time(corpus, monkeypatch):
    built = []  # (name, fingerprint, weak reference) per build

    def tracked(name, build):
        def wrapper(cert, *args, **kwargs):
            result = build(cert, *args, **kwargs)
            built.append((name, cert.fingerprint, weakref.ref(result)))
            return result
        return wrapper

    for name in ("enumerate_paths", "assess_paths"):
        monkeypatch.setattr(analysis, name,
                            tracked(name, getattr(analysis, name)))

    def alive() -> set[str]:
        return {fp for _, fp, ref in built if ref() is not None}

    result = _analyze(corpus)
    members = {fp for group in result.xs_groups for fp in group.members}
    assert 0 < len(members) < len(corpus.records)
    assert alive() == members
    streamed = set()
    rows = 0
    for row in result.rows:
        rows += 1
        others = alive() - members
        assert len(others) <= 1 and others <= {row.fingerprint}
        streamed.update(others)
    assert streamed == {r.fingerprint for r in corpus.records} - members
    assert rows == len(corpus.records) * len(corpus.views)
    assert alive() - members <= {row.fingerprint}

    # The cold-lint route never reads the rows, so nothing is streamed:
    # each member is enumerated once and assessed under every view and the
    # coverage view, and no other certificate is enumerated or assessed.
    del built[:]
    lint_corpus(corpus.records, corpus.stores, corpus.revocations,
                corpus.views, corpus.operator_map,
                extensions=corpus.extensions)
    enumerated = [fp for name, fp, _ in built if name == "enumerate_paths"]
    assessed = [fp for name, fp, _ in built if name == "assess_paths"]
    assert sorted(enumerated) == sorted(members)
    assert sorted(assessed) == sorted([*members] * (len(corpus.views) + 1))


def test_rows_can_be_read_once(corpus):
    rows = _analyze(corpus).rows
    assert all(row.view_id != COVERAGE_VIEW_ID for row in rows)
    with pytest.raises(RuntimeError):
        iter(rows)


@pytest.mark.parametrize("ids", [["v", "v"], [COVERAGE_VIEW_ID]])
def test_analyze_corpus_rejects_repeated_and_reserved_view_ids(corpus, ids):
    with pytest.raises(ValueError):
        _analyze(corpus, [RevocationView(i, frozenset()) for i in ids])


def test_analyze_corpus_rejects_a_repeated_store_id(corpus):
    # Every row and finding names a store by its id.
    with pytest.raises(ValueError, match="duplicate store id"):
        analyze_corpus(corpus.records, [*corpus.stores, corpus.stores[0]],
                       corpus.revocations, corpus.views)


def _patch(monkeypatch, owner, name, make):
    """Replace `owner.<name>` with `make(original)` in every xsign module
    that holds it by name."""
    original = getattr(owner, name)
    replacement = make(original)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("xsign")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


def _counting(calls):
    def make(original):
        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counting
    return make


def test_each_fact_of_a_run_is_built_once(corpus, monkeypatch):
    every_store = {s.store_id for s in corpus.stores}
    every_source_views, unions, inconsistency_runs = [], [], []

    def union_of_every_store(original):
        def counting(stores):
            stores = list(stores)
            if {s.store_id for s in stores} == every_store:
                unions.append(stores)
            return original(stores)
        return counting

    _patch(monkeypatch, revocation, "all_sources_view",
           _counting(every_source_views))
    _patch(monkeypatch, truststore, "combined_anchors", union_of_every_store)
    _patch(monkeypatch, findings, "find_revocation_inconsistency",
           _counting(inconsistency_runs))

    result = _analyze(corpus)
    assert len(list(result.rows)) == len(corpus.records) * len(corpus.views)
    groups = len(result.xs_groups)
    assert groups and any(f.category == "revocation_inconsistency"
                          for f in result.findings)
    assert any(v.code == "V7" for v in result.verdicts)
    assert (len(every_source_views), len(unions),
            len(inconsistency_runs)) == (0, 1, groups)

    del every_source_views[:], unions[:], inconsistency_runs[:]
    verdicts, _ = lint_corpus(corpus.records, corpus.stores,
                              corpus.revocations, corpus.views,
                              corpus.operator_map,
                              extensions=corpus.extensions)
    assert verdicts == result.verdicts
    assert (len(every_source_views), len(unions),
            len(inconsistency_runs)) == (0, 1, groups)
