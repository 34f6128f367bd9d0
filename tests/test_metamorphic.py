"""Metamorphic relations of the trust intervals: each changes one input in a
direction that can only widen trust, or only narrow it, and checks every
certificate's intervals in every store under the all-sources view.

- dropping every revocation never shrinks a trust interval;
- raising the depth bound from 3 to 12 never shrinks one;
- adding a root to a snapshot never shrinks one;
- adding a distrust rule never extends one."""

import dataclasses
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from xsign.analysis import AnalysisOptions, analyze_corpus
from xsign.corpus import ScenarioSpec, generate
from xsign.revocation import all_sources_view
from xsign.truststore import DistrustRule

corpora = st.tuples(st.integers(20, 200), st.integers(1, 4))


@functools.lru_cache(maxsize=None)
def _bundle(n: int, seed: int):
    return generate(ScenarioSpec("random", seed=seed,
                                 params={"n": n, "revocation_rate": 0.1}))


def _trust(bundle, stores=None, revocations=None,
           options=AnalysisOptions()) -> dict:
    """{(fingerprint, store id): trust intervals} under the view that
    accepts every source of the bundle's revocations."""
    result = analyze_corpus(
        bundle.records, bundle.stores if stores is None else stores,
        bundle.revocations if revocations is None else revocations,
        [all_sources_view(bundle.revocations)], options=options)
    return {(row.fingerprint, store_id): row.intervals_for(store_id)
            for row in result.rows for store_id in row.stores}


@functools.lru_cache(maxsize=None)
def _reference(n: int, seed: int) -> dict:
    return _trust(_bundle(n, seed))


def _within(narrow: dict, wide: dict) -> bool:
    """Every instant of each of `narrow`'s intervals lies in the same
    (certificate, store)'s intervals of `wide`. Those are maximal, so an
    interval they cover lies inside one of them."""
    assert narrow.keys() == wide.keys()
    return all(any(w_start <= start and end <= w_end
                   for w_start, w_end in wide[key])
               for key, items in narrow.items() for start, end in items)


@settings(max_examples=30, deadline=None)
@given(corpus=corpora)
def test_dropping_every_revocation_never_shrinks_trust(corpus):
    assert _within(_reference(*corpus), _trust(_bundle(*corpus),
                                               revocations=[]))


@settings(max_examples=30, deadline=None)
@given(corpus=corpora)
def test_raising_the_depth_bound_never_shrinks_trust(corpus):
    bundle = _bundle(*corpus)
    assert _within(_trust(bundle, options=AnalysisOptions(max_depth=3)),
                   _trust(bundle, options=AnalysisOptions(max_depth=12)))


@settings(max_examples=30, deadline=None)
@given(corpus=corpora, data=st.data())
def test_adding_a_root_to_a_snapshot_never_shrinks_trust(corpus, data):
    bundle = _bundle(*corpus)
    store = data.draw(st.sampled_from(bundle.stores))
    at = data.draw(st.sampled_from(range(len(store.snapshots))))
    root = data.draw(st.sampled_from(sorted(r.fingerprint
                                            for r in bundle.records
                                            if r.is_ca)))
    snapshots = list(store.snapshots)
    snapshots[at] = dataclasses.replace(snapshots[at],
                                        roots=snapshots[at].roots | {root})
    stores = [dataclasses.replace(s, snapshots=snapshots) if s is store
              else s for s in bundle.stores]
    assert _within(_reference(*corpus), _trust(bundle, stores=stores))


@settings(max_examples=30, deadline=None)
@given(corpus=corpora, data=st.data())
def test_adding_a_distrust_rule_never_extends_trust(corpus, data):
    bundle = _bundle(*corpus)
    store = data.draw(st.sampled_from(bundle.stores))
    instants = sorted({at for r in bundle.records
                       for at in (r.not_before, r.not_after)})
    rule = DistrustRule(
        issued_after=data.draw(st.sampled_from(instants)),
        effective_from=data.draw(st.sampled_from(instants)),
        anchors=frozenset([data.draw(st.sampled_from(
            sorted(store.ever_roots())))]))
    stores = [dataclasses.replace(s, distrust_rules=[*s.distrust_rules, rule])
              if s is store else s for s in bundle.stores]
    assert _within(_trust(bundle, stores=stores), _reference(*corpus))
