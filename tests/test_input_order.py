"""Shuffling the inputs changes no output: the order in which the
certificate records, the revocations and the stores are given reaches no
group, finding, assessment row, lint verdict or truncated list."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from xsign.analysis import AnalysisOptions, analyze_corpus, lint_corpus
from xsign.corpus import ScenarioSpec, generate

# The named scenarios with more than one store.
MULTI_STORE = ("certinomis", "diginotar", "fpki")


@functools.lru_cache(maxsize=None)
def _bundle(scenario_id: str, n: int):
    params = {"n": n, "revocation_rate": 0.1} if scenario_id == "random" else {}
    return generate(ScenarioSpec(scenario_id, seed=1, params=params))


def _outputs(bundle, records, revocations, stores, max_depth: int) -> dict:
    options = AnalysisOptions(max_depth=max_depth)
    result = analyze_corpus(records, stores, revocations, bundle.views,
                            bundle.operator_map, options, bundle.extensions)
    rows = [row.to_json() for row in result.rows]
    verdicts, lint_truncated = lint_corpus(
        records, stores, revocations, bundle.views, bundle.operator_map,
        options, bundle.extensions)
    return {
        "groups": [g.to_json() for g in result.xs_groups],
        "reissuance": [g.to_json() for g in result.reissuance_groups],
        "findings": [f.to_json() for f in result.findings],
        "rows": rows,
        "verdicts": [v.to_json() for v in result.verdicts],
        "lint_verdicts": [v.to_json() for v in verdicts],
        "truncated": result.rows.truncated,
        "truncated_members": result.truncated_members,
        "lint_truncated": lint_truncated,
    }


@functools.lru_cache(maxsize=None)
def _reference(scenario_id: str, n: int, max_depth: int) -> dict:
    bundle = _bundle(scenario_id, n)
    return _outputs(bundle, bundle.records, bundle.revocations, bundle.stores,
                    max_depth)


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


corpora = st.one_of(
    st.tuples(st.just("random"), st.integers(20, 200)),
    st.tuples(st.sampled_from(MULTI_STORE), st.just(0)))


@settings(max_examples=15, deadline=None)
@given(corpus=corpora, max_depth=st.sampled_from([3, 12]),
       rng=st.randoms(use_true_random=False))
def test_shuffled_inputs_give_the_same_outputs(corpus, max_depth, rng):
    bundle = _bundle(*corpus)
    shuffled = _outputs(bundle, _shuffled(bundle.records, rng),
                        _shuffled(bundle.revocations, rng),
                        _shuffled(bundle.stores, rng), max_depth)
    assert shuffled == _reference(*corpus, max_depth)
