"""Token estimation, Where/What scoring, and index statistics."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import listing_only_index, make_index
from aoci.errors import InvalidPath
from aoci.grammar import serialize_semantic_elements
from aoci.metrics import (
    TokenEstimator,
    estimate_tokens,
    index_stats,
    normalize_entities,
    score_what,
    score_where,
)


def test_estimator_basics():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("", TokenEstimator.WORDS13) == 0
    assert estimate_tokens("one two three", TokenEstimator.WORDS13) == 4


def test_auth_semantic_elements_frozen_estimate(reference_dictionary, listing_index):
    # Frozen from a one-off character count of the auth entry's semantic
    # section: 285 characters, so ceil(285 / 4) = 72.
    entry = listing_index.entry_map()["auth.go"]
    semantic = serialize_semantic_elements(entry)
    assert len(semantic) == 285
    assert estimate_tokens(semantic) == 72


@given(st.text(max_size=100), st.text(max_size=100))
def test_chars4_monotone_under_concatenation(a, b):
    joined = estimate_tokens(a + b)
    assert joined >= max(estimate_tokens(a), estimate_tokens(b))


@pytest.mark.parametrize(
    "pred,truth,expected",
    [
        ("./src/auth.go", "src/auth.go", 1),
        ("src/auth.go", "src/Auth.go", 0),
        ("middleware/auth.go", "middleware/auth.go", 1),
        ("src\\auth.go", "src/auth.go", 1),
        ("a//b.go", "a/b.go", 1),
    ],
)
def test_score_where(pred, truth, expected):
    assert score_where(pred, truth) == expected


def test_score_where_rejects_empty():
    with pytest.raises(InvalidPath):
        score_where("", "a.go")


def test_normalize_entities():
    assert normalize_entities([" Foo ", "`bar`", '"BAZ"', "foo", ""]) == frozenset(
        {"foo", "bar", "baz"}
    )


def test_score_what_examples():
    assert score_what({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)
    assert score_what({"x", "y", "z"}, {"x", "y", "z"}) == 1.0
    assert score_what({"a"}, {"b"}) == 0.0
    assert score_what([], []) == 1.0
    assert score_what(["a"], []) == 0.0
    assert score_what([], ["a"]) == 0.0


def _oracle_f1(pred: list[str], truth: list[str]) -> float:
    """Brute-force scorer: normalize by the documented rules, then count
    intersections by direct list scans."""

    def norm(values):
        out = []
        for value in values:
            cleaned = value.strip().strip("\"'`").strip().casefold()
            if cleaned and cleaned not in out:
                out.append(cleaned)
        return out

    p, t = norm(pred), norm(truth)
    if not p and not t:
        return 1.0
    if not p or not t:
        return 0.0
    overlap = sum(1 for item in p if item in t)
    precision = overlap / len(p)
    recall = overlap / len(t)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@given(
    st.lists(st.sampled_from("abcdefghij"), max_size=8),
    st.lists(st.sampled_from("abcdefghij"), max_size=8),
)
@settings(max_examples=300)
def test_score_what_matches_oracle(pred, truth):
    assert score_what(pred, truth) == _oracle_f1(pred, truth)


@given(
    st.lists(st.sampled_from("abcdefghij"), max_size=8),
    st.lists(st.sampled_from("abcdefghij"), max_size=8),
)
def test_score_what_symmetry_and_bounds(pred, truth):
    forward = score_what(pred, truth)
    assert 0.0 <= forward <= 1.0
    assert forward == score_what(truth, pred)
    if normalize_entities(pred) == normalize_entities(truth):
        assert forward == 1.0
    else:
        assert forward < 1.0


def test_stats_empty_index():
    from aoci.model import Header, Index

    stats = index_stats(Index(Header()))
    assert stats.total_code_entries == 0
    assert stats.per_importance == {}
    assert stats.budget_within == 0
    assert stats.compression_ratio is None


def test_stats_listing_importance_histogram(reference_dictionary):
    stats = index_stats(listing_only_index(reference_dictionary))
    assert stats.total_code_entries == 3
    assert stats.per_importance == {9: 3}
    assert stats.table_entries == 1
    assert stats.per_layer == {"W": 1, "P": 1, "C": 1}


def test_stats_scale_absent_count():
    rng = random.Random(7)
    index = make_index(rng, 307, scale_absent=8)
    stats = index_stats(index)
    assert stats.total_code_entries == 307
    assert stats.scale_absent == 8


def test_stats_compression_ratio(listing_index):
    stats = index_stats(listing_index, repo_loc=1000)
    assert stats.compression_ratio == pytest.approx(stats.total_tokens / 1000)


def test_stats_budget_compliance(listing_index):
    stats = index_stats(listing_index)
    assert stats.budget_within == stats.decoded_entries
    assert stats.budget_under == 0
    assert stats.budget_over == 0


def test_stats_renderings(listing_index):
    from aoci.metrics import stats_records, stats_table

    stats = index_stats(listing_index, repo_loc=500)
    table = stats_table(stats)
    assert "code entries" in table
    records = stats_records(stats)
    assert records["total_code_entries"] == 7
    assert records["per_importance"] == {"7": 4, "9": 3}


def test_stats_records_hold_every_field_of_index_stats(listing_index):
    import dataclasses

    from aoci.metrics import IndexStats, stats_records

    stats = index_stats(listing_index, repo_loc=500)
    records = stats_records(stats)
    assert list(records) == [field.name for field in dataclasses.fields(IndexStats)]
    for name, value in records.items():
        held = getattr(stats, name)
        if isinstance(held, dict):
            assert list(value.items()) == [(str(k), v) for k, v in sorted(held.items())]
        else:
            assert value == held
