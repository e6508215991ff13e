"""Index reduction variants: forms, closure, and token accounting."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_index
from aoci.ablation import AblationVariant, ablation_report, apply_ablation
from aoci.grammar import parse_index, serialize_code_entry, serialize_index
from aoci.metrics import estimate_tokens
from aoci.validator import has_errors, validate_index

ALL_VARIANTS = list(AblationVariant)


def test_cli_names():
    assert [v.value for v in ALL_VARIANTS] == [
        "wo-ABCDE",
        "wo-ABCD",
        "wo-R",
        "wo-S",
        "wo-FRAS",
    ]
    assert AblationVariant("wo-FRAS") is AblationVariant.WO_FRAS
    with pytest.raises(ValueError):
        AblationVariant("wo-X")


def test_wo_abcde_strips_every_tag(listing_index):
    ablated = apply_ablation(listing_index, AblationVariant.WO_ABCDE)
    assert all(entry.tag is None for entry in ablated.code_entries)
    first = serialize_code_entry(ablated.code_entries[0])
    assert first.startswith("auth.go: F:JWT authentication middleware")
    # Header and tables untouched.
    assert ablated.header == listing_index.header
    assert ablated.table_entries == listing_index.table_entries


def test_wo_abcd_keeps_scale_only(listing_index):
    ablated = apply_ablation(listing_index, AblationVariant.WO_ABCD)
    line = serialize_code_entry(ablated.code_entries[0])
    assert line.startswith("auth.go[M]: ")
    assert ablated.code_entries[0].decoded is None


def test_wo_abcd_removes_bracket_without_scale(reference_dictionary):
    from aoci.grammar import parse_code_entry_line
    from aoci.model import Header, Index

    entry = parse_code_entry_line(
        "a.go[WA9J]: F:tagged without a scale code on purpose for this test | "
        "R:- | A:- | S:body text long enough to stay out of the budget warnings",
        reference_dictionary,
    )
    assert entry.decoded.scale is None
    index = Index(Header(dictionary=reference_dictionary), (entry,))
    ablated = apply_ablation(index, AblationVariant.WO_ABCD)
    line = serialize_code_entry(ablated.code_entries[0])
    assert line.startswith("a.go: ")
    assert ablated.code_entries[0].tag is None


def test_wo_fras_keeps_only_the_tag(listing_index):
    ablated = apply_ablation(listing_index, AblationVariant.WO_FRAS)
    line = serialize_code_entry(ablated.code_entries[0])
    assert line == "auth.go[WA9JM]: F:- | R:- | A:- | S:-"


def test_wo_r_and_wo_s_empty_one_element(listing_index):
    wo_r = apply_ablation(listing_index, AblationVariant.WO_R)
    assert all(entry.r == () for entry in wo_r.code_entries)
    assert all(" R:- " in serialize_code_entry(entry) for entry in wo_r.code_entries)
    wo_s = apply_ablation(listing_index, AblationVariant.WO_S)
    assert all(entry.s == "" for entry in wo_s.code_entries)
    assert all(entry.f for entry in wo_s.code_entries)


def test_tables_stripped_only_on_request(listing_index):
    kept = apply_ablation(listing_index, AblationVariant.WO_ABCDE)
    assert kept.table_entries[0].has_tag
    stripped = apply_ablation(listing_index, AblationVariant.WO_ABCDE, include_tables=True)
    table = stripped.table_entries[0]
    assert not table.has_tag
    from aoci.grammar import serialize_table_entry

    assert serialize_table_entry(table).startswith("users: user primary table")


def test_ablated_indexes_still_validate_structurally(listing_index):
    for variant in ALL_VARIANTS:
        ablated = apply_ablation(listing_index, variant)
        if variant in (AblationVariant.WO_R, AblationVariant.WO_FRAS):
            assert not has_errors(validate_index(ablated))
        else:
            assert not has_errors(validate_index(ablated))


@given(st.integers(0, 2**32), st.sampled_from(ALL_VARIANTS))
@settings(max_examples=80, deadline=None)
def test_parse_closure_random(seed, variant):
    rng = random.Random(seed)
    n = rng.randint(0, 15)
    index = make_index(rng, n, scale_absent=rng.randint(0, min(n, 3)), tables=2)
    ablated = apply_ablation(index, variant, include_tables=bool(rng.getrandbits(1)))
    assert parse_index(serialize_index(ablated)) == ablated


@given(st.integers(0, 2**32), st.sampled_from(ALL_VARIANTS))
@settings(max_examples=80, deadline=None)
def test_token_monotonicity_random(seed, variant):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(1, 20))
    ablated = apply_ablation(index, variant)
    assert estimate_tokens(serialize_index(ablated)) <= estimate_tokens(serialize_index(index))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_footnote_rule_fires_exactly_on_scale_absent(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    absent = rng.randint(0, n)
    index = make_index(rng, n, scale_absent=absent)
    ablated = apply_ablation(index, AblationVariant.WO_ABCD)
    bracketless = [entry for entry in ablated.code_entries if entry.tag is None]
    residual = [entry for entry in ablated.code_entries if entry.tag is not None]
    assert len(bracketless) == absent
    assert len(residual) == n - absent
    assert all(entry.decoded is None for entry in ablated.code_entries)


def test_composition_order_independent(listing_index):
    a = apply_ablation(
        apply_ablation(listing_index, AblationVariant.WO_FRAS), AblationVariant.WO_ABCDE
    )
    b = apply_ablation(
        apply_ablation(listing_index, AblationVariant.WO_ABCDE), AblationVariant.WO_FRAS
    )
    assert a == b
    assert all(entry.tag is None and not entry.s for entry in a.code_entries)


def test_report_identity_is_zero(listing_index):
    report = ablation_report(listing_index, listing_index)
    assert report.reduction == 0
    assert report.ratio == 1.0
    assert report.code_entries_changed == 0


def test_report_wo_fras_reduces(listing_index):
    ablated = apply_ablation(listing_index, AblationVariant.WO_FRAS)
    report = ablation_report(listing_index, ablated)
    assert report.reduction > 0
    assert report.ratio < 1.0
    assert report.code_entries_changed == len(listing_index.code_entries)


def test_report_wo_s_reduction_matches_text_oracle(listing_text):
    # Oracle: rebuild the wo-S document by a plain text substitution on the
    # golden file, then difference the two character-count estimates.
    index = parse_index(listing_text)
    ablated = apply_ablation(index, AblationVariant.WO_S)
    expected_text = re.sub(r"S:[^|\n]+$", "S:-", listing_text, flags=re.MULTILINE)
    # Table lines carry no S element; the substitution above only matches
    # code entry tails because table lines have no ' | ' structure.
    expected_lines = []
    in_tables = False
    for original, substituted in zip(listing_text.splitlines(), expected_text.splitlines()):
        if original == "@TABLES":
            in_tables = True
        expected_lines.append(original if in_tables else substituted)
    oracle_doc = "\n".join(expected_lines) + "\n"
    oracle_reduction = math.ceil(len(listing_text) / 4) - math.ceil(len(oracle_doc) / 4)
    report = ablation_report(index, ablated)
    assert serialize_index(ablated) == oracle_doc
    assert report.reduction == oracle_reduction
    # Frozen from the text oracle run against the golden fixture: the seven
    # entries' S texts shrink the estimate by exactly this much.
    assert report.reduction == 216
