"""Mechanical index reductions for measuring what each layer contributes.

Every variant stays inside the index grammar: emptied elements render as the
``-`` sentinel rather than disappearing from the line, so ablated indexes
parse with the same code paths as full ones. Table entries are untouched
unless explicitly requested.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .metrics import DEFAULT_ESTIMATOR, TokenEstimator, estimate_tokens
from .model import CodeEntry, Index, TableEntry


class AblationVariant(Enum):
    """The five mechanical reductions, named as the CLI spells them."""

    WO_ABCDE = "wo-ABCDE"
    WO_ABCD = "wo-ABCD"
    WO_R = "wo-R"
    WO_S = "wo-S"
    WO_FRAS = "wo-FRAS"


def apply_ablation(
    index: Index, variant: AblationVariant, include_tables: bool = False
) -> Index:
    """Return a reduced copy of ``index``.

    wo-ABCDE removes every code entry's bracketed tag and keeps the semantic
    elements. wo-ABCD keeps only the scale code as a residual tag; entries
    whose decoded tag has no scale code lose the bracket entirely. wo-R and
    wo-S empty one semantic element each; wo-FRAS empties all four and keeps
    the tag. With ``include_tables``, wo-ABCDE also strips table tags.
    """
    entries = tuple(_ablate_entry(entry, variant) for entry in index.code_entries)
    tables = index.table_entries
    if include_tables and variant is AblationVariant.WO_ABCDE:
        tables = tuple(_strip_table_tag(table) for table in tables)
    return Index(index.header, entries, tables)


def _ablate_entry(entry: CodeEntry, variant: AblationVariant) -> CodeEntry:
    # The constructor, not dataclasses.replace: it runs the same checks
    # without looking the fields up again for every entry.
    path, f, r, a, s = entry.path, entry.f, entry.r, entry.a, entry.s
    if variant is AblationVariant.WO_ABCDE:
        return CodeEntry(path, None, None, f, r, a, s)
    if variant is AblationVariant.WO_ABCD:
        if entry.decoded is None:
            # Already tagless, or already reduced to a residual scale tag.
            return entry
        return CodeEntry(path, entry.decoded.scale, None, f, r, a, s)
    if variant is AblationVariant.WO_R:
        return CodeEntry(path, entry.tag, entry.decoded, f, (), a, s)
    if variant is AblationVariant.WO_S:
        return CodeEntry(path, entry.tag, entry.decoded, f, r, a, "")
    return CodeEntry(path, entry.tag, entry.decoded, "", (), "", "")


def _strip_table_tag(table: TableEntry) -> TableEntry:
    return dataclasses.replace(table, domain="", ttype="", scale="", features=())


@dataclass(frozen=True)
class AblationReport:
    """Token accounting for an original index against a reduced one."""

    original_tokens: int
    ablated_tokens: int
    reduction: int
    ratio: float
    code_entries_changed: int
    table_entries_changed: int


def ablation_report(
    original: Index, ablated: Index, estimator: TokenEstimator = DEFAULT_ESTIMATOR
) -> AblationReport:
    from .grammar import serialize_code_entry, serialize_index, serialize_table_entry

    original_tokens = estimate_tokens(serialize_index(original), estimator)
    ablated_tokens = estimate_tokens(serialize_index(ablated), estimator)
    code_changed = sum(
        serialize_code_entry(before) != serialize_code_entry(after)
        for before, after in zip(original.code_entries, ablated.code_entries)
    )
    table_changed = sum(
        serialize_table_entry(before) != serialize_table_entry(after)
        for before, after in zip(original.table_entries, ablated.table_entries)
    )
    ratio = ablated_tokens / original_tokens if original_tokens else 1.0
    return AblationReport(
        original_tokens=original_tokens,
        ablated_tokens=ablated_tokens,
        reduction=original_tokens - ablated_tokens,
        ratio=ratio,
        code_entries_changed=code_changed,
        table_entries_changed=table_changed,
    )
