"""Deterministic measurement: token estimates, scoring, index statistics.

Token counts are estimates, not tokenizer output. The default method divides
the character count by four; the alternative scales the whitespace word count
by 4/3. Both are deterministic and only used comparatively (budget warnings,
ablation ratios, compression figures).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable

from .errors import InvalidPath
from .model import Index, canonical_path


class TokenEstimator(Enum):
    """Available token estimation methods."""

    CHARS4 = "chars4"
    WORDS13 = "words13"

    def estimate(self, text: str) -> int:
        return self.total((text,))

    def total(self, blocks: Iterable[str]) -> int:
        """The estimate for the concatenation of ``blocks``.

        Every block but the last must end with whitespace, such as the line
        breaks ``serialize_blocks`` ends its blocks with: then no word spans
        two blocks, so characters and words both add up over the blocks.
        """
        if self is TokenEstimator.CHARS4:
            return math.ceil(sum(map(len, blocks)) / 4)
        return math.ceil(sum(len(block.split()) for block in blocks) * 4 / 3)


DEFAULT_ESTIMATOR = TokenEstimator.CHARS4


def estimate_tokens(text: str, estimator: TokenEstimator = DEFAULT_ESTIMATOR) -> int:
    return estimator.estimate(text)


def score_where(predicted: str, truth: str) -> int:
    """Exact path match after normalization: 1 or 0. Case-sensitive."""
    if not predicted or not truth:
        raise InvalidPath("where scoring needs two nonempty paths")
    return 1 if canonical_path(predicted) == canonical_path(truth) else 0


def normalize_entities(values: Iterable[str]) -> frozenset[str]:
    """Trim, strip surrounding quotes and backticks, case-fold, dedupe."""
    out = set()
    for value in values:
        cleaned = value.strip().strip("\"'`").strip().casefold()
        if cleaned:
            out.add(cleaned)
    return frozenset(out)


def score_what(predicted: Iterable[str], truth: Iterable[str]) -> float:
    """F1 over normalized entity sets.

    Conventions: both sets empty scores 1.0, exactly one empty scores 0.0,
    and a zero precision plus recall sum scores 0.0.
    """
    pred = normalize_entities(predicted)
    true = normalize_entities(truth)
    if not pred and not true:
        return 1.0
    if not pred or not true:
        return 0.0
    overlap = len(pred & true)
    precision = overlap / len(pred)
    recall = overlap / len(true)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class IndexStats:
    """Aggregate statistics over one index."""

    total_code_entries: int = 0
    decoded_entries: int = 0
    residual_tag_entries: int = 0
    untagged_entries: int = 0
    table_entries: int = 0
    per_layer: dict[str, int] = field(default_factory=dict)
    per_module: dict[str, int] = field(default_factory=dict)
    per_importance: dict[int, int] = field(default_factory=dict)
    per_feature: dict[str, int] = field(default_factory=dict)
    per_scale: dict[str, int] = field(default_factory=dict)
    scale_absent: int = 0
    total_tokens: int = 0
    per_importance_tokens: dict[int, int] = field(default_factory=dict)
    budget_under: int = 0
    budget_within: int = 0
    budget_over: int = 0
    compression_ratio: float | None = None

    def __post_init__(self):
        tagged = self.decoded_entries + self.residual_tag_entries
        if tagged + self.untagged_entries != self.total_code_entries:
            raise ValueError("entry category counts do not sum to the total")


def index_stats(
    index: Index,
    repo_loc: int | None = None,
    estimator: TokenEstimator = DEFAULT_ESTIMATOR,
) -> IndexStats:
    """Compute :class:`IndexStats`; the compression ratio needs ``repo_loc``."""
    from .grammar import serialize_blocks, serialize_semantic_elements
    from .validator import budget_for

    per_layer: Counter[str] = Counter()
    per_module: Counter[str] = Counter()
    per_importance: Counter[int] = Counter()
    per_feature: Counter[str] = Counter()
    per_scale: Counter[str] = Counter()
    per_importance_tokens: Counter[int] = Counter()
    decoded = residual = untagged = scale_absent = 0
    under = within = over = 0

    for entry in index.code_entries:
        if entry.decoded is None:
            if entry.tag is None:
                untagged += 1
            else:
                residual += 1
            continue
        decoded += 1
        tag = entry.decoded
        per_layer[tag.layer] += 1
        per_module[tag.module] += 1
        per_importance[tag.importance] += 1
        for feat in tag.features:
            per_feature[feat] += 1
        if tag.scale is None:
            scale_absent += 1
        else:
            per_scale[tag.scale] += 1
        tokens = estimator.estimate(serialize_semantic_elements(entry))
        per_importance_tokens[tag.importance] += tokens
        lo, hi = budget_for(index.header.dictionary, tag.importance)
        if tokens < lo:
            under += 1
        elif tokens > hi:
            over += 1
        else:
            within += 1

    total_tokens = estimator.total(serialize_blocks(index))
    ratio = None
    if repo_loc is not None and repo_loc > 0:
        ratio = total_tokens / repo_loc

    return IndexStats(
        total_code_entries=len(index.code_entries),
        decoded_entries=decoded,
        residual_tag_entries=residual,
        untagged_entries=untagged,
        table_entries=len(index.table_entries),
        per_layer=dict(per_layer),
        per_module=dict(per_module),
        per_importance=dict(per_importance),
        per_feature=dict(per_feature),
        per_scale=dict(per_scale),
        scale_absent=scale_absent,
        total_tokens=total_tokens,
        per_importance_tokens=dict(per_importance_tokens),
        budget_under=under,
        budget_within=within,
        budget_over=over,
        compression_ratio=ratio,
    )


def stats_table(stats: IndexStats) -> str:
    """Human-readable rendering, one aligned row per figure."""
    rows: list[tuple[str, str]] = [
        ("code entries", str(stats.total_code_entries)),
        ("  decoded tags", str(stats.decoded_entries)),
        ("  residual tags", str(stats.residual_tag_entries)),
        ("  untagged", str(stats.untagged_entries)),
        ("table entries", str(stats.table_entries)),
        ("estimated tokens", str(stats.total_tokens)),
    ]
    for name, counts in (
        ("layer", stats.per_layer),
        ("module", stats.per_module),
        ("importance", stats.per_importance),
        ("feature", stats.per_feature),
        ("scale", stats.per_scale),
    ):
        if counts:
            body = " ".join(f"{code}:{count}" for code, count in sorted(counts.items(), key=str))
            rows.append((f"per {name}", body))
    if stats.scale_absent:
        rows.append(("scale absent", str(stats.scale_absent)))
    if stats.per_importance_tokens:
        body = " ".join(
            f"{level}:{tokens}" for level, tokens in sorted(stats.per_importance_tokens.items())
        )
        rows.append(("tokens per importance", body))
    rows.append(
        (
            "budget compliance",
            f"under:{stats.budget_under} within:{stats.budget_within} over:{stats.budget_over}",
        )
    )
    if stats.compression_ratio is not None:
        rows.append(("tokens per LOC", f"{stats.compression_ratio:.4f}"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def stats_records(stats: IndexStats) -> dict:
    """Machine-readable rendering (JSON-compatible keys and values): every
    field of ``IndexStats`` in declaration order, a count table sorted by key
    with its keys as strings."""
    records = {}
    for item in fields(IndexStats):
        value = getattr(stats, item.name)
        if isinstance(value, dict):
            value = {str(key): count for key, count in sorted(value.items())}
        records[item.name] = value
    return records
