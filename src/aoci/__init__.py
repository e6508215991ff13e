"""AOCI index toolkit: parse, validate, scaffold, maintain, reduce, measure.

An AOCI index is a plain-text file that describes a whole repository in a
few hundred lines: a header with per-project code dictionaries, then one
line per source file pairing a compact structural tag with four semantic
elements, plus one line per database table. This package implements the
format and the mechanical operations around it; authoring the semantic
content is handed off to an external model via prompt packs and is out of
scope here.

Every public name is exported lazily: ``aoci.<name>`` imports the module
that defines it on first use, so a command imports only what it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_MODULE_EXPORTS = {
    "ablation": ("AblationReport", "AblationVariant", "ablation_report", "apply_ablation"),
    "errors": (
        "AmbiguousTag",
        "AociError",
        "ConfigError",
        "InvalidImportance",
        "InvalidPath",
        "InvariantError",
        "MalformedTableTag",
        "MalformedTag",
        "PlanMismatch",
        "TagError",
        "UnknownCode",
    ),
    "grammar": (
        "IndexLines",
        "ParseError",
        "ParseErrorKind",
        "ParseReport",
        "decode_table_tag",
        "decode_tag",
        "encode_table_tag",
        "encode_tag",
        "parse_code_entry_line",
        "parse_header",
        "parse_index",
        "parse_index_report",
        "scan_index",
        "serialize_code_entry",
        "serialize_header",
        "serialize_index",
        "serialize_table_entry",
    ),
    "incremental": (
        "StalenessStore",
        "UpdatePlan",
        "apply_lines",
        "apply_update",
        "commit_plan",
        "content_digest",
        "detect_stale",
        "entry_digest",
        "parse_changeset",
        "plan_update",
    ),
    "metrics": (
        "IndexStats",
        "TokenEstimator",
        "estimate_tokens",
        "index_stats",
        "normalize_entities",
        "score_what",
        "score_where",
    ),
    "model": (
        "ChangeRecord",
        "ChangeSet",
        "ChangeStatus",
        "CodeEntry",
        "DecodedTag",
        "Header",
        "Index",
        "TableEntry",
        "TagDictionary",
        "canonical_path",
    ),
    "scaffold": (
        "DraftEntry",
        "PromptPack",
        "ScaffoldResult",
        "ScaffoldRules",
        "draft_entry",
        "emit_prompt_pack",
        "extract_relations",
        "parse_rules_file",
        "scaffold_repo",
        "scan_repo",
    ),
    "validator": (
        "CoverageReport",
        "Severity",
        "ValidationIssue",
        "check_coverage",
        "validate_index",
    ),
}

_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

# Submodules that ``aoci.<name>`` reaches without an import of their own.
_SUBMODULES = frozenset(_MODULE_EXPORTS) | {"tree"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name's module on first use (PEP 562).

    The submodules those names come from, and ``tree``, resolve the same
    way.
    """
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
