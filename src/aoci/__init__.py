"""AOCI index toolkit: parse, validate, scaffold, maintain, reduce, measure.

An AOCI index is a plain-text file that describes a whole repository in a
few hundred lines: a header with per-project code dictionaries, then one
line per source file pairing a compact structural tag with four semantic
elements, plus one line per database table. This package implements the
format and the mechanical operations around it; authoring the semantic
content is handed off to an external model via prompt packs and is out of
scope here.
"""

from .ablation import AblationReport, AblationVariant, ablation_report, apply_ablation
from .errors import (
    AociError,
    ConfigError,
    InvalidImportance,
    InvalidPath,
    InvariantError,
    MalformedTableTag,
    MalformedTag,
    PlanMismatch,
    TagError,
    UnknownCode,
)
from .grammar import (
    IndexLines,
    ParseError,
    ParseErrorKind,
    ParseReport,
    decode_table_tag,
    decode_tag,
    encode_table_tag,
    encode_tag,
    parse_code_entry_line,
    parse_index,
    parse_index_report,
    scan_index,
    serialize_code_entry,
    serialize_header,
    serialize_index,
    serialize_table_entry,
)
from .incremental import (
    StalenessStore,
    UpdatePlan,
    apply_lines,
    apply_update,
    commit_plan,
    content_digest,
    detect_stale,
    entry_digest,
    parse_changeset,
    plan_update,
)
from .metrics import (
    IndexStats,
    TokenEstimator,
    estimate_tokens,
    index_stats,
    normalize_entities,
    score_what,
    score_where,
)
from .model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
    TagDictionary,
    canonical_path,
)
from .scaffold import (
    DraftEntry,
    PromptPack,
    ScaffoldResult,
    ScaffoldRules,
    draft_entry,
    emit_prompt_pack,
    extract_relations,
    parse_rules_file,
    scaffold_repo,
    scan_repo,
)
from .validator import (
    CoverageReport,
    Severity,
    ValidationIssue,
    check_coverage,
    validate_index,
)

__version__ = "0.1.0"
