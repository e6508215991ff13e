"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance (exact unless noted) and wall-clock
budget, and prints one pass line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them. Failures surface as ordinary assertion errors.
"""

from __future__ import annotations

import dataclasses
import random
import time

from conftest import (
    LISTING_AUTH,
    LISTING_CONFIG,
    LISTING_LINES,
    LISTING_ORG,
    USERS_TABLE_LINE,
    index_lines,
    make_decoded,
    make_dictionary,
    make_index,
    make_reference_dictionary,
    splice_noise,
)
from aoci.ablation import AblationVariant, apply_ablation
from aoci.grammar import (
    ParseError,
    decode_table_tag,
    decode_tag,
    encode_tag,
    parse_code_entry_line,
    parse_index,
    serialize_code_entry,
    serialize_index,
    serialize_table_entry,
)
from aoci.incremental import apply_update, plan_update
from aoci.metrics import estimate_tokens, score_what, score_where
from aoci.model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
)
from aoci.scaffold import ScaffoldRules, scaffold_repo
from aoci.validator import check_coverage, has_errors, validate_index


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self) -> float:
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"exceeded {self.seconds}s budget: {elapsed:.2f}s"
        return elapsed


def test_criterion_1_golden_parse_serialize():
    budget = _Budget(1.0)
    dictionary = make_reference_dictionary()

    auth = parse_code_entry_line(LISTING_AUTH, dictionary)
    assert auth.path == "auth.go"
    assert auth.tag == "WA9JM"
    assert auth.decoded == decode_tag("WA9JM", dictionary)
    assert auth.f == "JWT authentication middleware"
    assert auth.r == ("pkg/jwt", "model/user")
    assert auth.a == ""
    assert auth.s.endswith("match key_prefix and query SHA256")

    org = parse_code_entry_line(LISTING_ORG, dictionary)
    assert org.path == "org_repo.go"
    assert org.tag == "PO9NTM"
    assert org.r == ("model/org",)
    assert org.a == ""

    config = parse_code_entry_line(LISTING_CONFIG, dictionary)
    assert config.path == "config.yaml"
    assert config.tag == "CC9T"
    assert config.r == ("internal/config/config.go",)
    assert config.a == ""

    for line in LISTING_LINES:
        assert serialize_code_entry(parse_code_entry_line(line, dictionary)) == line

    name, rest = USERS_TABLE_LINE.split("[", 1)
    tag = rest.split("]", 1)[0]
    assert (name, tag) == ("users", "U-M-M-GUID")
    assert decode_table_tag(tag, dictionary) == ("U", "M", "M", ("GUID",))
    from aoci.model import TableEntry

    table = TableEntry("users", "U", "M", "M", ("GUID",), USERS_TABLE_LINE.split(": ", 1)[1])
    assert serialize_table_entry(table) == USERS_TABLE_LINE

    elapsed = budget.check()
    print(f"\ncriterion 1 PASS: golden parse/serialize byte-identical ({elapsed:.2f}s)")


def test_criterion_2_tag_codec():
    budget = _Budget(5.0)
    dictionary = make_reference_dictionary()
    decoded = decode_tag("WA9JM", dictionary)
    labels = (
        dictionary.dim_a[decoded.layer],
        dictionary.dim_b[decoded.module],
        decoded.importance,
        [dictionary.dim_d[f] for f in decoded.features],
        dictionary.dim_e[decoded.scale],
    )
    assert labels == ("Middleware", "Auth", 9, ["JWT"], "Medium")

    rng = random.Random(20260808)
    for trial in range(10_000):
        if trial % 500 == 0:
            d = make_dictionary(rng)
        tag_value = make_decoded(rng, d, with_scale=bool(rng.getrandbits(1)))
        tag = encode_tag(tag_value)
        redecoded = decode_tag(tag, d)
        assert redecoded == tag_value, f"decode(encode) broke on {tag}"
        assert encode_tag(redecoded) == tag, f"encode(decode) broke on {tag}"

    elapsed = budget.check()
    print(f"criterion 2 PASS: tag codec identities on 10,000 random tags ({elapsed:.2f}s)")


def test_criterion_3_incremental_touch_count():
    budget = _Budget(30.0)
    rng = random.Random(42)
    for _ in range(200):
        index = make_index(rng, rng.randint(50, 500))
        entry_map = index.entry_map()
        paths = list(entry_map)
        k = rng.randint(1, 10)
        chosen = rng.sample(paths, k)
        drafts = {
            path: dataclasses.replace(
                entry_map[path], s=(entry_map[path].s + " regenerated")
            )
            for path in chosen
        }
        changes = ChangeSet(
            tuple(ChangeRecord(ChangeStatus.MODIFIED, path) for path in chosen)
        )
        updated = apply_update(index, plan_update(index_lines(index), changes), drafts)
        before = serialize_index(index).splitlines()
        after = serialize_index(updated).splitlines()
        assert len(before) == len(after)
        changed = sum(a != b for a, b in zip(before, after))
        assert changed == k, f"expected exactly {k} changed lines, saw {changed}"
    elapsed = budget.check()
    print(f"criterion 3 PASS: 200 trials touch exactly k lines ({elapsed:.2f}s)")


def test_criterion_4_ablation_footnote_rule():
    budget = _Budget(5.0)
    rng = random.Random(307)
    index = make_index(rng, 307, scale_absent=8)
    ablated = apply_ablation(index, AblationVariant.WO_ABCD)
    removed = [entry.path for entry in ablated.code_entries if entry.tag is None]
    residual = [entry for entry in ablated.code_entries if entry.tag is not None]
    assert len(removed) == 8
    assert len(residual) == 299
    scale_absent_paths = {
        entry.path for entry in index.code_entries if entry.decoded.scale is None
    }
    assert set(removed) == scale_absent_paths
    for entry in residual:
        assert entry.tag in index.header.dictionary.dim_e
    # The reduced document still parses.
    assert parse_index(serialize_index(ablated)) == ablated
    elapsed = budget.check()
    print(f"criterion 4 PASS: wo-ABCD drops exactly the 8 scale-less brackets ({elapsed:.2f}s)")


def test_criterion_5_token_monotonicity():
    budget = _Budget(10.0)
    rng = random.Random(5)
    for _ in range(100):
        index = make_index(rng, rng.randint(1, 40), scale_absent=rng.randint(0, 1))
        base = estimate_tokens(serialize_index(index))
        for variant in AblationVariant:
            reduced = estimate_tokens(serialize_index(apply_ablation(index, variant)))
            assert reduced <= base, f"{variant.value} grew the estimate"
    elapsed = budget.check()
    print(f"criterion 5 PASS: every variant shrinks the estimate, 100 indexes ({elapsed:.2f}s)")


def _oracle_f1(pred, truth) -> float:
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


def test_criterion_6_scoring_oracle_equivalence():
    budget = _Budget(5.0)
    rng = random.Random(6)
    alphabet = list("abcdefghij")
    for _ in range(1_000):
        pred = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        truth = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        assert score_what(pred, truth) == _oracle_f1(pred, truth)

    bases = ["src/auth.go", "pkg/jwt/keys.go", "model/user.go", "api/routes.ts", "cmd/main.go"]
    equivalent = [
        lambda p: p,
        lambda p: "./" + p,
        lambda p: p.replace("/", "\\"),
        lambda p: p.replace("/", "//", 1),
        lambda p: "././" + p,
    ]
    differing = [
        lambda p: p.upper(),
        lambda p: "other/" + p,
        lambda p: p.replace(".go", ".rs").replace(".ts", ".js"),
        lambda p: p[::-1].replace("/", "_"),
        lambda p: p + ".bak",
    ]
    cases = 0
    for base in bases:
        for transform in equivalent:
            assert score_where(transform(base), base) == 1, (base, transform(base))
            cases += 1
        for transform in differing:
            assert score_where(transform(base), base) == 0, (base, transform(base))
            cases += 1
    assert cases == 50
    elapsed = budget.check()
    print(f"criterion 6 PASS: F1 oracle x1000 exact, 50-case where table ({elapsed:.2f}s)")


def test_criterion_7_validator_completeness():
    budget = _Budget(10.0)
    rng = random.Random(7)
    trials = 0
    while trials < 100:
        index = make_index(rng, rng.randint(3, 25), clean_refs=True)
        assert not has_errors(validate_index(index))
        referenced = sorted({ref for entry in index.code_entries for ref in entry.r})
        if not referenced:
            continue
        victim = rng.choice(referenced)
        smaller = Index(
            index.header,
            tuple(entry for entry in index.code_entries if entry.path != victim),
            index.table_entries,
        )
        rules = {issue.rule for issue in validate_index(smaller)}
        assert "E2" in rules, f"deleting {victim} raised no E2"
        trials += 1
    elapsed = budget.check()
    print(f"criterion 7 PASS: E2 fires on all 100 random deletions ({elapsed:.2f}s)")


def test_criterion_8_scale_smoke(tmp_path):
    budget = _Budget(10.0)
    repo = tmp_path / "bigrepo"
    for d in range(50):
        (repo / f"pkg{d:02d}").mkdir(parents=True)
    for i in range(1_000):
        d, n = i % 50, i // 50
        target = (i * 7 + 13) % 1_000
        body = (
            f"package pkg{d:02d}\n"
            f'import "app/pkg{target % 50:02d}/mod{target}"\n'
            + "// line\n" * (i % 40)
        )
        (repo / f"pkg{d:02d}" / f"mod{i}.go").write_text(body, encoding="utf-8")

    rules = ScaffoldRules(
        layer_rules=(("pkg*", "S"),),
        module_rules=(("*", "C"),),
    )
    result = scaffold_repo(repo, rules)
    assert len(result.index.code_entries) == 1_000
    issues = validate_index(result.index)
    assert not has_errors(issues)
    coverage = check_coverage(
        result.index, [entry.path for entry in result.index.code_entries]
    )
    assert coverage.eligible_files == 1_000
    assert coverage.indexed_files == 1_000
    assert coverage.unindexed == ()
    assert coverage.orphan_entries == ()
    from aoci.metrics import index_stats

    stats = index_stats(result.index, repo_loc=50_000)
    assert stats.total_code_entries == 1_000
    elapsed = budget.check()
    print(f"criterion 8 PASS: 1,000-file scaffold+check+stats in {elapsed:.2f}s")


def test_criterion_9_fuzz_robustness(listing_text):
    budget = _Budget(60.0)
    rng = random.Random(9)
    golden = listing_text.encode("utf-8")
    rejected = 0
    for trial in range(10_000):
        if trial % 2 == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 200)))
        else:
            # Splice noise into a valid document to reach deeper parser paths.
            data = splice_noise(rng, golden)
        try:
            parse_index(data)
        except ParseError as exc:
            rejected += 1
            assert exc.line_number >= 1
            assert exc.column >= 1
            assert exc.kind is not None
    assert rejected > 0
    elapsed = budget.check()
    print(
        f"criterion 9 PASS: 10,000 fuzz inputs, {rejected} located rejections, "
        f"no crash ({elapsed:.2f}s)"
    )


def test_scale_10k_file_scaffold(tmp_path):
    """A 10,000-file scaffold finishes in seconds: fan-in resolves each
    reference by bisecting the sorted paths instead of scanning them all."""
    n, packages = 10_000, 100
    repo = tmp_path / "repo10k"
    for d in range(packages):
        (repo / f"pkg{d:02d}").mkdir(parents=True)
    # File i lives in package i % 100 and imports one package and one file.
    imports = [((i * 7 + 13) % packages, (i * 31 + 5) % n) for i in range(n)]
    for i, (package, module) in enumerate(imports):
        body = (
            f"package pkg{i % packages:02d}\n"
            f'import "app/pkg{package:02d}"\n'
            f'import "app/pkg{module % packages:02d}/mod{module}"\n'
        )
        (repo / f"pkg{i % packages:02d}" / f"mod{i}.go").write_text(body, encoding="utf-8")
    rules = ScaffoldRules(layer_rules=(("pkg*", "S"),), module_rules=(("*", "C"),))

    budget = _Budget(10.0)
    result = scaffold_repo(repo, rules)
    elapsed = budget.check()
    assert len(result.index.code_entries) == n
    fan_in = [0] * n
    for i, (package, module) in enumerate(imports):
        hit = set(range(package, n, packages)) | {module}
        hit.discard(i)
        for j in hit:
            fan_in[j] += 1
    drafts = {draft.entry.path: draft for draft in result.drafts}
    assert [drafts[f"pkg{j % packages:02d}/mod{j}.go"].fan_in for j in range(n)] == fan_in
    assert drafts["pkg00/mod0.go"].entry.r == ("pkg13", "pkg05/mod5")
    print(f"scale PASS: 10,000-file scaffold in {elapsed:.2f}s")


def test_scale_plan_400_renames_over_20k_entries():
    """Rename planning is linear in the number of references."""
    n = 20_000
    paths = [f"pkg{i // 10}/mod{i}.go" for i in range(n)]
    entries = tuple(
        CodeEntry(
            path=path,
            tag=None,
            decoded=None,
            f="TODO",
            r=(paths[(i + 1) % n], paths[(i + 2) % n][: -len(".go")]),
            a="",
            s="TODO",
        )
        for i, path in enumerate(paths)
    )
    index = Index(Header(), entries)
    renamed = range(0, n, n // 400)
    changes = ChangeSet(
        tuple(
            ChangeRecord(ChangeStatus.RENAMED, paths[j], paths[j].replace(".go", "_r.go"))
            for j in renamed
        )
    )

    lines = index_lines(index)
    budget = _Budget(2.0)
    plan = plan_update(lines, changes)
    elapsed = budget.check()
    # Each renamed file is named once exactly and once without its extension.
    assert len(plan.ref_rewrites) == 800
    assert set(plan.ref_rewrites) == {
        (paths[(j - 1) % n], paths[j], paths[j].replace(".go", "_r.go")) for j in renamed
    } | {(paths[(j - 2) % n], paths[j][:-3], paths[j][:-3] + "_r") for j in renamed}
    assert plan.dangling_after == ()
    print(f"scale PASS: 400 renames over 20,000 entries planned in {elapsed:.2f}s")


def test_scale_parse_20k_entries(monkeypatch):
    """A 20,000-entry index parses and validates within a second: each
    distinct tag is decoded once, and Index does not decode it again."""
    n = 20_000
    rng = random.Random(20_000)
    dictionary = make_reference_dictionary()
    # Half the tags repeat an earlier one, as in a real index where many
    # files share a layer, module and importance.
    tags = [encode_tag(make_decoded(rng, dictionary, with_scale=True)) for _ in range(n // 2)]
    tags += [rng.choice(tags) for _ in range(n - len(tags))]
    paths = [f"pkg{i // 20}/mod{i}.go" for i in range(n)]
    lines = [serialize_index(Index(Header(project="scale", dictionary=dictionary))).rstrip("\n")]
    for i, path in enumerate(paths):
        refs = ",".join((paths[(i * 7 + 1) % n], f"pkg{(i * 3) % (n // 20)}"))
        lines.append(
            f"{path}[{tags[i]}]: F:module {i} role | R:{refs} | A:Run{i},Stop{i} | "
            f"S:{' '.join(rng.choice(('cache', 'queue', 'retry', 'merge')) for _ in range(30))}"
        )
    text = "\n".join(lines) + "\n"

    constructed = 0
    post_init = DecodedTag.__post_init__

    def counting_post_init(self):
        nonlocal constructed
        constructed += 1
        post_init(self)

    monkeypatch.setattr(DecodedTag, "__post_init__", counting_post_init)
    budget = _Budget(1.0)
    index = parse_index(text)
    issues = validate_index(index)
    elapsed = budget.check()
    assert len(index.code_entries) == n
    assert constructed <= len(set(tags))
    assert not has_errors(issues)
    assert [entry.tag for entry in index.code_entries] == tags
    print(
        f"scale PASS: 20,000 entries ({len(set(tags))} distinct tags) parsed and "
        f"validated in {elapsed:.2f}s"
    )


def test_update_with_a_matching_digest_builds_only_touched_entries(tmp_path, monkeypatch):
    """Counted, not timed: ``update`` on the index its store's digest record
    names never parses the whole index, and builds a ``CodeEntry`` only for
    the renamed rows, the rewrite hosts and the drafts."""
    from aoci import cli, grammar
    from aoci.incremental import StalenessStore, content_digest, parse_changeset
    from conftest import reference_apply_update

    n = 20_000
    rng = random.Random(40)
    dictionary = make_reference_dictionary()
    paths = [f"pkg{i // 20}/mod{i}.go" for i in range(n)]
    tags = [make_decoded(rng, dictionary, with_scale=True) for _ in range(50)]
    entries = []
    for i, path in enumerate(paths):
        decoded = tags[i % len(tags)]
        refs = (paths[(i * 7 + 1) % n], f"pkg{(i * 3) % (n // 20)}")
        entries.append(
            CodeEntry(path, encode_tag(decoded), decoded, f"module {i}", refs, "", "synopsis")
        )
    index = Index(Header(project="scale", dictionary=dictionary), tuple(entries))
    data = serialize_index(index).encode("utf-8")
    index_path, store_path = tmp_path / "idx.aoci", tmp_path / "store.tsv"
    index_path.write_bytes(data)
    store_path.write_text(StalenessStore(index_digest=content_digest(data)).dump())

    picked = rng.sample(range(n), 35)
    renamed, modified, deleted = picked[:10], picked[10:30], picked[30:]
    listing = (
        [f"R100\t{paths[j]}\t{paths[j][:-3]}_moved.go" for j in renamed]
        + [f"M\t{paths[j]}" for j in modified]
        + [f"D\t{paths[j]}" for j in deleted]
        + [f"A\tnew/file{k}.go" for k in range(5)]
    )
    (tmp_path / "changes.txt").write_text("\n".join(listing) + "\n")
    draft_dir = tmp_path / "drafts"
    draft_dir.mkdir()
    draft_lines = [
        f"{path}[{encode_tag(tags[0])}]: F:drafted | R:{paths[0]} | A:- | S:new text"
        for path in [paths[j] for j in modified] + [f"new/file{k}.go" for k in range(5)]
    ]
    for k, line in enumerate(draft_lines):
        (draft_dir / f"{k}.entry.txt").write_text(line + "\n")

    changes = parse_changeset("\n".join(listing))
    plan = plan_update(index_lines(index), changes)
    drafts = {e.path: e for e in (parse_code_entry_line(l, dictionary) for l in draft_lines)}
    expected = serialize_index(reference_apply_update(index, plan, drafts)).encode("utf-8")
    hosts = {host for host, _, _ in plan.ref_rewrites}
    assert len(hosts) >= 10

    full_parses = []
    constructed = 0
    post_init = CodeEntry.__post_init__

    def counting_post_init(self):
        nonlocal constructed
        constructed += 1
        post_init(self)

    def refused_parse(data):
        full_parses.append(len(data))
        raise AssertionError("the whole index was parsed")

    monkeypatch.setattr(grammar, "parse_index", refused_parse)
    monkeypatch.setattr(cli, "parse_index", refused_parse)
    monkeypatch.setattr(CodeEntry, "__post_init__", counting_post_init)
    monkeypatch.chdir(tmp_path)
    code = cli.run(
        ["update", "idx.aoci", "--changes", "changes.txt", "--drafts", "drafts",
         "--store", "store.tsv"]
    )
    monkeypatch.undo()

    assert code == 0
    assert full_parses == []
    # A touched row is parsed into one entry, then rebuilt once per change:
    # its new references, then its new path.
    touched = hosts | {paths[j] for j in renamed}
    budget = len(touched) + len(renamed) + len(hosts) + len(draft_lines)
    assert constructed <= budget, f"{constructed} entries built, budget {budget}"
    assert index_path.read_bytes() == expected
    print(
        f"incremental PASS: 40-record listing over 20,000 entries built {constructed} "
        f"entries ({len(renamed)} renamed, {len(hosts)} hosts, {len(draft_lines)} drafts)"
    )
