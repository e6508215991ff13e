"""The staleness store keeps rows as the text they were read as.

``EagerStore`` (``tests/eager_store.py``) is the store that split every row
into tuples at load and formatted every row anew on write. The lazy store
must write the same bytes, give the same answers and raise the same errors,
for any store text and any sequence of calls.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_store import EagerStore
from aoci.incremental import StalenessStore, stat_key

# Spellings of two files, and a path that canonicalises to nothing.
_PATHS = ["a.go", "./a.go", ".//a.go", "d/b.go", "d\\b.go", "d//b.go", "./d\\b.go", "c.py", "./"]
_DIGESTS = ["", "c1", "c2", "e 1", "c1\r"]
_STATS = ["", "1:5:1:7", "2:15:1:7", "1:25:1:8"]

_field = st.sampled_from(_DIGESTS)
# A row in any form a store may hold, written or not: any path spelling, the
# index-digest row (empty path), an empty or missing 4th field, one field too
# few or too many, and blank or whitespace-only lines.
_line = st.one_of(
    st.tuples(st.sampled_from(_PATHS + [""]), _field, _field).map("\t".join),
    st.tuples(st.sampled_from(_PATHS + [""]), _field, _field, st.sampled_from(_STATS)).map(
        "\t".join
    ),
    st.sampled_from(["", " ", "\t\t", " \t \t ", "only-one-field", "a.go\tc1", "a.go\t\t\t\t"]),
)
_ending = st.sampled_from(["", "\r", "\r\r", " "])
_text = st.tuples(
    st.lists(st.tuples(_line, _ending).map("".join), max_size=8),
    st.sampled_from(["", "\n"]),
).map(lambda parts: "\n".join(parts[0]) + parts[1])


def _stat(size: int, mtime_ns: int, ino: int) -> SimpleNamespace:
    """What the store reads off an ``os.stat_result``."""
    return SimpleNamespace(st_size=size, st_mtime_ns=mtime_ns, st_ctime_ns=1, st_ino=ino)


_stat_st = st.builds(_stat, st.sampled_from([1, 2]), st.sampled_from([5, 15, 25]), st.just(7))
_path = st.sampled_from(_PATHS[:-1])
_call = st.one_of(
    st.tuples(st.just("set"), _path, _field, _field),
    st.tuples(st.just("observe"), _path, _field, _stat_st),
    st.tuples(st.just("mark_pending"), _path),
    st.tuples(st.just("discard"), _path),
    st.tuples(st.just("unchanged"), _path, _stat_st),
    st.tuples(st.just("get"), _path),
)


def _outcome(action):
    """``action()``'s result, or the type and text of what it raised."""
    try:
        return "ok", action()
    except Exception as exc:  # compared between the two stores, never hidden
        return type(exc).__name__, str(exc)


def _state(store) -> tuple:
    return store.dump(), store.index_digest, store.paths(), {p: store.get(p) for p in store.paths()}


@settings(max_examples=400, deadline=None)
@given(_text, st.sampled_from([0, 10, 20]))
def test_load_and_write_back_as_the_eager_store_does(text, mtime_ns):
    want = _outcome(lambda: EagerStore.load(text, mtime_ns))
    got = _outcome(lambda: StalenessStore.load(text, mtime_ns))
    if want[0] != "ok":
        assert got == want
        return
    eager, lazy = want[1], got[1]
    assert _state(lazy) == _state(eager)
    # Text the eager store wrote loads back as the eager store loads it.
    written = eager.dump()
    assert _state(StalenessStore.load(written)) == _state(EagerStore.load(written))


@settings(max_examples=400, deadline=None)
@given(
    _text,
    st.sampled_from([0, 10, 20]),
    st.sampled_from([0, 10, 20]),
    st.lists(_call, max_size=12),
)
def test_calls_answer_and_write_as_the_eager_store_does(text, mtime_ns, started_ns, calls):
    try:
        eager = EagerStore.load(text, mtime_ns)
    except Exception:  # load errors are compared above
        return
    lazy = StalenessStore.load(text, mtime_ns)
    eager.started_ns = lazy.started_ns = started_ns
    for name, *args in calls:
        assert _outcome(lambda: getattr(lazy, name)(*args)) == _outcome(
            lambda: getattr(eager, name)(*args)
        ), (name, args)
        assert _state(lazy) == _state(eager), (name, args)


def test_untouched_rows_are_written_back_as_read():
    text = "\tf00d\t\na.go\tc1\te1\t1:5:1:7\nd/b.go\t\te2\n"
    store = StalenessStore.load(text, 10)
    assert store.dump() == text
    store.set("z.py", "c3", "e3")
    assert store.dump() == text + "z.py\tc3\te3\n"


@pytest.mark.parametrize(
    "text, want",
    [
        ("a.go\tc1\te1\r\n", "a.go\tc1\te1\n"),  # CR LF
        ("./a.go\tc1\te1\n", "a.go\tc1\te1\n"),
        ("d\\b.go\tc1\te1\n", "d/b.go\tc1\te1\n"),
        ("d//b.go\tc1\te1\n", "d/b.go\tc1\te1\n"),
        ("a.go\tc1\te1\t\n", "a.go\tc1\te1\n"),  # an empty 4th field
        # A repeated path takes the later digests and keeps an earlier stat.
        ("a.go\tc1\te1\t1:5:1:7\n./a.go\tc2\te2\n", "a.go\tc2\te2\t1:5:1:7\n"),
        ("a.go\tc1\te1\t1:5:1:7\na.go\tc2\te2\t2:15:1:7\n", "a.go\tc2\te2\t2:15:1:7\n"),
        # The index-digest row is written first, and only when it holds one.
        ("a.go\tc1\te1\n\tf00d\tx\t1:5:1:7\n", "\tf00d\t\na.go\tc1\te1\n"),
        ("\t\tx\na.go\tc1\te1\n", "a.go\tc1\te1\n"),
    ],
)
def test_a_row_not_in_written_form_is_normalised_at_load(text, want):
    assert StalenessStore.load(text).dump() == want == EagerStore.load(text).dump()


@pytest.mark.parametrize("text, line", [("a.go\tc1\n", 1), ("\n\nx\n", 3), ("a\tb\tc\td\te\n", 1)])
def test_a_malformed_row_raises_at_load_with_its_line(text, line):
    with pytest.raises(Exception) as lazy:
        StalenessStore.load(text)
    with pytest.raises(Exception) as eager:
        EagerStore.load(text)
    assert lazy.value.line_number == eager.value.line_number == line
    assert str(lazy.value) == str(eager.value)


@pytest.mark.parametrize("spelling, path", [("./a.go", "a.go"), ("a\\b.go", "a/b.go")])
def test_every_store_method_canonicalises_its_path(spelling, path):
    store = StalenessStore({path: ("c1", "e1")})
    assert store.get(spelling) == ("c1", "e1")
    store.mark_pending(spelling)
    assert store.get(path) == ("", "e1")  # the entry digest is kept
    store.set(spelling, "c2", "e2")
    assert store.get(path) == ("c2", "e2")

    st = _stat(1, 5, 7)
    store = StalenessStore.load(f"{path}\tc1\te1\n", mtime_ns=10)
    store.started_ns = 10
    store.observe(spelling, "c1", st)  # a touch: the row takes the stat
    assert store.dump() == f"{path}\tc1\te1\t{stat_key(st)}\n"
    assert store.unchanged(spelling, st)
    store.discard(spelling)
    assert store.paths() == frozenset() and store.get(path) is None


def test_a_store_the_eager_writer_wrote_after_real_stats_loads_back_unchanged(tmp_path):
    for name in ("a.go", "b.go"):
        (tmp_path / name).write_bytes(name.encode())
    eager = EagerStore(index_digest="f00d")
    eager.started_ns = max(os.stat(tmp_path / n).st_mtime_ns for n in ("a.go", "b.go")) + 1
    for name in ("a.go", "b.go"):
        eager.observe(name, "c-" + name, os.stat(tmp_path / name))
        eager.set(name, "c-" + name, "e-" + name)
    eager.mark_pending("b.go")
    text = eager.dump()
    assert StalenessStore.load(text).dump() == text


def test_a_pending_row_is_never_unchanged():
    st = _stat(1, 5, 7)
    assert StalenessStore.load(f"a.go\tc1\te1\t{stat_key(st)}\n", 10).unchanged("a.go", st)
    pending = f"a.go\t\te1\t{stat_key(st)}\n"
    assert not StalenessStore.load(pending, 10).unchanged("a.go", st)
    assert not EagerStore.load(pending, 10).unchanged("a.go", st)
