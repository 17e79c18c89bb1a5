"""Loading a series reads each later file as a delta.

A canonical file after a canonical file is read as a line delta; a file
expat reads after a file expat read reuses each record whose bytes did not
change.  Whatever path a file takes, ``load_history`` must give exactly what
``parse_snapshot`` gives on that file alone: the same snapshot, or the same
IntegrityError message naming the file.  The profiles the loader reports
as changed in each interval must be the ones a comparison finds.
"""

import gc
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrhist import snapshot_io
from corrhist.errors import IntegrityError
from corrhist.extract import raw_groups_between
from corrhist.model import DocumentRecord, History, Profile
from corrhist.snapshot_io import load_history, parse_snapshot, snapshot_filename

DATES = ("2017-01-01", "2017-02-01", "2017-03-01", "2017-04-01", "2017-05-01")


def doc_line(key, authors=(), editors=(), venue=None):
    venue_xml = f'<venue key="{venue[0]}">{venue[1]}</venue>' if venue else ""
    return (
        f'<document pkey="{key}">{venue_xml}'
        + "".join(f"<author>{a}</author>" for a in authors)
        + "".join(f"<editor>{e}</editor>" for e in editors)
        + "</document>"
    )


def profile_line(pid, *mentions):
    """``mentions`` are (document, position, surface[, "editor"])."""
    sigs = "".join(
        f'<signature pkey="{m[0]}" pos="{m[1]}" surface="{m[2]}"'
        + (' role="editor"' if m[3:] else "")
        + "/>"
        for m in mentions
    )
    return f'<profile authorid="{pid}">{sigs}</profile>'


XML_DECL = '<?xml version="1.0" encoding="UTF-8"?>'


def canonical_file(date, lines, prolog=XML_DECL):
    return "\n".join([
        prolog,
        f'<snapshot date="{date}" version="1">',
        *lines,
        "</snapshot>",
        "",
    ]).encode()


def foreign_file(date, lines, prolog=XML_DECL):
    """The same records with indented lines, as another tool might write
    them: not in canonical form, so expat reads the file."""
    return canonical_file(date, ["  " + line for line in lines], prolog)


def write_series(directory, files):
    """One file per date; a file given as lines is rendered canonical."""
    paths = []
    for date, file in zip(DATES, files):
        path = Path(directory) / snapshot_filename(date)
        path.write_bytes(file if isinstance(file, bytes) else canonical_file(date, file))
        paths.append(path)
    return paths


def contents(s):
    return (s.time, s.profiles, s.documents, s.venues)


def assert_delta_error_as_single_parse(tmp_path, first, second, message):
    """``first`` and ``second`` are files, as lines or as bytes."""
    _, path = write_series(tmp_path, [first, second])
    parse_snapshot(tmp_path / snapshot_filename(DATES[0]))
    with pytest.raises(IntegrityError, match=message) as single:
        parse_snapshot(path)
    with pytest.raises(IntegrityError) as loaded:
        load_history(tmp_path)
    assert str(loaded.value) == str(single.value)
    assert path.name in str(loaded.value)


def test_changed_profile_claims_a_mention_an_unchanged_profile_holds(tmp_path):
    d1 = doc_line("d1", ["A", "B"])
    p1 = profile_line("p1", ("d1", 0, "A"))
    assert_delta_error_as_single_parse(
        tmp_path,
        [d1, p1, profile_line("p2", ("d1", 1, "B"))],
        [d1, p1, profile_line("p2", ("d1", 0, "A"), ("d1", 1, "B"))],
        "interpreted by two profiles: p1 and p2",
    )


def test_author_list_shrinks_under_an_unchanged_profile(tmp_path):
    profiles = [profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d1", 1, "B"))]
    assert_delta_error_as_single_parse(
        tmp_path,
        [doc_line("d1", ["A", "B"]), *profiles],
        [doc_line("d1", ["A"]), *profiles],
        "p2: position 1 out of range",
    )


def test_document_vanishes_under_an_unchanged_profile(tmp_path):
    d1 = doc_line("d1", ["A"])
    profiles = [profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d2", 0, "B"))]
    assert_delta_error_as_single_parse(
        tmp_path,
        [d1, doc_line("d2", ["B"]), *profiles],
        [d1, *profiles],
        "p2: mention references unknown document 'd2'",
    )


def test_changed_document_rebinds_a_venue_an_unchanged_one_keeps(tmp_path):
    d2 = doc_line("d2", ["B"], venue=("v", "Old Name"))
    profiles = [profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d2", 0, "B"))]
    assert_delta_error_as_single_parse(
        tmp_path,
        [doc_line("d1", ["A"], venue=("v", "Old Name")), d2, *profiles],
        [doc_line("d1", ["A"], venue=("v", "New Name")), d2, *profiles],
        "venue key 'v' bound to two names",
    )


def test_renaming_every_document_of_a_venue_is_accepted(tmp_path):
    profiles = [profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d2", 0, "B"))]
    paths = write_series(tmp_path, [
        [doc_line("d1", ["A"], venue=("v", "Old")), doc_line("d2", ["B"], venue=("v", "Old")),
         *profiles],
        [doc_line("d1", ["A"], venue=("v", "New")), doc_line("d2", ["B"], venue=("v", "New")),
         *profiles],
    ])
    first, second = load_history(tmp_path).snapshots
    assert second.venues == {"v": "New"}
    assert contents(second) == contents(parse_snapshot(paths[1]))
    assert second.profiles["p1"] is first.profiles["p1"]


def test_venue_of_a_vanished_last_document_drops_out(tmp_path):
    d1 = doc_line("d1", ["A"], venue=("v", "Kept"))
    p1 = profile_line("p1", ("d1", 0, "A"))
    write_series(tmp_path, [
        [d1, doc_line("d2", ["B"], venue=("u", "Gone")), p1, profile_line("p2", ("d2", 0, "B"))],
        [d1, p1],
        [d1, doc_line("d3", ["C"], venue=("u", "Back")), p1, profile_line("p3", ("d3", 0, "C"))],
    ])
    first, second, third = load_history(tmp_path).snapshots
    assert first.venues == {"v": "Kept", "u": "Gone"}
    assert second.venues == {"v": "Kept"}
    assert third.venues == {"v": "Kept", "u": "Back"}


@pytest.mark.parametrize("render", [canonical_file, foreign_file])
def test_one_changed_profile_constructs_only_its_record(tmp_path, monkeypatch, render):
    docs = [doc_line(f"d{i}", [f"N{i}"], venue=("v", "V")) for i in range(5)]

    def profiles(surface):
        return [profile_line(f"p{i}", (f"d{i}", 0, surface if i == 2 else f"N{i}"))
                for i in range(5)]

    write_series(tmp_path, [
        render(date, docs + profiles(surface))
        for date, surface in zip(DATES, ["N2", "N. 2", "Nn 2"])
    ])
    made = []

    def counting(cls):
        def make(*args, **kwargs):
            made.append(cls(*args, **kwargs))
            return made[-1]
        return make

    monkeypatch.setattr(snapshot_io, "Profile", counting(Profile))
    monkeypatch.setattr(snapshot_io, "DocumentRecord", counting(DocumentRecord))
    history = load_history(tmp_path)
    # The ten records of the first file, then p2 once per later file.
    assert len(made) == 12
    assert [(type(r), r.profile_id) for r in made[10:]] == [(Profile, "p2")] * 2
    first, second, third = history.snapshots
    assert third.profiles["p1"] is second.profiles["p1"] is first.profiles["p1"]
    assert third.documents["d2"] is first.documents["d2"]
    assert history.profile_changes == (frozenset({"p2"}), frozenset({"p2"}))


def test_change_sets_on_every_read_path(tmp_path):
    d1, d2 = doc_line("d1", ["A", "B"]), doc_line("d2", ["C"])
    files = [
        [d1, d2, profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d1", 1, "B")),
         profile_line("p3", ("d2", 0, "C"))],
        # Delta: p2 takes p1's mention, p3 only changes a surface.
        [d1, d2, profile_line("p2", ("d1", 0, "A"), ("d1", 1, "B")),
         profile_line("p3", ("d2", 0, "C."))],
        # Expat: p4 takes over p3's mention.
        [d1, d2, "<!-- edited -->", profile_line("p2", ("d1", 0, "A"), ("d1", 1, "B")),
         profile_line("p4", ("d2", 0, "C."))],
        # Full canonical pass after an expat file: p2 splits back.
        [d1, d2, profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d1", 1, "B")),
         profile_line("p4", ("d2", 0, "C."))],
    ]
    write_series(tmp_path, files)
    history = load_history(tmp_path)
    assert history.profile_changes == (
        frozenset({"p1", "p2", "p3"}), frozenset({"p3", "p4"}), frozenset({"p1", "p2"})
    )


def test_a_rewritten_line_with_an_equal_record_is_no_change(tmp_path):
    d1 = doc_line("d1", ["A", "B"])
    write_series(tmp_path, [
        [d1, profile_line("p1", ("d1", 0, "A"), ("d1", 1, "B"))],
        [d1, profile_line("p1", ("d1", 1, "B"), ("d1", 0, "A"))],
    ])
    history = load_history(tmp_path)
    assert history.profile_changes == (frozenset(),)
    first, second = history.snapshots
    assert second.profiles["p1"] is first.profiles["p1"]


# ---------------------------------------------------------------------------
# Expat files read after expat files: records whose bytes did not change


def doctype(subset):
    return XML_DECL + f"\n<!DOCTYPE snapshot [{subset}]>"


def utf16(data):
    return data.decode().encode("utf-16")


_ENTITY_LINES = [doc_line("d1", ["&n;"]), profile_line("p1", ("d1", 0, "&n;"))]
_NAME_LINES = [doc_line("d1", ["Jos\u00e9"]), profile_line("p1", ("d1", 0, "Jos\u00e9"))]
_ROLE_LINES = [doc_line("d1", ["A"], ["A"]), profile_line("p1", ("d1", 0, "A"))]
_P1 = profile_line("p1", ("d1", 0, "A"))


@pytest.mark.parametrize("files", [
    # A prolog that changes what the same record bytes mean.
    pytest.param([
        foreign_file(DATES[0], _ENTITY_LINES, doctype('<!ENTITY n "A">')),
        foreign_file(DATES[1], _ENTITY_LINES, doctype('<!ENTITY n "B">')),
    ], id="entity"),
    pytest.param([
        foreign_file(DATES[0], _NAME_LINES),
        foreign_file(DATES[1], _NAME_LINES, '<?xml version="1.0" encoding="ISO-8859-1"?>'),
    ], id="encoding"),
    pytest.param([
        foreign_file(DATES[0], _ROLE_LINES),
        foreign_file(DATES[1], _ROLE_LINES, doctype('<!ATTLIST signature role CDATA "editor">')),
    ], id="attribute-default"),
    # ``>`` inside an attribute value: the span ends at the tag's own end.
    pytest.param([
        foreign_file(DATES[0], ['<document pkey="a>b"/>']),
        foreign_file(DATES[1], ['<document pkey="a>b" year="1999"/>']),
    ], id="empty-element"),
    # Expat reports both events of a record from an entity at the reference.
    pytest.param([
        foreign_file(DATES[0], ["&rec;"], doctype('<!ENTITY rec "<document pkey=\'d1\'/>">')),
        foreign_file(DATES[1], [doc_line("d1", ["A"])],
                     doctype('<!ENTITY rec "<document pkey=\'d1\'/>">')),
    ], id="record-from-entity"),
    # No ASCII tag bytes to find a span's end by.
    pytest.param([
        utf16(foreign_file(DATES[0], [doc_line("d1", ["A"]), _P1],
                           '<?xml version="1.0" encoding="UTF-16"?>')),
        utf16(foreign_file(DATES[1], [doc_line("d1", ["A", "B"]), _P1],
                           '<?xml version="1.0" encoding="UTF-16"?>')),
    ], id="utf-16"),
    # Reuse follows only the file read just before.
    pytest.param([
        foreign_file(DATES[0], [doc_line("d1", ["A"]), _P1]),
        [doc_line("d1", ["A", "B"]), _P1],
        foreign_file(DATES[2], [doc_line("d1", ["A"]), _P1]),
    ], id="canonical-in-between"),
])
def test_a_foreign_record_is_reused_only_when_its_bytes_mean_the_same(tmp_path, files):
    paths = write_series(tmp_path, files)
    loaded = load_history(tmp_path).snapshots
    assert [contents(s) for s in loaded] == [contents(parse_snapshot(p)) for p in paths]


def test_a_reused_profile_is_still_checked_in_file_order(tmp_path):
    d1 = doc_line("d1", ["A", "B"])
    p1 = profile_line("p1", ("d1", 0, "A"))
    assert_delta_error_as_single_parse(
        tmp_path,
        foreign_file(DATES[0], [d1, p1, profile_line("p2", ("d1", 1, "B"))]),
        # p1 is reused; p2, later in the file, claims its mention.
        foreign_file(DATES[1], [d1, p1, profile_line("p2", ("d1", 0, "A"), ("d1", 1, "B"))]),
        "interpreted by two profiles: p1 and p2",
    )


def test_a_reused_profile_reports_its_first_conflict_as_listed(tmp_path):
    names = [f"N{i}" for i in range(40)]
    d1 = doc_line("d1", names)
    # Listed last to first: a check in set order would name another mention
    # in about 38 cases of 39.
    listed = profile_line("p2", *[("d1", i, names[i]) for i in reversed(range(1, 40))])
    assert_delta_error_as_single_parse(
        tmp_path,
        foreign_file(DATES[0], [d1, profile_line("p1", ("d1", 0, "N0")), listed]),
        foreign_file(DATES[1], [
            d1, profile_line("p1", *[("d1", i, names[i]) for i in range(40)]), listed,
        ]),
        re.escape("mention ('d1', 39, 'author') interpreted by two profiles: p1 and p2"),
    )


def test_an_expat_read_leaves_no_reference_cycle(tmp_path):
    lines = [doc_line("d1", ["A"]), profile_line("p1", ("d1", 0, "A"))]
    write_series(tmp_path, [foreign_file(date, lines) for date in DATES[:2]])
    gc.collect()
    gc.disable()
    try:
        load_history(tmp_path)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


# ---------------------------------------------------------------------------
# Differential test over random series with random, partly invalid, edits


class Series:
    """A small bibliography edited step by step, rendered as canonical lines
    without any check, so the edits can break every integrity rule.  A
    foreign series indents its record lines, as a dump written by another
    tool would, so its files go to expat until an edit toggles it back."""

    def __init__(self):
        self.docs = {
            f"d{i}": [("v0", "V0") if i % 2 else None, [f"A{i}", f"B{i}"][: 1 + i % 2],
                      [f"E{i}"] if i == 3 else []]
            for i in range(4)
        }
        self.profiles = {
            "p0": {("d0", 0, "A0", False), ("d1", 0, "A1", False)},
            "p1": {("d1", 1, "B1", False)},
            "p2": {("d2", 0, "A2", False), ("d3", 0, "E3", True)},
            "p3": {("d3", 0, "A3", False)},
        }
        # A line repeated, or a comment that sends the file to expat, in
        # this file only.
        self.repeat: int | None = None
        self.comment: int | None = None
        self.foreign = False

    def copy(self):
        other = Series()
        other.docs = {k: [v[0], list(v[1]), list(v[2])] for k, v in self.docs.items()}
        other.profiles = {k: set(v) for k, v in self.profiles.items()}
        other.foreign = self.foreign
        return other

    def lines(self):
        out = [doc_line(k, v[1], v[2], v[0]) for k, v in sorted(self.docs.items())]
        for pid, mentions in sorted(self.profiles.items()):
            out.append(profile_line(pid, *[
                (d, p, s, "editor") if e else (d, p, s)
                for d, p, s, e in sorted(mentions, key=lambda m: (m[0], m[1], m[3]))
            ]))
        if self.repeat is not None and out:
            out.insert(self.repeat % (len(out) + 1), out[self.repeat % len(out)])
        if self.foreign:
            out = ["  " + line for line in out]
        if self.comment is not None:
            out.insert(self.comment % (len(out) + 1), "<!-- edited -->")
        return out

    def edit(self, op, a, b, c, history):
        pids = sorted(self.profiles)
        keys = sorted(self.docs)
        if op == "move" and pids:
            source = self.profiles[pids[a % len(pids)]]
            if source:
                mention = sorted(source)[b % len(source)]
                source.discard(mention)
                self.profiles.setdefault(f"p{c % 6}", set()).add(mention)
                if not source and c % 3:
                    del self.profiles[pids[a % len(pids)]]
        elif op == "double" and pids:
            source = self.profiles[pids[a % len(pids)]]
            if source:
                self.profiles.setdefault(f"p{c % 6}", set()).add(sorted(source)[b % len(source)])
        elif op == "surface" and pids:
            source = self.profiles[pids[a % len(pids)]]
            if source:
                d, p, _s, e = mention = sorted(source)[b % len(source)]
                source.discard(mention)
                source.add((d, p, ["S", "T u", " "][c % 3], e))
        elif op == "shrink" and keys:
            names = self.docs[keys[a % len(keys)]][1 + b % 2]
            if names:
                names.pop()
        elif op == "grow" and keys:
            self.docs[keys[a % len(keys)]][1 + b % 2].append(f"G{c}")
        elif op == "drop_doc" and keys:
            key = keys[a % len(keys)]
            del self.docs[key]
            if b % 3:
                for pid in pids:
                    self.profiles[pid] = {m for m in self.profiles[pid] if m[0] != key}
                    if not self.profiles[pid]:
                        del self.profiles[pid]
        elif op == "new_doc":
            key = f"d{4 + c % 4}"
            self.docs[key] = [("v1", "V1") if b % 2 else None, [f"N{c}"], []]
            self.profiles.setdefault(f"p{a % 6}", set()).add((key, 0, f"N{c}", False))
        elif op == "venue_one" and keys:
            self.docs[keys[a % len(keys)]][0] = (f"v{b % 2}", f"V{b % 2}{'x' * (c % 2)}")
        elif op == "venue_all":
            for doc in self.docs.values():
                if doc[0] is not None and doc[0][0] == f"v{b % 2}":
                    doc[0] = (doc[0][0], f"R{c % 3}")
        elif op == "revert":
            earlier = history[a % len(history)].copy()
            self.docs, self.profiles = earlier.docs, earlier.profiles
        elif op == "repeat":
            self.repeat = a
        elif op == "comment":
            self.comment = a
        elif op == "foreign":
            self.foreign = not self.foreign


_edit = st.tuples(
    st.sampled_from([
        "move", "move", "move", "double", "surface", "surface", "shrink", "grow",
        "drop_doc", "new_doc", "new_doc", "venue_one", "venue_all", "revert",
        "revert", "repeat", "comment", "foreign",
    ]),
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
)


@given(
    steps=st.lists(st.lists(_edit, min_size=1, max_size=3), min_size=1, max_size=4),
    foreign=st.booleans(),
)
# Every record gone, then a line repeated: there is no line to repeat.
@example(
    steps=[[("drop_doc", 0, 1, 0)] * 2, [("drop_doc", 0, 1, 0)] * 2 + [("repeat", 0, 0, 0)]],
    foreign=False,
)
@settings(max_examples=200, deadline=None)
def test_load_history_matches_parsing_each_file_alone(steps, foreign):
    history = [Series()]
    history[0].foreign = foreign
    for edits in steps:
        state = history[-1].copy()
        for op, a, b, c in edits:
            state.edit(op, a, b, c, history)
        history.append(state)
    with tempfile.TemporaryDirectory() as directory:
        paths = write_series(directory, [s.lines() for s in history])
        expected = []
        for path in paths:
            try:
                expected.append(contents(parse_snapshot(path)))
            except IntegrityError as exc:
                expected.append(("IntegrityError", str(exc)))
                break
        try:
            history = load_history(directory)
        except IntegrityError as exc:
            assert expected[-1] == ("IntegrityError", str(exc))
            return
    loaded = history.snapshots
    assert [contents(s) for s in loaded] == expected
    for before, after in zip(loaded, loaded[1:]):
        for old, new in ((before.profiles, after.profiles), (before.documents, after.documents)):
            for key, record in new.items():
                if old.get(key) == record:
                    assert old[key] is record
    compared = History(loaded)
    for i, (before, after) in enumerate(zip(loaded, loaded[1:])):
        changed = history.changed_profiles(i)
        assert changed == compared.changed_profiles(i)
        # The profiles whose mention identities changed: the narrower set
        # detection needs.  Surface-only rewrites must add no group.
        moved = {
            pid for pid in before.profiles.keys() | after.profiles.keys()
            if {m.key for m in before.mentions_of(pid)} != {m.key for m in after.mentions_of(pid)}
        }
        assert moved <= changed
        assert raw_groups_between(before, after, changed) == raw_groups_between(before, after, moved)
