"""Loading a series reads each later file as a delta.

A canonical file after a canonical file is read as a line delta; a file
expat reads after a file expat read reuses each record whose bytes did not
change.  Whatever path a file takes, ``load_history`` must give exactly what
``parse_snapshot`` gives on that file alone: the same snapshot, or the same
IntegrityError message naming the file.  The profiles the loader reports
as changed in each interval must be the ones a comparison finds.
"""

import contextlib
import gc
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrhist import snapshot_io
from corrhist.errors import FormatError, IntegrityError
from corrhist.extract import raw_groups_between
from corrhist.model import History, Profile, Signature
from corrhist.snapshot_io import load_history, parse_snapshot, snapshot_filename

# The record constructor both readers call, unpatched.
_new_tuple = snapshot_io._new_tuple

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
    return (s.time, s.profiles, s.documents)


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
    assert {d.venue_name for d in second.documents.values()} == {"New"}
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
    # With d2 gone, no document binds ``u``, so the third file may bind it
    # to another name.
    first, _second, third = load_history(tmp_path).snapshots
    assert first.documents["d2"].venue_name == "Gone"
    assert third.documents["d3"].venue_name == "Back"


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

    def counting(cls, fields):
        record = _new_tuple(cls, fields)
        if cls is not Signature:
            made.append(record)
        return record

    monkeypatch.setattr(snapshot_io, "_new_tuple", counting)
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


def gc_series(render, fault=None):
    """Two files in ``render``'s layout; the second raises ``fault``, if
    any: an IntegrityError a delta finds, or a markup error."""
    lines = [doc_line("d1", ["A"]), profile_line("p1", ("d1", 0, "A"))]
    second = {
        None: lines,
        IntegrityError: lines + [profile_line("p2", ("d1", 0, "A"))],
        FormatError: lines + ["<profile>"],
    }[fault]
    return [render(DATES[0], lines), render(DATES[1], second)]


def raising(fault):
    return pytest.raises(fault) if fault is not None else contextlib.nullcontext()


@pytest.mark.parametrize("fault", [None, IntegrityError, FormatError])
@pytest.mark.parametrize("render", [canonical_file, foreign_file])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_read_pauses_the_collector_and_leaves_it_as_it_found_it(
    tmp_path, monkeypatch, enabled, render, fault
):
    paths = write_series(tmp_path, gc_series(render, fault))
    while_reading = []
    read = snapshot_io._Reader.read

    def reading(self, *args):
        while_reading.append(gc.isenabled())
        return read(self, *args)

    monkeypatch.setattr(snapshot_io._Reader, "read", reading)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with raising(fault):
            load_history(tmp_path)
        after_load = gc.isenabled()
        with raising(fault):
            parse_snapshot(paths[1])
        after_parse = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (after_load, after_parse) == (enabled, enabled)
    assert len(while_reading) == 3 and not any(while_reading)


@pytest.mark.parametrize("fault", [None, IntegrityError, FormatError])
@pytest.mark.parametrize("render", [canonical_file, foreign_file])
def test_a_load_and_its_rerun_leave_no_reference_cycle(tmp_path, render, fault):
    write_series(tmp_path, gc_series(render, fault))
    gc.collect()
    gc.disable()
    try:
        try:
            load_history(tmp_path)
        except (IntegrityError, FormatError):
            pass
        write_series(tmp_path, gc_series(render))
        load_history(tmp_path)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


@pytest.mark.parametrize("prolog", [
    # Not the first file's prolog.
    "<!-- no declaration -->",
    # The first file's prolog, then more before the root.
    XML_DECL + "\n<!-- more prolog -->",
], ids=["other-prolog", "longer-prolog"])
def test_a_failing_file_that_is_no_delta_is_parsed_once(tmp_path, monkeypatch, prolog):
    # Targets the one decision whether a file is a record delta: a file
    # that is not one, and fails, is not parsed again as if it were.
    assert_delta_error_as_single_parse(
        tmp_path,
        foreign_file(DATES[0], [_D1, _P1]),
        foreign_file(DATES[1], [_D1, profile_line("p1", ("d2", 0, "A"))], prolog),
        "p1: mention references unknown document 'd2'",
    )
    parsers = []
    create = snapshot_io.expat.ParserCreate

    def counting(*args, **kwargs):
        parsers.append(create(*args, **kwargs))
        return parsers[-1]

    monkeypatch.setattr(snapshot_io.expat, "ParserCreate", counting)
    with pytest.raises(IntegrityError):
        load_history(tmp_path)
    assert len(parsers) == 2  # one per file


# ---------------------------------------------------------------------------
# How the reader read each file, and layouts the record delta must survive


def test_reader_notes_how_it_read_each_file(tmp_path):
    d1 = doc_line("d1", ["A", "B"])
    p1, p2 = profile_line("p1", ("d1", 0, "A")), profile_line("p2", ("d1", 1, "B"))
    paths = write_series(tmp_path, [
        [d1, p1, p2],
        [d1, profile_line("p1", ("d1", 0, "A"), ("d1", 1, "B"))],
        foreign_file(DATES[2], [d1, p1, p2]),
        foreign_file(DATES[3], [d1, p1]),
        foreign_file(DATES[4], [d1, p1, p2], XML_DECL + "\n<!-- another prolog -->"),
    ])
    reader = snapshot_io._Reader()
    for path in paths:
        reader.read(path, str(path))
    assert reader.paths == [
        ("full canonical pass", None),
        ("line delta", None),
        ("full expat pass", "line 3 not a canonical record"),
        ("expat record delta", "line 3 not a canonical record"),
        ("full expat pass", "header not canonical"),
    ]


_D1 = doc_line("d1", ["A"])
_CANON = canonical_file(DATES[0], [_D1, _P1])


@pytest.mark.parametrize("data, reason", [
    (_CANON.replace(b'version="1.0"', b"version='1.0'"), "header not canonical"),
    (_CANON.replace(b'version="1">', b'version="1" >'), "header not canonical"),
    (_CANON.replace(b"2017-01-01", b"2017-13-01"), "header not canonical"),
    (_CANON[:-1], "end not canonical"),
    (_CANON.replace(b'surface="A"', b'surface="\xff"'), "line 4 not UTF-8"),
    (_CANON.replace(b"<profile", b" <profile"), "line 4 not a canonical record"),
])
def test_the_canonical_path_says_why_it_declines(data, reason):
    assert snapshot_io._Reader().canonical(data, None) == reason


def test_a_declined_line_delta_names_its_first_bad_line_in_file_order():
    reader = snapshot_io._Reader()
    reader.read(canonical_file(DATES[0], [_D1, _P1]), None)
    # The comment sorts before the other bad line, which comes first.
    bad = _P1.replace("<profile ", "<profile  ")
    reader.read(canonical_file(DATES[1], [_D1, bad, "<!-- edited -->"]), None)
    assert reader.paths[1] == ("full expat pass", "line 4 not a canonical record")


def outcome(read):
    try:
        return contents(read())
    except (FormatError, IntegrityError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "byte_offset", None)


def read_each_way(tmp_path, monkeypatch, files):
    """Read ``files`` each alone and as one series and assert the outcomes
    agree: equal snapshots, or the same error at the same byte offset.

    Returns, for the series, the path each file took, the keys of the
    records built for each file, and for each file after an expat-read one
    the runs ``_runs`` proposed in it, as lists of keys.  Each record delta
    must leave the spans a full pass over its file notes.
    """
    paths = write_series(tmp_path, files)
    alone = []
    for path in paths:
        alone.append(outcome(lambda: parse_snapshot(path)))
        if alone[-1][0] in ("FormatError", "IntegrityError"):
            break
    built: list[list[str]] = []

    def counting(cls, fields):
        record = _new_tuple(cls, fields)
        if cls is not Signature:
            built[-1].append(record[0])  # the document key or profile id
        return record

    reader, series, runs, deltas = snapshot_io._Reader(), [], [], []
    with monkeypatch.context() as patch:
        patch.setattr(snapshot_io, "_new_tuple", counting)
        for path in paths[:len(alone)]:
            spans = reader.build.spans if reader.build is not None else None
            if spans is not None:
                runs.append([
                    [key for _is_profile, key in spans.keys[i:k]]
                    for _start, _end, i, k in snapshot_io._runs(path.read_bytes(), spans)
                ])
            built.append([])
            read = len(reader.paths)
            series.append(outcome(lambda: reader.read(path, str(path))))
            if [took for took, _reason in reader.paths[read:]] == ["expat record delta"]:
                deltas.append(reader.build.spans)
    assert series == alone
    for spans in deltas:
        assert_spans_of_a_full_pass(spans)
    return [path for path, _reason in reader.paths], built, runs


def assert_spans_of_a_full_pass(spans):
    """``spans``, which a record delta left, are those a full pass over its
    file notes: the skipped bytes are counted back into every offset."""
    full = snapshot_io._expat_builder(spans.data, None, None)[0].spans
    assert (spans.order, spans.keys) == (full.order, full.keys)


def body_file(date, body):
    """A file whose records lie between the root tags as in ``body``, after
    an indent, so the canonical path builds no record of it."""
    return f'{XML_DECL}\n<snapshot date="{date}" version="1">\n  {body}\n</snapshot>\n'.encode()


_DOCS = [doc_line(f"d{i}", [f"N{i}"]) for i in range(4)]
_PROFS = [profile_line(f"p{i}", (f"d{i}", 0, f"N{i}")) for i in range(4)]
_P1_EDITED = profile_line("p1", ("d1", 0, "N. 1"))
_INDENTED = body_file(DATES[0], "\n  ".join(_DOCS + _PROFS))
_DELTA = ["full expat pass", "expat record delta"]
_EXPAT = set(_DELTA)


def first_file(separator):
    """The first file of a layout test: ``_INDENTED``'s records, separated
    by ``separator``."""
    return body_file(DATES[0], separator.join(_DOCS + _PROFS))


def each(*keys):
    """Runs of one record each: what a later file whose gaps differ from
    the first file's gets."""
    return [[key] for key in keys]


# Each layout test reads its later file after ``_INDENTED`` and after a
# first file with the later file's gaps.  Only bytes equal to the previous
# file's, gaps included, make one run: after ``_INDENTED`` each unchanged
# record is a run of its own, after the other file runs hold many records.
@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p2", "p3")),
    (first_file(""), [["d0", "d1", "d2", "d3", "p0"], ["p2", "p3"]]),
], ids=["indented", "same-gaps"])
def test_records_with_no_whitespace_between_them(tmp_path, monkeypatch, first, expected):
    # Targets the search for the next record after a changed one: it finds
    # ``<profile`` wherever it lies, not only after whitespace.
    files = [first, body_file(DATES[1], "".join(_DOCS + [_PROFS[0], _P1_EDITED] + _PROFS[2:]))]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert built[1] == ["p1"]
    assert runs == [expected]


@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p2", "p3")),
    (first_file("\r\n"), [["d0", "d1", "d2", "d3", "p0"], ["p2", "p3"]]),
], ids=["indented", "same-gaps"])
def test_crlf_between_records(tmp_path, monkeypatch, first, expected):
    # Targets the whitespace a run may span: carriage return is XML
    # whitespace.
    files = [first, body_file(DATES[1], "\r\n".join(_DOCS + [_PROFS[0], _P1_EDITED] + _PROFS[2:]))]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert built[1] == ["p1"]
    assert runs == [expected]


@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p1", "p2", "p3")),
    (first_file("\n"), [["d0", "d1", "d2", "d3", "p0", "p1"], ["p2", "p3"]]),
], ids=["indented", "same-gaps"])
def test_a_comment_between_two_unchanged_records(tmp_path, monkeypatch, first, expected):
    # Targets the walk's resumption: a run ends at the comment, which expat
    # reads with its handlers on, and the next record starts a new run.
    body = "\n".join(_DOCS + _PROFS[:2] + ["<!-- edited -->"] + _PROFS[2:])
    paths, built, runs = read_each_way(tmp_path, monkeypatch, [first, body_file(DATES[1], body)])
    assert paths == _DELTA
    assert built[1] == []
    assert runs == [expected]


@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p1", "p2", "p3")),
    (first_file("\n"), [["d0", "d1", "d2", "d3", "p0", "p1", "p2"], ["p3"]]),
], ids=["indented", "same-gaps"])
def test_an_absent_record_inside_a_comment_is_not_reused(tmp_path, monkeypatch, first, expected):
    # Targets the start-tag check: the walk proposes p3's exact bytes inside
    # the comment, expat never reports them as a start tag, so p3 is gone.
    body = "\n".join(_DOCS + _PROFS[:3] + [f"<!-- {_PROFS[3]} -->"])
    paths, built, runs = read_each_way(tmp_path, monkeypatch, [first, body_file(DATES[1], body)])
    assert paths == _DELTA
    assert runs == [expected]
    assert built[1] == []


@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p2", "p3")),
    (first_file("\n"), [["d0", "d1", "d2", "d3", "p0"], ["p2", "p3"]]),
], ids=["indented", "same-gaps"])
def test_a_reordered_record_between_two_runs_is_no_change(tmp_path, monkeypatch, first, expected):
    # Targets the change set: a record rebuilt from other bytes that is
    # equal to the previous one is that object, and no change.
    reordered = '<profile authorid="p1"><signature surface="N1" pos="0" pkey="d1"/></profile>'
    body = "\n".join(_DOCS + [_PROFS[0], reordered] + _PROFS[2:])
    paths, built, runs = read_each_way(tmp_path, monkeypatch, [first, body_file(DATES[1], body)])
    assert paths == _DELTA
    assert built[1] == ["p1"]
    assert runs == [expected]
    history = load_history(tmp_path)
    first, second = history.snapshots
    assert second.profiles["p1"] is first.profiles["p1"]
    assert history.profile_changes == (frozenset(),)


def test_an_unchanged_record_listed_twice(tmp_path, monkeypatch):
    # Targets the record count: the repeat is a reused record both times.
    body = "\n".join(_DOCS + _PROFS[:2] + _PROFS[1:])
    paths, _built, _runs = read_each_way(tmp_path, monkeypatch, [_INDENTED, body_file(DATES[1], body)])
    assert paths == _DELTA[:1]
    with pytest.raises(IntegrityError, match="duplicate profile id 'p1'"):
        load_history(tmp_path)


@pytest.mark.parametrize("child, twice", [
    ("title", "<title>Alpha</title><title>Beta</title>"),
    ("venue", '<venue key="v1">One</venue><venue key="v2">Two</venue>'),
])
def test_a_second_title_or_venue_in_a_changed_record(tmp_path, monkeypatch, child, twice):
    changed = f'<document pkey="d1">{twice}<author>N1</author></document>'
    second = body_file(DATES[1], "\n  ".join([_DOCS[0], changed, *_DOCS[2:], *_PROFS]))
    paths, _built, _runs = read_each_way(tmp_path, monkeypatch, [_INDENTED, second])
    assert paths == _DELTA[:1]
    # The record delta itself refuses the record, at the second element.
    reader = snapshot_io._Reader()
    first = reader.read(_INDENTED, None)
    with pytest.raises(FormatError, match=f"second <{child}> in one <document>") as err:
        snapshot_io._expat_builder(second, first, None, reader.build)
    tag = f"<{child}".encode()
    assert err.value.byte_offset == second.index(tag, second.index(tag) + 1)


@pytest.mark.parametrize("conflict", [False, True])
def test_a_markup_error_in_a_changed_record_after_a_run(tmp_path, monkeypatch, conflict):
    # With ``conflict``, targets the rerun of a delta that raised a
    # FormatError: p1 claims p0's mention first, which a file read alone
    # reports before it reaches the markup error.
    p1 = profile_line("p1", ("d1", 0, "N1"), ("d0", 0, "N0")) if conflict else _PROFS[1]
    broken = '<profile authorid="p3"><signature pkey="d3" pos="0" surface="N3"/></document>'
    body = "\n".join(_DOCS + [_PROFS[0], p1, _PROFS[2], broken])
    paths, _built, _runs = read_each_way(tmp_path, monkeypatch, [_INDENTED, body_file(DATES[1], body)])
    assert paths == _DELTA[:1]
    with pytest.raises(IntegrityError if conflict else FormatError):
        load_history(tmp_path)


@pytest.mark.parametrize("first, expected", [
    (_INDENTED, each("d0", "d1", "d2", "d3", "p0", "p1", "p2", "p3")),
    (first_file("\n"), [["d0", "d1", "d2", "d3", "p0"], ["p1", "p2", "p3"]]),
], ids=["indented", "same-gaps"])
def test_stray_text_right_after_an_unchanged_record(tmp_path, monkeypatch, first, expected):
    # Targets the separator rule: only gaps equal to the previous file's lie
    # inside a run, so the text reaches expat with its handlers on.
    body = "\n".join(_DOCS + [_PROFS[0] + "oops"] + _PROFS[1:])
    paths, _built, runs = read_each_way(tmp_path, monkeypatch, [first, body_file(DATES[1], body)])
    assert paths == _DELTA[:1]
    assert runs == [expected]
    with pytest.raises(FormatError, match="stray text 'oops'"):
        load_history(tmp_path)


@pytest.mark.parametrize("separator, expected", [
    ("\n", [["d0", "d1", "d2", "p0"], ["a>b"]]),
    ("\n  ", each("d0", "d1", "d2", "p0", "a>b")),
], ids=["same-gaps", "indented"])
def test_a_key_that_contains_a_closing_bracket(tmp_path, monkeypatch, separator, expected):
    # Targets the lookup by key: after p1, which is gone, the walk finds
    # the record under the key ``a>b`` read from the start tag's bytes.
    odd = profile_line("a>b", ("d2", 0, "N2"))
    files = [
        body_file(DATES[0], separator.join(_DOCS[:3] + [_PROFS[0], _PROFS[1], odd])),
        body_file(DATES[1], "\n".join(_DOCS[:3] + [_PROFS[0], odd])),
    ]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert built[1] == []
    assert runs == [expected]


def test_a_comment_that_spans_unchanged_records(tmp_path, monkeypatch):
    # Targets the start-tag proof: the comment opens before p1 and closes
    # after p2, so the run proposed from p1 lies inside it, expat reports
    # no start tag there, and p1 and p2 are gone.
    body = "\n  ".join(_DOCS + [_PROFS[0], "<!-- " + _PROFS[1], _PROFS[2] + " -->", _PROFS[3]])
    paths, built, runs = read_each_way(tmp_path, monkeypatch, [_INDENTED, body_file(DATES[1], body)])
    assert paths == _DELTA
    assert runs == [[["d0", "d1", "d2", "d3", "p0"], ["p1", "p2"], ["p3"]]]
    assert built[1] == []
    second = load_history(tmp_path).snapshots[1]
    assert second.profiles.keys() == {"p0", "p3"}


def test_a_stretch_that_starts_inside_a_comment(tmp_path, monkeypatch):
    # Targets the start-tag proof where the equal bytes close the comment:
    # ``-->`` in dt's title ends the comment opened in d9's title, so the
    # stretch equal to the whole first file is no run, dt is gone, and
    # every other record is read with the handlers on.
    dt = '<document pkey="dt"><title>--></title></document>'
    body = "\n  ".join([dt] + _DOCS + _PROFS)
    files = [
        body_file(DATES[0], body),
        body_file(DATES[1], '<document pkey="d9"><title>x<!-- ' + body),
    ]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert runs == [[["dt", "d0", "d1", "d2", "d3", "p0", "p1", "p2", "p3"]]]
    assert built[1] == ["d9", "d0", "d1", "d2", "d3", "p0", "p1", "p2", "p3"]
    second = load_history(tmp_path).snapshots[1]
    assert second.documents["d9"].title == "x"
    assert "dt" not in second.documents


def test_a_comment_and_blank_cdata_between_records_ride_in_a_run(tmp_path, monkeypatch):
    # Targets the equal-gap rule: gaps equal to the previous file's, which
    # its read checked, are carried inside one run without a second check.
    gap = "\n  <!-- between --><![CDATA[ \n ]]>\n  "
    files = [
        body_file(DATES[0], gap.join(_DOCS + _PROFS)),
        body_file(DATES[1], gap.join(_DOCS + _PROFS[:3])),
    ]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert runs == [[["d0", "d1", "d2", "d3", "p0", "p1", "p2"]]]
    assert built[1] == []


def test_a_document_and_a_profile_with_one_key(tmp_path, monkeypatch):
    # Targets the index of the previous file's records: document x is
    # proposed at its own start tag, not looked up as profile x.
    lines = [doc_line("x", ["A"]), doc_line("y", ["B"]), profile_line("x", ("x", 0, "A")), _P1]
    files = [body_file(DATES[0], "\n  ".join(lines + [_D1]))]
    lines[1] = doc_line("y", ["C"])
    files.append(body_file(DATES[1], "\n  ".join(lines + [_D1])))
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert runs == [[["x"], ["x", "p1", "d1"]]]
    assert built[1] == ["y"]


_D9 = doc_line("d9", ["N9"])


@pytest.mark.parametrize("first, second, expected, built_later", [
    (
        _DOCS + _PROFS,
        _DOCS[:3] + [_D9, _PROFS[0], _P1_EDITED, _PROFS[2]],
        [["d0", "d1", "d2"], ["p0"], ["p2"]],
        ["d9", "p1"],
    ),
    (
        _PROFS[::-1] + _DOCS[::-1],
        [_PROFS[2], _P1_EDITED, _PROFS[0], _D9] + _DOCS[2::-1],
        [["p2"], ["p0"], ["d2", "d1", "d0"]],
        ["p1", "d9"],
    ),
], ids=["writer-order", "reversed"])
def test_runs_are_found_by_key_in_any_file_order(
    tmp_path, monkeypatch, first, second, expected, built_later
):
    # Targets the lookup by key: the index of the previous file's keys finds
    # every run, whether that file is in writer order or not; a record gone,
    # one changed and one added sit between the runs.
    files = [body_file(DATES[0], "\n".join(first)), body_file(DATES[1], "\n".join(second))]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA
    assert runs == [expected]
    assert built[1] == built_later


_REVERSED = _PROFS[::-1] + _DOCS[::-1]
_SWAPPED = [_PROFS[2], _PROFS[3], *_DOCS, _PROFS[0], _PROFS[1]]


@pytest.mark.parametrize("first, later, expected", [
    (_DOCS + _PROFS, _SWAPPED, [["p2", "p3"], ["d0", "d1", "d2", "d3", "p0", "p1"]]),
    (_REVERSED, _REVERSED, [["p3", "p2", "p1", "p0", "d3", "d2", "d1", "d0"]]),
], ids=["runs-swapped", "reversed"])
def test_the_order_of_a_record_deltas_keys(tmp_path, monkeypatch, first, later, expected):
    # Targets the keys a record delta notes, though it parses no record:
    # whether two runs of a file in writer order come back swapped, or every
    # run of a file in another order is reused whole, the delta's keys are
    # in its own file order, and the third file's runs are found by them.
    files = [body_file(date, "\n".join(lines))
             for date, lines in zip(DATES, [first, later, later])]
    paths, built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == ["full expat pass", "expat record delta", "expat record delta"]
    assert built[1:] == [[], []]
    assert runs == [expected, [sum(expected, [])]]


class CountingParser:
    """An expat parser that notes every chunk handed to ``Parse``."""

    def __init__(self, parser, fed):
        object.__setattr__(self, "parser", parser)
        object.__setattr__(self, "fed", fed)

    def __getattr__(self, name):
        return getattr(self.parser, name)

    def __setattr__(self, name, value):
        setattr(self.parser, name, value)

    def Parse(self, data, final=False):
        self.fed.append(bytes(data))
        return self.parser.Parse(data, final)


def test_a_proven_run_reaches_expat_only_to_the_end_of_its_first_record(monkeypatch):
    # Targets the skip: once expat reports a run's first start tag, the
    # rest of the run is never parsed.
    lines = [doc_line(f"d{i:02}", [f"N{i}"]) for i in range(30)]
    lines += [profile_line(f"p{i:02}", (f"d{i:02}", 0, f"N{i}")) for i in range(30)]
    first = body_file(DATES[0], "\n  ".join(lines))
    changed = 40
    lines[changed] = profile_line("p10", ("d10", 0, "N. 10"))
    second = body_file(DATES[1], "\n  ".join(lines))
    expected = contents(parse_snapshot(second))
    reader = snapshot_io._Reader()
    reader.read(first, None)
    fed = []
    create = snapshot_io.expat.ParserCreate
    monkeypatch.setattr(
        snapshot_io.expat, "ParserCreate", lambda *args: CountingParser(create(*args), fed)
    )
    assert contents(reader.read(second, None)) == expected
    assert reader.paths[-1][0] == "expat record delta"
    # The prolog, the root and the gap before the first record; the first
    # record of each run; the changed record with a gap on either side;
    # the end.
    head = second.index(lines[0].encode())
    allowed = (
        head + len(lines[0]) + len(lines[changed + 1])
        + len("\n  " + lines[changed] + "\n  ") + len("\n</snapshot>\n")
    )
    assert sum(map(len, fed)) <= allowed < len(second) // 10


def test_a_run_is_read_whole_where_entities_expand(tmp_path, monkeypatch):
    # Targets the limit expat puts on entity expansion, which weighs the
    # bytes entities expand to against the bytes it reads.  r1 expands to
    # 10 MB: the first file reads enough bytes before it, the second does
    # not.  Were r1 skipped in the run [r0, r1], the delta would accept a
    # file expat refuses.
    prolog = doctype(f'<!ENTITY a "{"x" * 1000}"><!ENTITY b "{"&a;" * 100}">')
    r0, r1 = doc_line("r0", ["A"]), f'<document pkey="r1"><title>{"&b;" * 100}</title></document>'
    plain = f'<document pkey="b"><title>{"y" * 120_000}</title></document>'
    files = [
        foreign_file(DATES[0], [plain, r0, r1], prolog),
        foreign_file(DATES[1], ['<document pkey="b"/>', r0, r1], prolog),
    ]
    paths, _built, runs = read_each_way(tmp_path, monkeypatch, files)
    assert paths == _DELTA[:1]
    assert runs == [[["r0", "r1"]]]
    with pytest.raises(FormatError, match="amplification"):
        load_history(tmp_path)


def equal_bytes_reference(old, new, p, q, limit):
    n = 0
    while n < limit and old[p + n] == new[q + n]:
        n += 1
    return n


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65])
def test_equal_bytes_counts_exactly(length):
    # Targets the comparison both deltas share: one byte too many would
    # pair two unequal lines, or take a changed record into a run with
    # expat's callbacks off.
    stretch = bytes(i * 7 % 256 for i in range(length))
    old = b"<>" + stretch + b"old"
    for unequal in {None, 0, 1, length // 2, length - 1}:
        new = bytearray(b"abc" + stretch + b"new")
        if unequal is not None:
            new[3 + unequal] ^= 0xFF
        for limit in {0, 1, length // 2, length - 1, length}:
            expected = equal_bytes_reference(old, new, 2, 3, limit)
            assert snapshot_io._equal_bytes(memoryview(old), bytes(new), 2, 3, limit) == expected


# ---------------------------------------------------------------------------
# Layouts the line delta must survive: canonical files after canonical files

_LINES = _DOCS + _PROFS
_LINE_DELTA = ["full canonical pass", "line delta"]


def test_the_first_and_the_last_record_changed(tmp_path, monkeypatch):
    # Targets both ends of the walk: a difference in the very first byte of
    # the records, and one in the last line before ``</snapshot>``.
    changed = [
        doc_line("d0", ["N0", "M0"]), *_LINES[1:-1], profile_line("p3", ("d3", 0, "N. 3")),
    ]
    paths, built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, changed])
    assert paths == _LINE_DELTA
    assert built[1] == ["d0", "p3"]


@pytest.mark.parametrize("moved, parsed", [
    # p2 before p0: the walk steps past p0 and p1 as gone, pairs p2, then
    # meets p0 and p1 again as added lines.
    (_DOCS + [_PROFS[2], _PROFS[0], _PROFS[1], _PROFS[3]], ["p0", "p1"]),
    # A document among the profiles.
    (_DOCS[:1] + _DOCS[2:] + _PROFS[:2] + _DOCS[1:2] + _PROFS[2:], ["d1"]),
])
def test_a_record_moved_out_of_writer_order(tmp_path, monkeypatch, moved, parsed):
    # Targets the claim that correctness does not rest on writer order: a
    # line the walk cannot pair is parsed, and an equal record is shared.
    paths, built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, moved])
    assert paths == _LINE_DELTA
    assert built[1] == parsed
    history = load_history(tmp_path)
    first, second = history.snapshots
    assert second.profiles["p0"] is first.profiles["p0"]
    assert second.documents["d1"] is first.documents["d1"]
    assert history.profile_changes == (frozenset(),)


def test_a_repeated_line(tmp_path, monkeypatch):
    # Targets pairing each line once: the second copy of p1 is unpaired,
    # parsed and refused, and the full pass reports it as a single parse.
    repeated = _DOCS + _PROFS[:2] + _PROFS[1:]
    paths, _built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, repeated])
    assert paths == _LINE_DELTA[:1]
    with pytest.raises(IntegrityError, match="duplicate profile id 'p1'"):
        load_history(tmp_path)


def test_the_same_key_with_other_bytes(tmp_path, monkeypatch):
    # Targets the step at two unequal lines under one key: the old one is
    # gone, the new one parsed, and nothing else.
    changed = _DOCS[:2] + [doc_line("d2", ["N2", "X"])] + _DOCS[3:] + _PROFS
    paths, built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, changed])
    assert paths == _LINE_DELTA
    assert built[1] == ["d2"]
    first, second = load_history(tmp_path).snapshots
    assert second.documents["d2"].authors == ("N2", "X")
    assert second.documents["d3"] is first.documents["d3"]


def test_a_file_that_only_appends(tmp_path, monkeypatch):
    # Targets the walk past the previous file's last line.
    paths, built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES[:-1], _LINES])
    assert paths == _LINE_DELTA
    assert built[1] == ["p3"]


def test_a_file_with_no_records_in_between(tmp_path, monkeypatch):
    # Targets empty record sections on either side of the walk; the records
    # that come back are rebuilt equal to their earlier copies.
    paths, built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, [], _LINES])
    assert paths == ["full canonical pass", "line delta", "line delta"]
    assert built[1] == []
    assert sorted(built[2]) == sorted(built[0])
    first, empty, third = load_history(tmp_path).snapshots
    assert not empty.documents and not empty.profiles
    assert third.profiles["p0"] == first.profiles["p0"]
    assert third.documents["d0"] == first.documents["d0"]


@pytest.mark.parametrize("before, after, reason", [
    (True, False, "line 3 not a canonical record"),
    (False, True, "line 11 not a canonical record"),
    (True, True, "line 3 not a canonical record"),
])
def test_a_non_canonical_line_at_either_end_of_the_records(
    tmp_path, monkeypatch, before, after, reason
):
    # Targets the start check at both ends of the walk: a comment directly
    # after the root line or directly before ``</snapshot>``.  The reason
    # names the first such line, as the full pass over the file alone does.
    lines = ["<!-- edited -->"] * before + _LINES + ["<!-- edited -->"] * after
    paths, _built, _runs = read_each_way(tmp_path, monkeypatch, [_LINES, lines])
    assert paths == ["full canonical pass", "full expat pass"]
    reader = snapshot_io._Reader()
    for path in sorted(tmp_path.glob("snapshot-*")):
        reader.read(path, str(path))
    assert reader.paths[1] == ("full expat pass", reason)
    assert snapshot_io._Reader().canonical(canonical_file(DATES[1], lines), None) == reason


@pytest.mark.parametrize("after_a_canonical_file", [False, True])
def test_a_later_line_that_starts_unlike_a_record_declines_before_any_record_is_built(
    monkeypatch, after_a_canonical_file
):
    # Targets the start check: the lines before the indented one are in
    # canonical form, and neither the full pass nor the walk builds them.
    reader = snapshot_io._Reader()
    if after_a_canonical_file:
        reader.read(canonical_file(DATES[0], _DOCS[:1]), None)
    made = []

    def counting(cls, fields):
        record = _new_tuple(cls, fields)
        if cls is not Signature:
            made.append(record)
        return record

    monkeypatch.setattr(snapshot_io, "_new_tuple", counting)
    data = canonical_file(DATES[1], _LINES[:-1] + ["  " + _LINES[-1]])
    assert reader.canonical(data, None, reader.build) == "line 10 not a canonical record"
    assert made == []


# ---------------------------------------------------------------------------
# Differential test over random series with random, partly invalid, edits


class Series:
    """A small bibliography edited step by step, rendered as canonical lines
    without any check, so the edits can break every integrity rule.  A
    foreign series lays its records out as a dump written by another tool
    might, indented and joined by ``separator``, so its files go to expat
    until an edit toggles it back."""

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
        # A line repeated, a line moved out of writer order, or a comment
        # that sends the file to expat, in this file only.
        self.repeat: int | None = None
        self.unsort: tuple[int, int] | None = None
        self.comment: int | None = None
        self.foreign = False
        self.separator = "\n  "

    def copy(self):
        other = Series()
        other.docs = {k: [v[0], list(v[1]), list(v[2])] for k, v in self.docs.items()}
        other.profiles = {k: set(v) for k, v in self.profiles.items()}
        other.foreign = self.foreign
        other.separator = self.separator
        return other

    def lines(self):
        out = [doc_line(k, v[1], v[2], v[0]) for k, v in sorted(self.docs.items())]
        for pid, mentions in sorted(self.profiles.items()):
            out.append(profile_line(pid, *[
                (d, p, s, "editor") if e else (d, p, s)
                for d, p, s, e in sorted(mentions, key=lambda m: (m[0], m[1], m[3]))
            ]))
        if self.unsort is not None and out:
            line = out.pop(self.unsort[0] % len(out))
            out.insert(self.unsort[1] % (len(out) + 1), line)
        if self.repeat is not None and out:
            out.insert(self.repeat % (len(out) + 1), out[self.repeat % len(out)])
        if self.comment is not None:
            out.insert(self.comment % (len(out) + 1), "<!-- edited -->")
        if self.foreign:
            out = ["  " + self.separator.join(out)]
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
        elif op == "unsort":
            self.unsort = (a, b)
        elif op == "comment":
            self.comment = a
        elif op == "foreign":
            self.foreign = not self.foreign
        elif op == "layout":
            self.separator = SEPARATORS[a % len(SEPARATORS)]


# What a foreign series puts between two records.
SEPARATORS = ["", "\n", "\n  ", "\r\n\t", "<!-- between -->"]


_edit = st.tuples(
    st.sampled_from([
        "move", "move", "move", "double", "surface", "surface", "shrink", "grow",
        "drop_doc", "new_doc", "new_doc", "venue_one", "venue_all", "revert",
        "revert", "repeat", "unsort", "comment", "foreign", "layout",
    ]),
    st.integers(0, 20), st.integers(0, 20), st.integers(0, 20),
)


@given(
    steps=st.lists(st.lists(_edit, min_size=1, max_size=3), min_size=1, max_size=4),
    foreign=st.booleans(),
    separator=st.sampled_from(SEPARATORS),
)
# Every record gone, then a line repeated: there is no line to repeat.
@example(
    steps=[[("drop_doc", 0, 1, 0)] * 2, [("drop_doc", 0, 1, 0)] * 2 + [("repeat", 0, 0, 0)]],
    foreign=False,
    separator="\n  ",
)
@settings(max_examples=200, deadline=None)
def test_load_history_matches_parsing_each_file_alone(steps, foreign, separator):
    history = [Series()]
    history[0].foreign = foreign
    history[0].separator = separator
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
        # Every file expat reads after a file expat read, with the same
        # prolog, is a record delta, unless it raised.
        reader = snapshot_io._Reader()
        try:
            for path in paths:
                reader.read(path, str(path))
                if reader.paths[-1][0] == "expat record delta":
                    assert_spans_of_a_full_pass(reader.build.spans)
        except IntegrityError:
            pass
        took = [path for path, _reason in reader.paths]
        for before, after in zip(took, took[1:]):
            if before in _EXPAT and after in _EXPAT:
                assert after == "expat record delta"
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
