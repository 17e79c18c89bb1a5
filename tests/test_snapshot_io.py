import gzip
import io

import pytest

from corrhist.errors import FormatError, IntegrityError
from corrhist.model import DocumentRecord, Profile, Role, Signature, Snapshot
from corrhist.snapshot_io import (
    SnapshotFile,
    _parse_canonical,
    _parse_expat,
    discover_snapshot_files,
    load_history,
    parse_snapshot,
    snapshot_filename,
    write_snapshot,
    write_snapshot_to,
)

from conftest import sig, snap


def rich_snapshot(time="2017-08-01"):
    docs = {
        "conf/x/1": DocumentRecord(
            "conf/x/1",
            title="Graphs & Trees <insights>",
            year=2016,
            venue_key="vx",
            authors=("Ann \"A.\" Lee", "Bo Chen"),
            editors=("Else Editor",),
            external_link="https://example.org/x1?a=1&b=2",
        ),
        "conf/x/2": DocumentRecord(
            "conf/x/2", title="Untitled", year=0, authors=("Bo Chen",)
        ),
    }
    profiles = {
        "p-ann": Profile(
            "p-ann", frozenset({sig("conf/x/1", 0, 'Ann "A." Lee')})
        ),
        "p-bo": Profile(
            "p-bo",
            frozenset(
                {sig("conf/x/1", 1, "Bo Chen"), sig("conf/x/2", 0, "Bo Chen")}
            ),
        ),
        "p-else": Profile(
            "p-else", frozenset({sig("conf/x/1", 0, "Else Editor", Role.EDITOR)})
        ),
    }
    s = Snapshot(time, profiles, docs, {"vx": "Example Conf <X&Y>"})
    s.validate()
    return s


def assert_snapshots_equal(a, b):
    assert a.time == b.time
    assert a.profiles == b.profiles
    assert a.documents == b.documents
    assert a.venues == b.venues


def test_round_trip_with_escaping():
    s = rich_snapshot()
    data = write_snapshot(s)
    parsed = parse_snapshot(data)
    assert_snapshots_equal(s, parsed)


def test_serialization_is_deterministic():
    s = rich_snapshot()
    assert write_snapshot(s) == write_snapshot(s)


def test_gzip_round_trip_and_byte_stability(tmp_path):
    s = rich_snapshot()
    p1 = tmp_path / "a" / snapshot_filename(s.time, compress=True)
    p2 = tmp_path / "b" / snapshot_filename(s.time, compress=True)
    p3 = tmp_path / "c" / "renamed.xml.gz"
    for p in (p1, p2, p3):
        p.parent.mkdir()
        write_snapshot_to(s, p)
    assert p1.name.endswith(".xml.gz")
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    assert_snapshots_equal(s, parse_snapshot(p1.read_bytes()))


def test_parse_from_non_seekable_stream():
    s = rich_snapshot()
    data = gzip.compress(write_snapshot(s))

    class OneWay(io.RawIOBase):
        def __init__(self, payload):
            self._buf = io.BytesIO(payload)

        def readable(self):
            return True

        def readinto(self, b):
            return self._buf.readinto(b)

        def seekable(self):
            return False

    assert_snapshots_equal(s, parse_snapshot(OneWay(data)))


def test_malformed_xml_reports_offset():
    with pytest.raises(FormatError) as err:
        parse_snapshot(b"<snapshot date='2017-01-01' version='1'><oops")
    assert "byte" in str(err.value)


def test_wrong_root_element():
    with pytest.raises(FormatError):
        parse_snapshot(b"<library date='2017-01-01'/>")


def test_missing_or_bad_date():
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot version='1'/>")
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot date='01.01.2017' version='1'/>")


def test_date_with_a_newline_reference_is_rejected():
    # Accepted, it was written back with a raw newline in the attribute,
    # which reads as a space.
    with pytest.raises(FormatError, match="not an ISO date"):
        parse_snapshot(b"<snapshot date='2015-01-01&#10;' version='1'/>")


def test_unsupported_version():
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot date='2017-01-01' version='99'/>")


def make_xml(profile_block, docs_block=None):
    docs = docs_block if docs_block is not None else (
        '<document pkey="d1"><title>T</title>'
        "<author>A</author><author>B</author></document>"
    )
    return (
        "<snapshot date='2017-01-01' version='1'>"
        f"{docs}{profile_block}</snapshot>"
    ).encode()


# ``int()`` also takes these; the canonical grammar takes none of them.
LOOSE_INTEGERS = ["0_1", "\u0661", " 1", "1 ", "+1", "1.0", ""]


@pytest.mark.parametrize("pos", LOOSE_INTEGERS)
def test_signature_position_must_be_ascii_digits(pos):
    xml = make_xml(
        f'<profile authorid="p1"><signature pkey="d1" pos="{pos}" surface="A"/></profile>'
    )
    with pytest.raises(FormatError, match="non-integer signature position"):
        parse_snapshot(xml)


def test_negative_signature_position_keeps_its_message():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="-1" surface="A"/></profile>'
    )
    with pytest.raises(FormatError, match="negative signature position -1"):
        parse_snapshot(xml)


@pytest.mark.parametrize("year", LOOSE_INTEGERS)
def test_document_year_must_be_ascii_digits(year):
    xml = make_xml("", f'<document pkey="d1" year="{year}"><title>T</title></document>')
    with pytest.raises(FormatError, match="non-integer year"):
        parse_snapshot(xml)


def test_negative_year_reads_on_both_paths():
    s = Snapshot("2017-01-01", {}, {"d1": DocumentRecord("d1", year=-5)}, {})
    data = write_snapshot(s)
    assert parse_snapshot(data).documents["d1"].year == -5
    assert parse_snapshot(data.replace(b"<document", b" <document")).documents["d1"].year == -5


def test_duplicate_mention_names_both_profiles():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>'
        '<profile authorid="p2"><signature pkey="d1" pos="0" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError) as err:
        parse_snapshot(xml)
    assert "p1" in str(err.value) and "p2" in str(err.value)


def test_unknown_document_reference():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="ghost" pos="0" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_position_out_of_range():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="7" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_blank_surface_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="  "/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_duplicate_document_key_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>',
        docs_block=(
            '<document pkey="d1"><author>A</author></document>'
            '<document pkey="d1"><author>A</author></document>'
        ),
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_duplicate_profile_id_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>'
        '<profile authorid="p1"><signature pkey="d1" pos="1" surface="B"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_dedup_reuses_unchanged_objects(tmp_path):
    # The escapes in rich_snapshot force the general parser, which reads no
    # line delta: the sharing comes from the builder's previous snapshot.
    for time in ("2017-08-01", "2017-09-01"):
        write_snapshot_to(rich_snapshot(time), tmp_path / snapshot_filename(time))
    first, second = load_history(tmp_path).snapshots
    for pid, prof in second.profiles.items():
        assert prof is first.profiles[pid]
    for key, doc in second.documents.items():
        assert doc is first.documents[key]


def test_load_history_discovers_and_orders(tmp_path):
    s1 = snap("2017-01-01", {"p1": [("d1", 0, "A")]})
    s2 = snap("2017-06-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]})
    write_snapshot_to(s2, tmp_path / snapshot_filename(s2.time))
    write_snapshot_to(s1, tmp_path / snapshot_filename(s1.time, compress=True))
    (tmp_path / "notes.txt").write_text("ignore me")
    files = discover_snapshot_files(tmp_path)
    assert [f.date for f in files] == ["2017-01-01", "2017-06-01"]
    h = load_history(tmp_path)
    assert h.times() == ("2017-01-01", "2017-06-01")


def test_names_that_only_end_in_a_snapshot_name_are_not_snapshots(tmp_path):
    s = snap("2015-01-01", {"p1": [("d1", 0, "A")]})
    write_snapshot_to(s, tmp_path / snapshot_filename(s.time))
    strays = ["old-snapshot-2015-01-01.xml", "backup-snapshot-2014-06-01.xml.gz"]
    for name in strays:
        write_snapshot_to(s, tmp_path / name)
    assert [f.path.name for f in discover_snapshot_files(tmp_path)] == [
        "snapshot-2015-01-01.xml"
    ]
    assert load_history(tmp_path).times() == ("2015-01-01",)
    for name in strays + ["snapshot-2015-01-01.xml\n"]:
        with pytest.raises(FormatError, match="snapshot-YYYY-MM-DD"):
            SnapshotFile.from_path(tmp_path / name)


def test_names_with_non_ascii_digits_are_not_snapshots(tmp_path):
    s = snap("2015-01-01", {"p1": [("d1", 0, "A")]})
    write_snapshot_to(s, tmp_path / snapshot_filename(s.time))
    stray = "snapshot-\u0662\u0660\u0661\u0665-01-01.xml"
    write_snapshot_to(s, tmp_path / stray)
    assert [f.path.name for f in discover_snapshot_files(tmp_path)] == [
        "snapshot-2015-01-01.xml"
    ]
    with pytest.raises(FormatError, match="snapshot-YYYY-MM-DD"):
        SnapshotFile.from_path(tmp_path / stray)


def test_load_history_empty_directory(tmp_path):
    with pytest.raises(FormatError):
        load_history(tmp_path)


def test_load_history_rejects_header_mismatch(tmp_path):
    s = snap("2017-01-01", {"p1": [("d1", 0, "A")]})
    path = tmp_path / snapshot_filename("2017-02-01")
    path.write_bytes(write_snapshot(s))
    with pytest.raises(FormatError) as err:
        load_history(tmp_path)
    assert path.name in str(err.value)


def test_load_history_shares_unchanged_profiles(tmp_path):
    s1 = snap("2017-01-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]})
    s2 = snap("2017-02-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B2")]})
    write_snapshot_to(s1, tmp_path / snapshot_filename(s1.time))
    write_snapshot_to(s2, tmp_path / snapshot_filename(s2.time))
    h = load_history(tmp_path)
    first, second = h.snapshots
    assert second.profiles["p1"] is first.profiles["p1"]
    assert second.profiles["p2"] is not first.profiles["p2"]


def plain_snapshot(time="2017-08-01"):
    """Content free of XML metacharacters, so serialization is canonical."""
    docs = {
        "conf/y/1": DocumentRecord(
            "conf/y/1",
            title="Optimal Trees",
            year=2015,
            venue_key="vy",
            authors=("José Müller", "Wei Wang 0050"),
            editors=("Ed One",),
            external_link="https://example.org/y1",
        ),
        "conf/y/2": DocumentRecord(
            "conf/y/2", year=0, authors=("Wei Wang 0050",), external_link=""
        ),
        "conf/y/3": DocumentRecord("conf/y/3", editors=("Unclaimed Editor",)),
    }
    profiles = {
        "p-jose": Profile("p-jose", frozenset({sig("conf/y/1", 0, "José Müller")})),
        "p-wei": Profile(
            "p-wei",
            frozenset(
                {sig("conf/y/1", 1, "Wei Wang 0050"), sig("conf/y/2", 0, "W. Wang")}
            ),
        ),
        "p-ed": Profile(
            "p-ed", frozenset({sig("conf/y/1", 0, "Ed One", Role.EDITOR)})
        ),
    }
    s = Snapshot(time, profiles, docs, {"vy": "Symposium on Y"})
    s.validate()
    return s


def test_fast_path_accepts_own_output():
    s = plain_snapshot()
    fast = _parse_canonical(write_snapshot(s), None)
    assert fast is not None
    assert_snapshots_equal(fast, s)


def test_fast_path_matches_general_parser():
    data = write_snapshot(plain_snapshot())
    assert_snapshots_equal(_parse_canonical(data, None), _parse_expat(data, None, None))


def test_escaped_content_takes_general_parser():
    s = rich_snapshot()
    data = write_snapshot(s)
    assert _parse_canonical(data, None) is None
    assert_snapshots_equal(parse_snapshot(data), s)


def test_equivalent_markup_variants_parse_identically():
    # Semantically identical files in shapes the serializer never produces
    # must decline the fast path yet parse to the same snapshot.
    base = write_snapshot(plain_snapshot())
    expected = parse_snapshot(base)
    head, _, tail = base.partition(b"\n")
    variants = [
        base.replace(b' version="1"', b" version='1'", 1),
        head + b"\n<!-- refreshed -->\n" + tail,
        base.replace(b"<title>Optimal Trees</title>",
                     b"<title>Optimal Tree&#115;</title>", 1),
        base.replace(b"\n<profile", b"\n  <profile"),
    ]
    for data in variants:
        assert _parse_canonical(data, None) is None
        assert_snapshots_equal(parse_snapshot(data), expected)


def canonical_lines(*records):
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<snapshot date="2017-01-01" version="1">',
            *records,
            "</snapshot>",
            "",
        ]
    ).encode()


def test_empty_profile_rejected():
    xml = make_xml('<profile authorid="p1"></profile>')
    with pytest.raises(IntegrityError, match="no signatures"):
        parse_snapshot(xml)


def test_canonical_looking_but_invalid_input_still_diagnosed():
    doc = '<document pkey="d1"><author>A</author></document>'
    cases = [
        ('<profile authorid="p1"></profile>', "no signatures"),
        (
            '<profile authorid="p1">'
            '<signature pkey="d1" pos="0" surface=" "/></profile>',
            "blank surface",
        ),
        (
            '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/>'
            '</profile>'
            '<profile authorid="p2"><signature pkey="d1" pos="0" surface="A"/>'
            '</profile>',
            "two profiles",
        ),
    ]
    for profile_block, message in cases:
        with pytest.raises(IntegrityError, match=message):
            parse_snapshot(canonical_lines(doc, profile_block))


def test_load_history_shares_across_nonadjacent_files(tmp_path):
    split = {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]}
    merged = {"p1": [("d1", 0, "A"), ("d1", 1, "B")]}
    for time, assign in [
        ("2017-01-01", split),
        ("2017-02-01", merged),
        ("2017-03-01", split),
    ]:
        write_snapshot_to(snap(time, assign), tmp_path / snapshot_filename(time))
    s1, s2, s3 = load_history(tmp_path).snapshots
    assert "p2" not in s2.profiles
    # The middle file has no p2 and another p1, so pairwise dedup cannot
    # carry these over; only the records the middle file's delta retired can.
    assert s3.profiles["p2"] is s1.profiles["p2"]
    assert s3.profiles["p1"] is s1.profiles["p1"]
    assert s3.documents["d1"] is s1.documents["d1"]


def test_memoized_reuse_is_rechecked_against_changed_documents(tmp_path):
    # p2's record line reverts to its first-file bytes while d1 has shrunk
    # underneath it, so blindly reusing the retired record would admit a
    # dangling position.
    p1 = Profile("p1", frozenset({sig("d1", 0, "A")}))
    p2 = Profile("p2", frozenset({sig("d1", 1, "B")}))
    wide = {"d1": DocumentRecord("d1", authors=("A", "B"))}
    s1 = Snapshot("2017-01-01", {"p1": p1, "p2": p2}, wide, {})
    s1.validate()
    s2 = Snapshot(
        "2017-02-01",
        {"p1": Profile("p1", frozenset({sig("d1", 0, "A"), sig("d1", 1, "B")}))},
        wide,
        {},
    )
    s2.validate()
    bad = Snapshot(
        "2017-03-01",
        {"p1": p1, "p2": p2},
        {"d1": DocumentRecord("d1", authors=("A",))},
        {},
    )
    for s in (s1, s2, bad):
        write_snapshot_to(s, tmp_path / snapshot_filename(s.time))
    with pytest.raises(IntegrityError, match="out of range"):
        load_history(tmp_path)


def test_load_history_tolerates_noncanonical_files_in_sequence(tmp_path):
    assign = {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]}
    s1 = snap("2017-01-01", assign)
    middle = write_snapshot(snap("2017-02-01", assign))
    head, _, tail = middle.partition(b"\n")
    write_snapshot_to(s1, tmp_path / snapshot_filename("2017-01-01"))
    (tmp_path / snapshot_filename("2017-02-01")).write_bytes(
        head + b"\n<!-- refreshed -->\n" + tail
    )
    write_snapshot_to(snap("2017-03-01", assign), tmp_path / snapshot_filename("2017-03-01"))
    a, b, c = load_history(tmp_path).snapshots
    assert b.profiles == a.profiles
    assert b.profiles["p1"] is a.profiles["p1"]
    assert c.profiles["p1"] is a.profiles["p1"]
    assert c.documents["d1"] is a.documents["d1"]


def test_memoized_load_rejects_duplicated_lines(tmp_path):
    write_snapshot_to(
        snap("2017-01-01", {"p1": [("d1", 0, "A")]}),
        tmp_path / snapshot_filename("2017-01-01"),
    )
    data = write_snapshot(snap("2017-02-01", {"p1": [("d1", 0, "A")]}))
    line = b'<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>\n'
    assert line in data
    (tmp_path / snapshot_filename("2017-02-01")).write_bytes(
        data.replace(line, line + line)
    )
    with pytest.raises(IntegrityError):
        load_history(tmp_path)
