"""Arbitrary Unicode values through every XML writer and both snapshot parsers.

Every writer must either refuse a value XML 1.0 cannot carry or write it so
that it reads back unchanged, and the canonical fast path must either
decline a file or produce exactly what expat produces from it.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrhist.casegraph import (
    CaseGraph,
    Edge,
    EdgeType,
    Node,
    NodeLabel,
    parse_case_graph,
    serialize_case_graph,
)
from corrhist.embedded import EmbeddedAnnotation, parse_annotation, serialize_annotation
from corrhist._xml import parse_int
from corrhist.errors import FormatError, IntegrityError
from corrhist.extract import CorrectionKind
from corrhist.model import DocumentRecord, Profile, Role, Signature, Snapshot
from corrhist.snapshot_io import (
    _expat_builder,
    _Reader,
    parse_snapshot,
    write_snapshot,
    write_snapshot_to,
)

# Any character, with the ones XML treats specially drawn often.
_value = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from('\t\n\r\x01\x0b\x1f\x7f\x85\u2028\ufffe\uffff "&<>'),
    ),
    max_size=6,
)
_name = _value.filter(lambda v: v.strip())
# Without the extra draws about a fifth of the files stay on the fast path.
_raw = st.text(st.characters(), max_size=6)


def xml_char(c):
    o = ord(c)
    return o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or o >= 0x10000


def writable(*values):
    return all(xml_char(c) for v in values for c in v)


def contents(s):
    return (s.time, s.profiles, s.documents)


def outcome(parse):
    """What ``parse`` gives: None if it declined the file (a str)."""
    try:
        parsed = parse()
    except IntegrityError as exc:
        return ("IntegrityError", str(exc))
    except FormatError:
        return "FormatError"
    return None if isinstance(parsed, str) else contents(parsed)


@given(key=_raw, title=_raw, venue_key=_raw, venue_name=_raw, surface=_raw, pid=_raw)
@example(key="d", title="T", venue_key="v", venue_name="V", surface="Ann\tLee", pid="p")
@example(key="d", title="T", venue_key="v", venue_name="V", surface="Ann\rLee", pid="p")
@example(key="d", title="T\x01", venue_key="v", venue_name="V", surface="A", pid="p")
@example(key="d", title="T", venue_key="v", venue_name="V", surface=" ", pid="p")
@settings(max_examples=200, deadline=None)
def test_fast_path_declines_or_matches_expat(key, title, venue_key, venue_name, surface, pid):
    # Raw values in canonical-looking lines: nothing is escaped, so the fast
    # path sees every character exactly as it stands in the file.
    data = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<snapshot date="2017-01-01" version="1">',
        f'<document pkey="{key}"><title>{title}</title>'
        f'<venue key="{venue_key}">{venue_name}</venue><author>{surface}</author></document>',
        f'<profile authorid="{pid}"><signature pkey="{key}" pos="0" surface="{surface}"/></profile>',
        "</snapshot>",
        "",
    ]).encode("utf-8", "surrogatepass")
    fast = outcome(lambda: _Reader().canonical(data, None))
    if fast is not None:
        assert fast == outcome(lambda: _expat_builder(data, None, None)[1])


# Empty keys and ids are refused (``test_validate_matches_reading_the_written_file``).
@given(key=_value.filter(bool), title=_value, venue_key=_value.filter(bool), venue_name=_value,
       surface=_name, pid=_value.filter(bool), url=_value)
@example(key="d", title="T", venue_key="v", venue_name="V", surface="Ann\nLee", pid="p", url="u")
@example(key="d", title="T\r\n", venue_key="v", venue_name="V", surface="A", pid="p\t", url="u")
@settings(max_examples=200, deadline=None)
def test_snapshot_round_trip(key, title, venue_key, venue_name, surface, pid, url):
    s = Snapshot(
        "2017-01-01",
        {pid: Profile(pid, frozenset({Signature(key, 0, surface)}))},
        {key: DocumentRecord(key, title=title, year=1999, venue_key=venue_key,
                             venue_name=venue_name, authors=(surface,), external_link=url)},
    )
    if not writable(key, title, venue_key, venue_name, surface, pid, url):
        with pytest.raises(IntegrityError):
            s.validate()
        with pytest.raises(FormatError):
            write_snapshot(s)
        return
    s.validate()
    data = write_snapshot(s)
    assert contents(parse_snapshot(data)) == contents(s)
    fast = _Reader().canonical(data, None)
    assert isinstance(fast, str) or contents(fast) == contents(s)


# Values the writer leaves as they stand, so the file of a snapshot made of
# them is canonical.
_plain = st.text(st.sampled_from("aZ09 -./='\xe9\u4e2d"), max_size=3)


def _two_by_two(title, venue, url, year, authors, editors, suffix):
    """Two documents, one with every part, one with an author alone, and two
    profiles: one with the first document's authors, one with its editors
    and the second document's author."""
    d0 = DocumentRecord(
        "d0" + suffix, title=title, year=year, venue_key=None if venue is None else "v" + suffix,
        venue_name=venue, authors=authors, editors=editors, external_link=url,
    )
    d1 = DocumentRecord("d1" + suffix, authors=("B" + suffix,))
    sigs = [Signature(d0.document_key, i, a) for i, a in enumerate(authors)]
    other = [Signature(d0.document_key, i, e, Role.EDITOR) for i, e in enumerate(editors)]
    other.append(Signature(d1.document_key, 0, d1.authors[0]))
    profiles = {"p0" + suffix: Profile("p0" + suffix, frozenset(sigs)),
                "p1" + suffix: Profile("p1" + suffix, frozenset(other))}
    profiles = {pid: prof for pid, prof in profiles.items() if prof.mentions}
    return Snapshot("2017-01-01", profiles, {d.document_key: d for d in (d0, d1)})


_surfaces = st.lists(_plain.map("S".__add__), max_size=3).map(tuple)
_two_by_two_values = st.builds(
    _two_by_two, _plain, st.none() | _plain, st.none() | _plain, st.integers(-3, 2020),
    _surfaces, _surfaces, _plain,
)
# A record's children, and the attributes of a tag.
_CHILD = re.compile(r"<(title|venue|author|editor)[^>]*>[^<]*</\1>|<signature [^>]*/>")
_ATTRS = re.compile(r'( \w+="[^"]*")( \w+="[^"]*")')
# What goes between two parts of a line, or into a value: characters at the
# edges of the value classes, text, and markup.
_SNIPPETS = [
    "\t", ">", '"', "'", "&", "&amp;", "&#65;", "\r", "\x01", "\x0b", "\x0c", "\x1f",
    "\x7f", "\x85", "\ufffe", " ", "x", "<!-- c -->", "<b/>", "<![CDATA[x]]>",
]


def _mutate(line, kind, n, k):
    """``line`` with one change of ``kind``, placed by ``n``; ``k`` picks
    what is inserted."""
    def nth(matches):
        matches = list(matches)
        return matches[n % len(matches)] if matches else None

    if kind == "quote":
        m = nth(re.finditer(r'="([^"]*)"', line))
        return line if m is None else f"{line[:m.start()]}='{m.group(1)}'{line[m.end():]}"
    if kind == "swap":
        m = nth(_ATTRS.finditer(line))
        return line if m is None else line[:m.start()] + m.group(2) + m.group(1) + line[m.end():]
    if kind == "space":
        m = nth(re.finditer(r" |/?>", line))
        return line[:m.start()] + [" ", "  ", "\t", "\n"][k % 4] + line[m.start():]
    if kind in ("drop", "repeat"):
        m = nth(_CHILD.finditer(line))
        if m is None:
            return line
        return line[:m.start()] + (m.group() * 2 if kind == "repeat" else "") + line[m.end():]
    if kind == "role":
        m = nth(re.finditer(r"(?: role=\"editor\")?/>", line))
        return line if m is None else line[:m.start()] + ' role="author"/>' + line[m.end():]
    snippet = _SNIPPETS[k % len(_SNIPPETS)]
    if kind == "between":
        m = nth(re.finditer(r"<|(?<=>)", line))
        at = m.start()
    else:  # anywhere, values included
        at = n % (len(line) + 1)
    return line[:at] + snippet + line[at:]


_mutation = st.tuples(
    st.sampled_from(["quote", "swap", "space", "drop", "repeat", "role", "between", "anywhere"]),
    st.integers(0, 3), st.integers(0, 30), st.integers(0, 40),
)


@given(s=_two_by_two_values, mutations=st.lists(_mutation, max_size=3))
# A signature with its attributes in another order, or with two spaces
# between two of them: a profile line whose signatures were checked only as
# a whole would drop it.
@example(s=_two_by_two("T", "V", None, 2016, ("A",), (), ""), mutations=[("swap", 3, 0, 0)])
@example(s=_two_by_two("T", "V", None, 2016, ("A",), (), ""), mutations=[("space", 3, 4, 0)])
@settings(max_examples=200, deadline=None)
def test_the_canonical_line_grammar_declines_or_matches_expat(s, mutations):
    data = write_snapshot(s)
    assert contents(_Reader().canonical(data, None)) == contents(s)
    lines = data.decode().split("\n")
    for kind, i, n, k in mutations:
        i = 2 + i % (len(lines) - 4)
        lines[i] = _mutate(lines[i], kind, n, k)
    data = "\n".join(lines).encode("utf-8", "surrogatepass")
    fast = outcome(lambda: _Reader().canonical(data, None))
    if fast is not None:
        assert fast == outcome(lambda: _expat_builder(data, None, None)[1])


# Unknown documents, positions past a name list, blank surfaces, and a small
# slot space, so that profiles often claim the same slot or list one twice.
_mention = st.builds(
    Signature,
    st.sampled_from(["d0", "d0", "d1", "d2", "dX"]),
    st.integers(0, 2),
    st.sampled_from(["A", "B"] * 4 + [" ", ""]),
    st.sampled_from([Role.AUTHOR, Role.AUTHOR, Role.EDITOR]),
)


@st.composite
def _snapshot_values(draw):
    """Small values whose strings are writable, with maps in sorted key
    order, as a file reads back."""
    documents = {}
    names = st.lists(st.sampled_from(["A", "B"]), max_size=3)
    mentions = st.lists(_mention, min_size=1, max_size=3)
    # An empty id or profile now and then, and an empty document or venue
    # key more rarely, so that the other rules get their turn.  One venue key
    # often goes under two names.
    rarely = st.sampled_from([False] * 9 + [True])
    blank = st.sampled_from([None] * 18 + ["document", "venue"])
    for key in ["d0", "d1", "d2"][: draw(st.integers(0, 3))]:
        venue = draw(st.sampled_from([None, "v0", "v1"]))
        name = None if venue is None else draw(st.sampled_from(["Venue ", "Other "])) + venue
        empty = draw(blank)
        if empty == "document":
            key = ""
        elif empty == "venue" and venue is not None:
            venue = ""
        documents[key] = DocumentRecord(
            key, venue_key=venue, venue_name=name,
            authors=tuple(draw(names)), editors=tuple(draw(names)),
        )
    ids = draw(st.sets(st.sampled_from(["p0", "p1", "p2"])))
    if draw(rarely):
        ids.add("")
    profiles = {
        pid: Profile(pid, frozenset([] if draw(rarely) else draw(mentions)))
        for pid in sorted(ids)
    }
    return Snapshot("2017-01-01", profiles, dict(sorted(documents.items())))


def _validated(s):
    s.validate()
    return s


def _documents(*records):
    return Snapshot("2017-01-01", {}, {d.document_key: d for d in records})


@given(s=_snapshot_values())
@example(s=_documents(DocumentRecord("d0", venue_key="v0", venue_name="Venue v0"),
                      DocumentRecord("d1", venue_key="v0", venue_name="Other v0")))
@example(s=_documents(DocumentRecord("")))
@example(s=_documents(DocumentRecord("d0", venue_key="", venue_name="Venue ")))
@settings(max_examples=200, deadline=None)
def test_validate_matches_reading_the_written_file(s):
    # One set of rules and messages, whether a value is checked in memory or
    # its file is read back, canonical or indented (expat).
    data = write_snapshot(s)
    lines = data.split(b"\n")
    indented = b"\n".join(lines[:2] + [b"  " + line for line in lines[2:-2]] + lines[-2:])
    expected = outcome(lambda: _validated(s))
    assert outcome(lambda: parse_snapshot(data)) == expected
    assert outcome(lambda: parse_snapshot(indented)) == expected


@given(person=_value, doc=_value, venue=_value, key=_value, name=_value, title=_value)
@example(person="p\n", doc="d\t", venue="v\r", key="k\r", name="N", title="T\r")
@settings(max_examples=200, deadline=None)
def test_case_graph_round_trip(person, doc, venue, key, name, title):
    if len({person, doc, venue}) < 3 or not all((person, doc, venue)):
        return
    graph = CaseGraph(
        nodes=frozenset({
            Node(NodeLabel.PERSON, person, (("name", name),)),
            Node(NodeLabel.DOCUMENT, doc, ((key, title),)),
            Node(NodeLabel.VENUE, venue),
        }),
        edges=frozenset({
            Edge(EdgeType.CREATED, person, doc),
            Edge(EdgeType.CREATED_AT, person, venue, 1),
        }),
        primary_ids=frozenset({person}),
    )
    graph.validate()
    if not writable(person, doc, venue, key, name, title):
        with pytest.raises(FormatError):
            serialize_case_graph(graph)
        return
    assert parse_case_graph(serialize_case_graph(graph)) == graph


@given(annotation_id=_value, source=_value.filter(bool), target=_value.filter(bool),
       key=_value, surface=_value)
@example(annotation_id="a\r", source="p\n", target="q\t", key="d", surface="S\r\n")
@settings(max_examples=200, deadline=None)
def test_annotation_round_trip(annotation_id, source, target, key, surface):
    sig = Signature(key, 0, surface)
    annotation = EmbeddedAnnotation(
        annotation_id=annotation_id,
        kind=CorrectionKind.DISTRIBUTE,
        t_before="2017-01-01",
        t_after="2017-02-01",
        source={source: (sig,)},
        target={target: (sig,)},
        new_mentions=frozenset({sig.key}),
    )
    annotation.check()
    if not writable(annotation_id, source, target, key, surface):
        with pytest.raises(FormatError):
            serialize_annotation(annotation)
        return
    assert parse_annotation(serialize_annotation(annotation)) == annotation


def test_writer_refusal_names_the_value(tmp_path):
    s = Snapshot(
        "2017-01-01",
        {"p": Profile("p", frozenset({Signature("d", 0, "A")}))},
        {"d": DocumentRecord("d", title="bell\x07", authors=("A",))},
    )
    with pytest.raises(IntegrityError, match=r"'bell\\x07'.*U\+0007"):
        s.validate()
    with pytest.raises(FormatError, match=r"'bell\\x07'.*U\+0007"):
        write_snapshot(s)
    for name in ("s.xml", "s.xml.gz"):
        with pytest.raises(FormatError):
            write_snapshot_to(s, tmp_path / name)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize(
    "record",
    [DocumentRecord("d", venue_key="v1"), DocumentRecord("d", venue_name="Venue")],
    ids=["key-without-name", "name-without-key"],
)
def test_writer_refuses_a_venue_key_and_name_apart(tmp_path, record):
    # The words of ``Snapshot.validate``'s refusal of the same value.
    message = (
        rf"^document d: venue key {re.escape(repr(record.venue_key))} and venue name "
        rf"{re.escape(repr(record.venue_name))}: both or neither must be set$"
    )
    s = Snapshot("2017-01-01", {}, {"d": record})
    with pytest.raises(IntegrityError, match=message):
        s.validate()
    with pytest.raises(FormatError, match=message):
        write_snapshot(s)
    for name in ("s.xml", "s.xml.gz"):
        with pytest.raises(FormatError, match=message):
            write_snapshot_to(s, tmp_path / name)
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", ["s.xml", "s.xml.gz"])
def test_failed_write_leaves_no_file(tmp_path, name):
    # The last document's title cannot be written, so rendering fails after
    # the writer has opened the file.
    documents = {
        f"d{i:05}": DocumentRecord(f"d{i:05}", title="T", authors=("A",)) for i in range(4999)
    }
    documents["d04999"] = DocumentRecord("d04999", title="bell\x07")
    with pytest.raises(FormatError):
        write_snapshot_to(Snapshot("2017-01-01", {}, documents), tmp_path / name)
    assert not (tmp_path / name).exists()


def test_parse_int_takes_exactly_ascii_integers():
    # Every ASCII character and every character ``isdigit`` accepts, alone
    # and next to a digit or a minus sign, against the grammar itself.
    grammar = re.compile("-?[0-9]+")
    chars = [c for c in map(chr, range(0x110000)) if c.isdigit() or c.isascii()]
    for c in chars:
        for value in (c, "1" + c, c + "1", "-" + c, c + "-1"):
            if grammar.fullmatch(value):
                assert parse_int(value) == int(value)
            else:
                with pytest.raises(ValueError):
                    parse_int(value)
