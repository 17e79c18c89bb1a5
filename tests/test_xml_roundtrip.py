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
from corrhist.model import DocumentRecord, Profile, Signature, Snapshot
from corrhist.snapshot_io import (
    _parse_canonical,
    _parse_expat,
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
    return (s.time, s.profiles, s.documents, s.venues)


def outcome(parse):
    try:
        parsed = parse()
    except IntegrityError as exc:
        return ("IntegrityError", str(exc))
    except FormatError:
        return "FormatError"
    return parsed if parsed is None else contents(parsed)


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
    fast = outcome(lambda: _parse_canonical(data, None))
    if fast is not None:
        assert fast == outcome(lambda: _parse_expat(data, None, None))


@given(key=_value, title=_value, venue_key=_value, venue_name=_value, surface=_name,
       pid=_value.filter(bool), url=_value)
@example(key="d", title="T", venue_key="v", venue_name="V", surface="Ann\nLee", pid="p", url="u")
@example(key="d", title="T\r\n", venue_key="v", venue_name="V", surface="A", pid="p\t", url="u")
@settings(max_examples=200, deadline=None)
def test_snapshot_round_trip(key, title, venue_key, venue_name, surface, pid, url):
    s = Snapshot(
        "2017-01-01",
        {pid: Profile(pid, frozenset({Signature(key, 0, surface)}))},
        {key: DocumentRecord(key, title=title, year=1999, venue_key=venue_key,
                             authors=(surface,), external_link=url)},
        {venue_key: venue_name},
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
    fast = _parse_canonical(data, None)
    assert fast is None or contents(fast) == contents(s)


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
        {},
    )
    with pytest.raises(IntegrityError, match=r"'bell\\x07'.*U\+0007"):
        s.validate()
    with pytest.raises(FormatError, match=r"'bell\\x07'.*U\+0007"):
        write_snapshot(s)
    for name in ("s.xml", "s.xml.gz"):
        with pytest.raises(FormatError):
            write_snapshot_to(s, tmp_path / name)
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
