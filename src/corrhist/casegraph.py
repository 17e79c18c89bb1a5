"""Per-correction context graphs (the case-based collection).

Each correction case yields two graphs: the state directly before the
correction and the state right after.  A graph holds the corrected
("primary") profiles, their documents, everyone else named on those
documents, and the documents' venues, plus typed relations:

- Created / Contributed: person wrote / edited a document (unweighted),
- CoCreated / CoContributed: two persons share included documents in the
  same role, weighted by how many,
- CreatedAt / ContributedAt: person published / edited at a venue, weighted
  by the number of included documents there.

Relation weights always reflect the last observation before the correction,
for both graphs; the after-graph differs in mention assignment only.
Document metadata (title, year, link) is taken from the newest observation
that still contains the document, so cases carry current data.

Nodes and edges are named tuples (``Node``, ``Edge``) and the labels and
edge types are enums hashed by identity, so building, checking and writing
a graph hashes and compares in C.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Sequence
from xml.etree import ElementTree as ET

from ._xml import escape_attr, parse_int
from .blocking import representative_surface
from .errors import FormatError, IntegrityError
from .extract import CorrectionCase, assign_case_ids
from .model import History, Role, Signature, Snapshot


class NodeLabel(enum.Enum):
    DOCUMENT = "DOCUMENT"
    PERSON = "PERSON"
    VENUE = "VENUE"

    # Members are singletons that compare by identity; ``Enum.__hash__``
    # would hash the name in Python code on every set or dict operation.
    __hash__ = object.__hash__


class EdgeType(enum.Enum):
    CREATED = "Created"
    CONTRIBUTED = "Contributed"
    CO_CREATED = "CoCreated"
    CO_CONTRIBUTED = "CoContributed"
    CREATED_AT = "CreatedAt"
    CONTRIBUTED_AT = "ContributedAt"

    __hash__ = object.__hash__


_DOCUMENT, _PERSON, _VENUE = NodeLabel.DOCUMENT, NodeLabel.PERSON, NodeLabel.VENUE
_CREATED, _CONTRIBUTED = EdgeType.CREATED, EdgeType.CONTRIBUTED
_AUTHOR = Role.AUTHOR

# What each edge type connects: (weighted, target label, endpoints ordered).
# Every edge runs from a person.
_EDGE_RULES = {
    EdgeType.CREATED: (False, _DOCUMENT, False),
    EdgeType.CONTRIBUTED: (False, _DOCUMENT, False),
    EdgeType.CO_CREATED: (True, _PERSON, True),
    EdgeType.CO_CONTRIBUTED: (True, _PERSON, True),
    EdgeType.CREATED_AT: (True, _VENUE, False),
    EdgeType.CONTRIBUTED_AT: (True, _VENUE, False),
}


class Node(NamedTuple):
    """A graph node, as a named tuple: hashed and compared in C."""

    label: NodeLabel
    node_id: str
    properties: tuple[tuple[str, str], ...] = ()


class Edge(NamedTuple):
    """A typed relation, as a named tuple; ``weight`` is None on Created and
    Contributed edges."""

    edge_type: EdgeType
    from_id: str
    to_id: str
    weight: int | None = None

    def sort_key(self) -> tuple[str, str, str]:
        # ``_value_`` skips the Python-level ``value`` property.
        return (self.edge_type._value_, self.from_id, self.to_id)


@dataclass(frozen=True)
class CaseGraph:
    nodes: frozenset[Node]
    edges: frozenset[Edge]
    primary_ids: frozenset[str]

    def validate(self) -> None:
        labels: dict[str, NodeLabel] = {}
        for label, node_id, properties in self.nodes:
            if not node_id:
                raise IntegrityError("node with empty id")
            if node_id in labels:
                raise IntegrityError(f"duplicate node id {node_id!r}")
            if len(properties) > 1 and len({k for k, _ in properties}) != len(properties):
                raise IntegrityError(f"node {node_id}: duplicate property keys")
            labels[node_id] = label
        for pid in self.primary_ids:
            label = labels.get(pid)
            if label is None:
                raise IntegrityError(f"primary id {pid!r} has no node")
            if label is not _PERSON:
                raise IntegrityError(f"primary node {pid!r} is not a person")
        seen: set[tuple[EdgeType, str, str]] = set()
        for edge_type, from_id, to_id, weight in self.edges:
            name = edge_type._value_
            a = labels.get(from_id)
            b = labels.get(to_id)
            if a is None or b is None:
                raise IntegrityError(
                    f"edge {name} {from_id}->{to_id} has a dangling endpoint"
                )
            if from_id == to_id:
                raise IntegrityError(f"self-loop on {from_id}")
            key = (edge_type, from_id, to_id)
            if key in seen:
                raise IntegrityError(f"duplicate edge {name} {from_id}->{to_id}")
            seen.add(key)
            weighted, target, ordered = _EDGE_RULES[edge_type]
            if not weighted:
                if weight is not None:
                    raise IntegrityError(f"{name} edges carry no weight")
            elif weight is None or weight < 1:
                raise IntegrityError(f"{name} needs a positive weight")
            if a is not _PERSON or b is not target:
                raise IntegrityError(
                    f"{name} must run person -> {target._value_.lower()}"
                )
            if ordered and not from_id < to_id:
                raise IntegrityError(
                    f"{name} endpoints must be ordered: {from_id} !< {to_id}"
                )


class _DocResolver:
    """Each document's node and venue from its latest observation, built
    once per key and shared by every graph that includes the document."""

    def __init__(self, history: History):
        self._snapshots = history.snapshots
        self._cache: dict[str, tuple[Node, str | None, str | None]] = {}

    def resolve(self, document_key: str) -> tuple[Node, str | None, str | None]:
        """The document's node, venue key and venue name."""
        hit = self._cache.get(document_key)
        if hit is None:
            for snap in reversed(self._snapshots):
                record = snap.documents.get(document_key)
                if record is not None:
                    break
            else:
                raise IntegrityError(
                    f"document {document_key!r} appears in no observation"
                )
            props: list[tuple[str, str]] = []
            if record.year:
                props.append(("year", str(record.year)))
            if record.title:
                props.append(("title", record.title))
            if record.external_link is not None:
                props.append(("url", record.external_link))
            venue_key = record.venue_key
            hit = (
                Node(_DOCUMENT, document_key, tuple(props)),
                venue_key,
                snap.venues.get(venue_key) if venue_key is not None else None,
            )
            self._cache[document_key] = hit
        return hit


_OwnerEntry = tuple[int, Role, str, str]  # position, role, profile, surface


def _owners_for_docs(
    snapshot: Snapshot, docs: set[str]
) -> dict[str, list[_OwnerEntry]]:
    """Who holds which mention slot of the given documents, per ``snapshot``."""
    out: dict[str, list[_OwnerEntry]] = {key: [] for key in docs}
    for pid, prof in snapshot.profiles.items():
        for m in prof.mentions:
            bucket = out.get(m.document_key)
            if bucket is not None:
                bucket.append((m.position, m.role, pid, m.surface))
    return out


def _one_side(
    primary_mentions: dict[str, frozenset[Signature]],
    side_snapshot: Snapshot,
    side_owners: dict[str, list[_OwnerEntry]],
    weight_owners: dict[str, list[_OwnerEntry]],
    resolver: _DocResolver,
) -> CaseGraph:
    for pid, sigs in primary_mentions.items():
        if side_snapshot.mentions_of(pid) != sigs:
            raise IntegrityError(
                f"case lists profile {pid} with a different mention set than "
                f"the observation at {side_snapshot.time}"
            )

    edges: set[Edge] = set()
    person_surfaces: dict[str, list[str]] = {}
    for doc, owners in side_owners.items():
        for _pos, role, pid, surface in owners:
            person_surfaces.setdefault(pid, []).append(surface)
            edges.add(Edge(_CREATED if role is _AUTHOR else _CONTRIBUTED, pid, doc))

    # Sorted: where two documents name one venue differently (they were last
    # seen in different observations), the greater document key decides.
    nodes: list[Node] = []
    venues: dict[str, str | None] = {}
    for doc in sorted(side_owners):
        node, venue_key, venue_name = resolver.resolve(doc)
        nodes.append(node)
        if venue_key is not None:
            venues[venue_key] = venue_name
    for pid, surfaces in person_surfaces.items():
        name = surfaces[0] if len(surfaces) == 1 else representative_surface(surfaces)
        nodes.append(Node(_PERSON, pid, (("name", name),)))
    for vkey, vname in venues.items():
        nodes.append(Node(_VENUE, vkey, (("name", vname),) if vname else ()))

    # Relation strengths from the pre-correction assignment, restricted to
    # persons and documents present in this graph.  Pairs are keyed by the
    # tuples ``combinations`` yields.
    co_created: dict[tuple[str, str], int] = {}
    co_contributed: dict[tuple[str, str], int] = {}
    created_at: dict[tuple[str, str], int] = {}
    contributed_at: dict[tuple[str, str], int] = {}
    for doc in side_owners:
        authors: set[str] = set()
        editors: set[str] = set()
        for _pos, role, pid, _surface in weight_owners[doc]:
            if pid in person_surfaces:
                (authors if role is _AUTHOR else editors).add(pid)
        venue_key = resolver.resolve(doc)[1]
        for members, co, at in (
            (authors, co_created, created_at),
            (editors, co_contributed, contributed_at),
        ):
            for pair in combinations(sorted(members), 2):
                co[pair] = co.get(pair, 0) + 1
            if venue_key is not None:
                for x in members:
                    key = (x, venue_key)
                    at[key] = at.get(key, 0) + 1
    for edge_type, counts in (
        (EdgeType.CO_CREATED, co_created),
        (EdgeType.CO_CONTRIBUTED, co_contributed),
        (EdgeType.CREATED_AT, created_at),
        (EdgeType.CONTRIBUTED_AT, contributed_at),
    ):
        for (x, y), weight in counts.items():
            edges.add(Edge(edge_type, x, y, weight))

    graph = CaseGraph(
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        primary_ids=frozenset(primary_mentions),
    )
    graph.validate()
    return graph


def _case_docs(profiles: dict[str, frozenset[Signature]]) -> set[str]:
    return {m.document_key for sigs in profiles.values() for m in sigs}


def _case_graphs(
    case: CorrectionCase,
    before: Snapshot,
    after: Snapshot,
    owners_before: dict[str, list[_OwnerEntry]],
    owners_after: dict[str, list[_OwnerEntry]],
    resolver: _DocResolver,
) -> tuple[CaseGraph, CaseGraph]:
    """Both graphs of ``case`` from owner indexes covering at least its
    documents: ``owners_before`` those of either side, ``owners_after``
    those of the after side."""
    docs_before = _case_docs(case.source_profiles)
    docs_after = _case_docs(case.target_profiles)
    weights_before = {d: owners_before[d] for d in docs_before}
    g_before = _one_side(
        case.source_profiles, before, weights_before, weights_before, resolver
    )
    g_after = _one_side(
        case.target_profiles,
        after,
        {d: owners_after[d] for d in docs_after},
        {d: owners_before[d] for d in docs_after},
        resolver,
    )
    return g_before, g_after


def build_case_graphs(
    case: CorrectionCase, history: History
) -> tuple[CaseGraph, CaseGraph]:
    """The before- and after-graph of one correction case."""
    before = history.at(case.t_before)
    after = history.at(case.t_after)
    docs_after = _case_docs(case.target_profiles)
    return _case_graphs(
        case,
        before,
        after,
        _owners_for_docs(before, _case_docs(case.source_profiles) | docs_after),
        _owners_for_docs(after, docs_after),
        _DocResolver(history),
    )


def serialize_case_graph(graph: CaseGraph) -> bytes:
    """Deterministic XML bytes: nodes by (label, id), edges by (type, from, to)."""
    # Every id recurs in several edges; escape each once.
    ids = {node_id: escape_attr(node_id) for _, node_id, _ in graph.nodes}
    primary_ids = graph.primary_ids
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<graph>\n']
    append = out.append
    for label, node_id, properties in sorted(
        [(label._value_, node_id, properties) for label, node_id, properties in graph.nodes]
    ):
        opening = f'<node label="{label}" id="{ids[node_id]}"'
        if node_id in primary_ids:
            opening += ' primary="true"'
        if not properties:
            append(opening + "/>\n")
            continue
        append(opening + ">\n")
        for key, value in properties:
            append(
                f'     <property key="{escape_attr(key)}"'
                f' value="{escape_attr(value)}"/>\n'
            )
        append("</node>\n")
    # The weight goes in as its attribute text, so that rows sort as plain
    # tuples even where an unchecked graph repeats (type, from, to).
    for type_name, from_id, to_id, weight_attr in sorted(
        [
            (edge_type._value_, from_id, to_id,
             "" if weight is None else f' weight="{weight}"')
            for edge_type, from_id, to_id, weight in graph.edges
        ]
    ):
        append(
            f'<edge type="{type_name}"'
            f' from="{ids.get(from_id) or escape_attr(from_id)}"'
            f' to="{ids.get(to_id) or escape_attr(to_id)}"{weight_attr}/>\n'
        )
    append("</graph>\n")
    return "".join(out).encode("utf-8")


def parse_case_graph(data: bytes) -> CaseGraph:
    """Structural inverse of serialize_case_graph."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormatError(f"malformed graph XML: {exc}") from None
    if root.tag != "graph":
        raise FormatError(f"expected <graph> root, got <{root.tag}>")
    nodes: list[Node] = []
    edges: list[Edge] = []
    primaries: set[str] = set()
    for child in root:
        if child.tag == "node":
            label_raw = child.get("label")
            try:
                label = NodeLabel(label_raw)
            except ValueError:
                raise FormatError(f"unknown node label {label_raw!r}") from None
            node_id = child.get("id")
            if not node_id:
                raise FormatError("node without id")
            props = []
            for sub in child:
                if sub.tag != "property":
                    raise FormatError(f"unexpected <{sub.tag}> under <node>")
                key = sub.get("key")
                value = sub.get("value")
                if key is None or value is None:
                    raise FormatError(f"node {node_id}: property needs key and value")
                props.append((key, value))
            if child.get("primary") == "true":
                primaries.add(node_id)
            nodes.append(Node(label, node_id, tuple(props)))
        elif child.tag == "edge":
            type_raw = child.get("type")
            try:
                edge_type = EdgeType(type_raw)
            except ValueError:
                raise FormatError(f"unknown edge type {type_raw!r}") from None
            from_id = child.get("from")
            to_id = child.get("to")
            if not from_id or not to_id:
                raise FormatError("edge needs from and to")
            weight_raw = child.get("weight")
            weight: int | None = None
            if weight_raw is not None:
                try:
                    weight = parse_int(weight_raw)
                except ValueError:
                    raise FormatError(f"non-integer weight {weight_raw!r}") from None
            edges.append(Edge(edge_type, from_id, to_id, weight))
        else:
            raise FormatError(f"unexpected element <{child.tag}> under <graph>")
    graph = CaseGraph(frozenset(nodes), frozenset(edges), frozenset(primaries))
    graph.validate()
    return graph


def build_case_collection(
    cases: Sequence[CorrectionCase],
    history: History,
    out_dir: str | Path,
) -> Path:
    """Write before/after graph files for every case plus a manifest.

    Cases are numbered deterministically within each (kind, start date)
    group, in the extractor's case order.  Ownership indexes are built once
    per observation pair and shared by all cases of that pair, so the cost
    scales with the number of distinct intervals, not the number of cases.

    Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolver = _DocResolver(history)
    ordered = sorted(cases, key=CorrectionCase.sort_key)
    ids = assign_case_ids(ordered)

    by_pair: dict[tuple[str, str], list[int]] = {}
    for i, case in enumerate(ordered):
        by_pair.setdefault((case.t_before, case.t_after), []).append(i)

    manifest_rows: list[tuple[str, ...] | None] = [None] * len(ordered)
    for (t_before, t_after), indexes in sorted(by_pair.items()):
        before = history.at(t_before)
        after = history.at(t_after)
        docs_before: set[str] = set()
        docs_after: set[str] = set()
        for i in indexes:
            docs_before |= _case_docs(ordered[i].source_profiles)
            docs_after |= _case_docs(ordered[i].target_profiles)
        owners_before = _owners_for_docs(before, docs_before | docs_after)
        owners_after = _owners_for_docs(after, docs_after)
        for i in indexes:
            case = ordered[i]
            g_before, g_after = _case_graphs(
                case, before, after, owners_before, owners_after, resolver
            )
            before_name = f"{ids[i]}-before.xml"
            after_name = f"{ids[i]}-after.xml"
            (out / before_name).write_bytes(serialize_case_graph(g_before))
            (out / after_name).write_bytes(serialize_case_graph(g_after))
            manifest_rows[i] = (
                ids[i],
                case.kind.value,
                t_before,
                t_after,
                before_name,
                after_name,
            )

    manifest = out / "cases.tsv"
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("case_id\tkind\tt_before\tt_after\tbefore_file\tafter_file\n")
        for row in manifest_rows:
            assert row is not None
            f.write("\t".join(row) + "\n")
    return manifest
