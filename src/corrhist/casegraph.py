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
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence
from xml.etree import ElementTree as ET

from ._xml import escape_attr
from .blocking import representative_surface
from .errors import FormatError, IntegrityError
from .extract import CorrectionCase, assign_case_ids
from .model import DocumentRecord, History, Role, Signature, Snapshot


class NodeLabel(enum.Enum):
    DOCUMENT = "DOCUMENT"
    PERSON = "PERSON"
    VENUE = "VENUE"


class EdgeType(enum.Enum):
    CREATED = "Created"
    CONTRIBUTED = "Contributed"
    CO_CREATED = "CoCreated"
    CO_CONTRIBUTED = "CoContributed"
    CREATED_AT = "CreatedAt"
    CONTRIBUTED_AT = "ContributedAt"


_UNWEIGHTED = {EdgeType.CREATED, EdgeType.CONTRIBUTED}
_PERSON_PAIR = {EdgeType.CO_CREATED, EdgeType.CO_CONTRIBUTED}


@dataclass(frozen=True)
class Node:
    label: NodeLabel
    node_id: str
    properties: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Edge:
    edge_type: EdgeType
    from_id: str
    to_id: str
    weight: int | None = None

    def sort_key(self) -> tuple[str, str, str]:
        return (self.edge_type.value, self.from_id, self.to_id)


@dataclass(frozen=True)
class CaseGraph:
    nodes: frozenset[Node]
    edges: frozenset[Edge]
    primary_ids: frozenset[str]

    def node_index(self) -> dict[str, Node]:
        return {n.node_id: n for n in self.nodes}

    def validate(self) -> None:
        index: dict[str, Node] = {}
        for node in self.nodes:
            if not node.node_id:
                raise IntegrityError("node with empty id")
            if node.node_id in index:
                raise IntegrityError(f"duplicate node id {node.node_id!r}")
            keys = [k for k, _ in node.properties]
            if len(keys) != len(set(keys)):
                raise IntegrityError(
                    f"node {node.node_id}: duplicate property keys"
                )
            index[node.node_id] = node
        for pid in self.primary_ids:
            node = index.get(pid)
            if node is None:
                raise IntegrityError(f"primary id {pid!r} has no node")
            if node.label is not NodeLabel.PERSON:
                raise IntegrityError(f"primary node {pid!r} is not a person")
        seen: set[tuple[EdgeType, str, str]] = set()
        for edge in self.edges:
            a = index.get(edge.from_id)
            b = index.get(edge.to_id)
            if a is None or b is None:
                raise IntegrityError(
                    f"edge {edge.edge_type.value} {edge.from_id}->{edge.to_id} "
                    f"has a dangling endpoint"
                )
            if edge.from_id == edge.to_id:
                raise IntegrityError(f"self-loop on {edge.from_id}")
            key = (edge.edge_type, edge.from_id, edge.to_id)
            if key in seen:
                raise IntegrityError(
                    f"duplicate edge {edge.edge_type.value} "
                    f"{edge.from_id}->{edge.to_id}"
                )
            seen.add(key)
            if edge.edge_type in _UNWEIGHTED:
                if edge.weight is not None:
                    raise IntegrityError(
                        f"{edge.edge_type.value} edges carry no weight"
                    )
                if a.label is not NodeLabel.PERSON or b.label is not NodeLabel.DOCUMENT:
                    raise IntegrityError(
                        f"{edge.edge_type.value} must run person -> document"
                    )
            elif edge.edge_type in _PERSON_PAIR:
                if edge.weight is None or edge.weight < 1:
                    raise IntegrityError(
                        f"{edge.edge_type.value} needs a positive weight"
                    )
                if a.label is not NodeLabel.PERSON or b.label is not NodeLabel.PERSON:
                    raise IntegrityError(
                        f"{edge.edge_type.value} must run person -> person"
                    )
                if not edge.from_id < edge.to_id:
                    raise IntegrityError(
                        f"{edge.edge_type.value} endpoints must be ordered: "
                        f"{edge.from_id} !< {edge.to_id}"
                    )
            else:
                if edge.weight is None or edge.weight < 1:
                    raise IntegrityError(
                        f"{edge.edge_type.value} needs a positive weight"
                    )
                if a.label is not NodeLabel.PERSON or b.label is not NodeLabel.VENUE:
                    raise IntegrityError(
                        f"{edge.edge_type.value} must run person -> venue"
                    )


class _DocResolver:
    """Latest-observation document metadata, resolved once per key."""

    def __init__(self, history: History):
        self._snapshots = history.snapshots
        self._cache: dict[str, tuple[DocumentRecord, str | None]] = {}

    def resolve(self, document_key: str) -> tuple[DocumentRecord, str | None]:
        hit = self._cache.get(document_key)
        if hit is None:
            for snap in reversed(self._snapshots):
                record = snap.documents.get(document_key)
                if record is not None:
                    venue_name = (
                        snap.venues.get(record.venue_key)
                        if record.venue_key is not None
                        else None
                    )
                    hit = (record, venue_name)
                    break
            else:
                raise IntegrityError(
                    f"document {document_key!r} appears in no observation"
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
    docs = set(side_owners)
    for pid, sigs in primary_mentions.items():
        if side_snapshot.mentions_of(pid) != sigs:
            raise IntegrityError(
                f"case lists profile {pid} with a different mention set than "
                f"the observation at {side_snapshot.time}"
            )

    nodes: list[Node] = []
    edges: set[Edge] = set()

    person_surfaces: dict[str, list[str]] = {}
    for doc in docs:
        for _pos, role, pid, surface in side_owners[doc]:
            person_surfaces.setdefault(pid, []).append(surface)
            edge_type = (
                EdgeType.CREATED if role is Role.AUTHOR else EdgeType.CONTRIBUTED
            )
            edges.add(Edge(edge_type, pid, doc))
    persons = set(person_surfaces)

    venues: dict[str, str | None] = {}
    for doc in sorted(docs):
        record, venue_name = resolver.resolve(doc)
        props: list[tuple[str, str]] = []
        if record.year:
            props.append(("year", str(record.year)))
        if record.title:
            props.append(("title", record.title))
        if record.external_link is not None:
            props.append(("url", record.external_link))
        nodes.append(Node(NodeLabel.DOCUMENT, doc, tuple(props)))
        if record.venue_key is not None:
            venues[record.venue_key] = venue_name

    for pid in sorted(persons):
        name = representative_surface(person_surfaces[pid])
        nodes.append(Node(NodeLabel.PERSON, pid, (("name", name),)))
    for vkey in sorted(venues):
        vname = venues[vkey]
        props = (("name", vname),) if vname else ()
        nodes.append(Node(NodeLabel.VENUE, vkey, tuple(props)))

    # Relation strengths from the pre-correction assignment, restricted to
    # persons and documents present in this graph.
    pair_counts: Counter[tuple[EdgeType, str, str]] = Counter()
    venue_counts: Counter[tuple[EdgeType, str, str]] = Counter()
    for doc in docs:
        record, _ = resolver.resolve(doc)
        by_role: dict[Role, set[str]] = {Role.AUTHOR: set(), Role.EDITOR: set()}
        for _pos, role, pid, _surface in weight_owners[doc]:
            if pid in persons:
                by_role[role].add(pid)
        for role, edge_type, at_type in (
            (Role.AUTHOR, EdgeType.CO_CREATED, EdgeType.CREATED_AT),
            (Role.EDITOR, EdgeType.CO_CONTRIBUTED, EdgeType.CONTRIBUTED_AT),
        ):
            members = sorted(by_role[role])
            for x, y in combinations(members, 2):
                pair_counts[(edge_type, x, y)] += 1
            if record.venue_key is not None and record.venue_key in venues:
                for x in members:
                    venue_counts[(at_type, x, record.venue_key)] += 1
    for (edge_type, x, y), weight in pair_counts.items():
        edges.add(Edge(edge_type, x, y, weight))
    for (edge_type, x, v), weight in venue_counts.items():
        edges.add(Edge(edge_type, x, v, weight))

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


def iter_case_graph_xml(graph: CaseGraph) -> Iterator[str]:
    # Every id recurs in several edges; escape each once.
    ids = {node.node_id: escape_attr(node.node_id) for node in graph.nodes}
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield "<graph>\n"
    for node in sorted(graph.nodes, key=lambda n: (n.label.value, n.node_id)):
        opening = f'<node label="{node.label.value}" id="{ids[node.node_id]}"'
        if node.node_id in graph.primary_ids:
            opening += ' primary="true"'
        if not node.properties:
            yield opening + "/>\n"
            continue
        yield opening + ">\n"
        for key, value in node.properties:
            yield (
                f'     <property key="{escape_attr(key)}"'
                f' value="{escape_attr(value)}"/>\n'
            )
        yield "</node>\n"
    for edge in sorted(graph.edges, key=Edge.sort_key):
        line = (
            f'<edge type="{edge.edge_type.value}"'
            f' from="{ids.get(edge.from_id) or escape_attr(edge.from_id)}"'
            f' to="{ids.get(edge.to_id) or escape_attr(edge.to_id)}"'
        )
        if edge.weight is not None:
            line += f' weight="{edge.weight}"'
        yield line + "/>\n"
    yield "</graph>\n"


def serialize_case_graph(graph: CaseGraph) -> bytes:
    """Deterministic XML bytes: nodes by (label, id), edges by (type, from, to)."""
    return "".join(iter_case_graph_xml(graph)).encode("utf-8")


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
                    weight = int(weight_raw)
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
