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
import os
import threading
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple, Sequence
from xml.etree import ElementTree as ET

from ._cpus import _beside, _cpu_mask
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


@dataclass(frozen=True)
class CaseGraph:
    nodes: frozenset[Node]
    edges: frozenset[Edge]
    primary_ids: frozenset[str]

    def validate(self) -> None:
        # A node id is unique within its label only: a document key, a
        # profile id and a venue key may be equal.  Each edge type fixes its
        # endpoints' labels, so each endpoint is looked up under its own.
        ids: dict[NodeLabel, set[str]] = {_DOCUMENT: set(), _PERSON: set(), _VENUE: set()}
        for label, node_id, properties in self.nodes:
            if not node_id:
                raise IntegrityError("node with empty id")
            members = ids[label]
            if node_id in members:
                raise IntegrityError(f"duplicate node id {node_id!r}")
            if len(properties) > 1 and len({k for k, _ in properties}) != len(properties):
                raise IntegrityError(f"node {node_id}: duplicate property keys")
            members.add(node_id)

        def label_of(node_id: str) -> NodeLabel | None:
            """A label of ``node_id``, for an id missing under the one expected."""
            return next((label for label, members in ids.items() if node_id in members), None)

        persons = ids[_PERSON]
        # Each edge type's rule, with the ids of its target label.
        rules = {
            edge_type: (weighted, target, ids[target], ordered)
            for edge_type, (weighted, target, ordered) in _EDGE_RULES.items()
        }
        for pid in self.primary_ids:
            if pid not in persons:
                if label_of(pid) is None:
                    raise IntegrityError(f"primary id {pid!r} has no node")
                raise IntegrityError(f"primary node {pid!r} is not a person")
        seen: set[tuple[EdgeType, str, str]] = set()
        for edge_type, from_id, to_id, weight in self.edges:
            name = edge_type._value_
            weighted, target, targets, ordered = rules[edge_type]
            a = _PERSON if from_id in persons else label_of(from_id)
            b = target if to_id in targets else label_of(to_id)
            if a is None or b is None:
                raise IntegrityError(
                    f"edge {name} {from_id}->{to_id} has a dangling endpoint"
                )
            if from_id == to_id and a is b:
                raise IntegrityError(f"self-loop on {from_id}")
            key = (edge_type, from_id, to_id)
            if key in seen:
                raise IntegrityError(f"duplicate edge {name} {from_id}->{to_id}")
            seen.add(key)
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
            hit = (
                Node(_DOCUMENT, document_key, tuple(props)), record.venue_key, record.venue_name
            )
            self._cache[document_key] = hit
        return hit


_OwnerEntry = tuple[int, Role, str, str]  # position, role, profile, surface


def _owners_at(
    history: History, wanted: dict[str, set[str]]
) -> dict[str, dict[str, list[_OwnerEntry]]]:
    """Who holds which mention slot of the ``wanted[time]`` documents, at
    each wanted time.

    One scan of the first wanted observation seeds an index over every
    wanted document.  Each later interval then moves only the slots of the
    profiles it changed (``History.changed_profiles``), all removals before
    any addition, since a mention can pass between two changed profiles.
    So the cost is one snapshot plus the changes, however many intervals
    and cases there are.
    """
    if not wanted:
        return {}
    snapshots = history.snapshots
    index_of = {snap.time: i for i, snap in enumerate(snapshots)}
    for time in wanted:
        if time not in index_of:
            history.at(time)  # raises UnknownTimeError naming the observed dates
    wanted_at = sorted(index_of[time] for time in wanted)
    slots: dict[str, dict[tuple[int, Role], _OwnerEntry]] = {
        doc: {} for docs in wanted.values() for doc in docs
    }

    def place(pid: str, mentions: frozenset[Signature]) -> None:
        for doc, pos, surface, role in mentions:
            bucket = slots.get(doc)
            if bucket is not None:
                bucket[pos, role] = (pos, role, pid, surface)

    for pid, prof in snapshots[wanted_at[0]].profiles.items():
        place(pid, prof.mentions)
    out: dict[str, dict[str, list[_OwnerEntry]]] = {}
    for i in range(wanted_at[0], wanted_at[-1] + 1):
        if i > wanted_at[0]:
            changed = history.changed_profiles(i - 1)
            before, after = snapshots[i - 1], snapshots[i]
            for pid in changed:
                for doc, pos, _surface, role in before.mentions_of(pid):
                    bucket = slots.get(doc)
                    if bucket is not None:
                        del bucket[pos, role]
            for pid in changed:
                place(pid, after.mentions_of(pid))
        time = snapshots[i].time
        if time in wanted:
            out[time] = {doc: list(slots[doc].values()) for doc in wanted[time]}
    return out


def _wanted(cases: Sequence[CorrectionCase]) -> dict[str, set[str]]:
    """The documents whose owners the graphs of ``cases`` read, by time:
    at ``t_before`` those of either side, at ``t_after`` those of the after
    side."""
    wanted: dict[str, set[str]] = {}
    for case in cases:
        docs_after = _case_docs(case.target_profiles)
        wanted.setdefault(case.t_before, set()).update(
            _case_docs(case.source_profiles), docs_after
        )
        wanted.setdefault(case.t_after, set()).update(docs_after)
    return wanted


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
    owners = _owners_at(history, _wanted([case]))
    return _case_graphs(
        case,
        before,
        after,
        owners[case.t_before],
        owners[case.t_after],
        _DocResolver(history),
    )


def serialize_case_graph(graph: CaseGraph) -> bytes:
    """Deterministic XML bytes: nodes by (label, id), edges by (type, from, to)."""
    # Every id recurs in several edges; escape each once.
    ids = {node_id: escape_attr(node_id) for _, node_id, _ in graph.nodes}
    primary_ids = graph.primary_ids
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<graph>\n']
    append = out.append
    person = _PERSON._value_
    for label, node_id, properties in sorted(
        [(label._value_, node_id, properties) for label, node_id, properties in graph.nodes]
    ):
        opening = f'<node label="{label}" id="{ids[node_id]}"'
        if node_id in primary_ids and label == person:
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
    strays: list[str] = []  # ids of non-person nodes marked primary
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
                if label is not _PERSON:
                    strays.append(node_id)
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
    if strays:
        # Each shares its id with a person, or validation would have failed.
        raise IntegrityError(f"primary node {strays[0]!r} is not a person")
    return graph


def build_case_collection(
    cases: Sequence[CorrectionCase],
    history: History,
    out_dir: str | Path,
) -> Path:
    """Write before/after graph files for every case plus a manifest.

    Cases are numbered deterministically within each (kind, start date)
    group, in the extractor's case order.  One owner index follows the
    history's per-interval profile changes and is read at every case's
    bounding observations, so the cost scales with the profiles of one
    observation plus the changes, not with intervals times profiles.

    Where this process may use two CPUs or more, there are two cases or
    more, and no other thread runs, one forked child sharing the owner
    index builds and writes cases 1, 3, 5, ... on the second CPU of the
    mask, while this process builds 0, 2, 4, ... on the first
    (``_cpus._beside``); otherwise this process builds them all.  The
    bytes are the same either way.  This process gets its mask back once
    the child has ended.  If either fails, this process then redoes every
    case and raises the error of the earliest failing case; no manifest
    is written, and graph files of later cases may exist.

    Returns the manifest path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolver = _DocResolver(history)
    ordered = sorted(cases, key=CorrectionCase.sort_key)
    ids = assign_case_ids(ordered)
    owners = _owners_at(history, _wanted(ordered))

    def write_graphs(jobs: Sequence[tuple[str, CorrectionCase]]) -> None:
        """Build, validate, serialize and write each job's two graph files."""
        for case_id, case in jobs:
            g_before, g_after = _case_graphs(
                case,
                history.at(case.t_before),
                history.at(case.t_after),
                owners[case.t_before],
                owners[case.t_after],
                resolver,
            )
            (out / f"{case_id}-before.xml").write_bytes(serialize_case_graph(g_before))
            (out / f"{case_id}-after.xml").write_bytes(serialize_case_graph(g_after))

    jobs = list(zip(ids, ordered))
    cpus = _cpu_mask()
    # Forking a threaded process can deadlock the child on another thread's lock.
    if len(cpus) < 2 or len(jobs) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        write_graphs(jobs)
    else:
        failed = False
        with _beside(cpus) as move:
            if (pid := os.fork()) == 0:
                status = 1
                try:
                    move()
                    write_graphs(jobs[1::2])
                    status = 0
                finally:
                    os._exit(status)
            try:
                write_graphs(jobs[::2])
            except Exception:
                failed = True
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code < 0:
            raise ChildProcessError(f"a case graph worker was killed by signal {-code}")
        if failed or code:
            # Redo every case here, so that the error is the one loop's own, for
            # the earliest failing case; cases before it get the same bytes again.
            write_graphs(jobs)

    manifest = out / "cases.tsv"
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("case_id\tkind\tt_before\tt_after\tbefore_file\tafter_file\n")
        for case_id, case in jobs:
            f.write(f"{case_id}\t{case.kind.value}\t{case.t_before}\t{case.t_after}"
                    f"\t{case_id}-before.xml\t{case_id}-after.xml\n")
    return manifest
