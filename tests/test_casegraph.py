import dataclasses
import errno
import hashlib
import json
import os
import signal
import threading
from itertools import combinations

import pytest

from corrhist import _cpus, casegraph
from corrhist.casegraph import (
    CaseGraph,
    Edge,
    EdgeType,
    Node,
    NodeLabel,
    _owners_at,
    _wanted,
    build_case_collection,
    build_case_graphs,
    parse_case_graph,
    serialize_case_graph,
)
from corrhist.errors import FormatError, IntegrityError, UnknownTimeError
from corrhist.extract import CorrectionCase, extract_corrections
from corrhist.model import DocumentRecord, Role
from corrhist.snapshot_io import load_history
from corrhist.synth import GeneratorConfig, generate, write_generated

from conftest import hist, snap

T0, T1, T2 = "2020-01-01", "2020-02-01", "2020-03-01"


def edge_set(graph):
    return {(e.edge_type, e.from_id, e.to_id, e.weight) for e in graph.edges}


def node_ids(graph, label):
    return {n.node_id for n in graph.nodes if n.label is label}


def merge_with_coauthor_history():
    docs = {
        "d1": DocumentRecord(
            "d1", title="One", year=2001, venue_key="V", authors=("A", "C")
        ),
        "d2": DocumentRecord(
            "d2", title="Two", year=2002, venue_key="V", authors=("B", "C")
        ),
    }
    venues = {"V": "Venue name"}
    before = {
        "A": [("d1", 0, "A")],
        "B": [("d2", 0, "B")],
        "C": [("d1", 1, "C"), ("d2", 1, "C")],
    }
    after = {
        "A": [("d1", 0, "A"), ("d2", 0, "B")],
        "C": [("d1", 1, "C"), ("d2", 1, "C")],
    }
    return hist(
        snap(T0, before, docs=docs, venues=venues),
        snap(T1, after, docs=docs, venues=venues),
    )


class TestBuild:
    def test_merge_with_coauthor_and_venue(self):
        h = merge_with_coauthor_history()
        (case,) = extract_corrections(h)
        before, after = build_case_graphs(case, h)

        assert before.primary_ids == {"A", "B"}
        assert node_ids(before, NodeLabel.PERSON) == {"A", "B", "C"}
        assert node_ids(before, NodeLabel.DOCUMENT) == {"d1", "d2"}
        assert node_ids(before, NodeLabel.VENUE) == {"V"}
        assert edge_set(before) == {
            (EdgeType.CREATED, "A", "d1", None),
            (EdgeType.CREATED, "B", "d2", None),
            (EdgeType.CREATED, "C", "d1", None),
            (EdgeType.CREATED, "C", "d2", None),
            (EdgeType.CO_CREATED, "A", "C", 1),
            (EdgeType.CO_CREATED, "B", "C", 1),
            (EdgeType.CREATED_AT, "A", "V", 1),
            (EdgeType.CREATED_AT, "B", "V", 1),
            (EdgeType.CREATED_AT, "C", "V", 2),
        }

        assert after.primary_ids == {"A"}
        assert node_ids(after, NodeLabel.PERSON) == {"A", "C"}
        # After-side weights still count pre-correction co-occurrence, so
        # A gains no weight from the document it absorbed.
        assert edge_set(after) == {
            (EdgeType.CREATED, "A", "d1", None),
            (EdgeType.CREATED, "A", "d2", None),
            (EdgeType.CREATED, "C", "d1", None),
            (EdgeType.CREATED, "C", "d2", None),
            (EdgeType.CO_CREATED, "A", "C", 1),
            (EdgeType.CREATED_AT, "A", "V", 1),
            (EdgeType.CREATED_AT, "C", "V", 2),
        }

    def test_solo_paper_without_venue(self):
        docs = {"d1": DocumentRecord("d1", title="Solo", year=1999, authors=("A",))}
        h = hist(
            snap(T0, {"A": [("d1", 0, "A")], "B": [("d2", 0, "B")]}, docs=docs),
            snap(T1, {"A": [("d1", 0, "A"), ("d2", 0, "B")]}, docs=docs),
        )
        (case,) = extract_corrections(h)
        before, _after = build_case_graphs(case, h)
        a_docs = {
            e.to_id for e in before.edges if e.from_id == "A" and e.edge_type is EdgeType.CREATED
        }
        assert a_docs == {"d1"}
        assert node_ids(before, NodeLabel.VENUE) == set()

    def test_shared_docs_weigh_two(self):
        docs = {
            "d1": DocumentRecord("d1", year=2001, authors=("A", "B")),
            "d2": DocumentRecord("d2", year=2002, authors=("A", "B")),
            "d3": DocumentRecord("d3", year=2003, authors=("X",)),
        }
        h = hist(
            snap(
                T0,
                {
                    "A": [("d1", 0, "A"), ("d2", 0, "A")],
                    "B": [("d1", 1, "B"), ("d2", 1, "B")],
                    "X": [("d3", 0, "X")],
                },
                docs=docs,
            ),
            snap(
                T1,
                {
                    "A": [("d1", 0, "A"), ("d2", 0, "A"), ("d3", 0, "X")],
                    "B": [("d1", 1, "B"), ("d2", 1, "B")],
                },
                docs=docs,
            ),
        )
        (case,) = extract_corrections(h)
        before, _ = build_case_graphs(case, h)
        co = [e for e in before.edges if e.edge_type is EdgeType.CO_CREATED]
        assert {(e.from_id, e.to_id, e.weight) for e in co} == {("A", "B", 2)}

    def test_editor_relations(self):
        docs = {
            "d1": DocumentRecord(
                "d1", year=2005, venue_key="V", authors=("W",), editors=("E", "F")
            ),
            "d2": DocumentRecord("d2", year=2006, authors=("Z",)),
        }
        h = hist(
            snap(
                T0,
                {
                    "E": [("d1", 0, "E", Role.EDITOR)],
                    "F": [("d1", 1, "F", Role.EDITOR)],
                    "W": [("d1", 0, "W")],
                    "Z": [("d2", 0, "Z")],
                },
                docs=docs,
                venues={"V": "Venue"},
            ),
            snap(
                T1,
                {
                    "E": [("d1", 0, "E", Role.EDITOR), ("d2", 0, "Z")],
                    "F": [("d1", 1, "F", Role.EDITOR)],
                    "W": [("d1", 0, "W")],
                },
                docs=docs,
                venues={"V": "Venue"},
            ),
        )
        (case,) = extract_corrections(h)
        before, _ = build_case_graphs(case, h)
        edges = edge_set(before)
        assert (EdgeType.CONTRIBUTED, "E", "d1", None) in edges
        assert (EdgeType.CO_CONTRIBUTED, "E", "F", 1) in edges
        assert (EdgeType.CONTRIBUTED_AT, "E", "V", 1) in edges
        assert (EdgeType.CREATED, "W", "d1", None) in edges
        assert not any(e[0] is EdgeType.CO_CREATED for e in edges)

    def test_document_properties_from_latest_observation(self):
        docs_old = {"d1": DocumentRecord("d1", title="Old title", year=2001, authors=("A", "B"))}
        docs_new = {"d1": DocumentRecord("d1", title="Fixed title", year=2001, authors=("A", "B"))}
        h = hist(
            snap(T0, {"A": [("d1", 0, "A")], "B": [("d1", 1, "B")]}, docs=docs_old),
            snap(T1, {"A": [("d1", 0, "A"), ("d1", 1, "B")]}, docs=docs_old),
            snap(T2, {"A": [("d1", 0, "A"), ("d1", 1, "B")]}, docs=docs_new),
        )
        cases = extract_corrections(h)
        (case,) = cases
        before, _ = build_case_graphs(case, h)
        (doc_node,) = [n for n in before.nodes if n.label is NodeLabel.DOCUMENT]
        assert ("title", "Fixed title") in doc_node.properties

    @pytest.mark.parametrize("kept, dropped", [("d1", "d2"), ("d2", "d1")])
    def test_venue_name_comes_from_the_greatest_document_key(self, kept, dropped):
        # ``dropped`` leaves the collection before the venue is renamed, so
        # the two documents resolve the venue's name in different
        # observations.  The document that sorts last decides.
        docs = {
            d: DocumentRecord(d, year=2001, venue_key="V", authors=(name,))
            for d, name in (("d1", "A"), ("d2", "B"))
        }
        first = hist(
            snap(T0, {"A": [("d1", 0, "A")], "B": [("d2", 0, "B")]}, docs=docs, venues={"V": "Old"}),
            snap(T1, {"A": [("d1", 0, "A"), ("d2", 0, "B")]}, docs=docs, venues={"V": "Old"}),
        )
        (case,) = extract_corrections(first)
        holder = {"d1": "A", "d2": "B"}[kept]
        h = hist(
            *first.snapshots,
            snap(T2, {"A": [(kept, 0, holder)]}, docs={kept: docs[kept]}, venues={"V": "New"}),
        )
        for graph in build_case_graphs(case, h):
            (venue,) = [n for n in graph.nodes if n.label is NodeLabel.VENUE]
            assert venue.properties == (("name", "New" if kept == "d2" else "Old"),)

    def test_merge_into_fresh_profile_has_no_weights_for_it(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"C": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        (case,) = extract_corrections(h)
        _, after = build_case_graphs(case, h)
        assert after.primary_ids == {"C"}
        weighted = [e for e in after.edges if e.weight is not None]
        assert weighted == []
        assert (EdgeType.CREATED, "C", "d1", None) in edge_set(after)

    def test_case_state_must_match_observation(self):
        h = merge_with_coauthor_history()
        (case,) = extract_corrections(h)
        wrong = type(case)(
            kind=case.kind,
            t_before=case.t_after,  # points at the post-merge observation
            t_after=case.t_after,
            source_profiles=case.source_profiles,
            target_profiles=case.target_profiles,
        )
        with pytest.raises(IntegrityError):
            build_case_graphs(wrong, h)


DOC_NODE_LISTING = (
    '<node label="DOCUMENT" id="doc1">\n'
    '     <property key="year" value="1999"/>\n'
    '     <property key="title" value="The Ultrasonic Navigating."/>\n'
    "</node>\n"
)


class TestSerialization:
    def test_document_node_listing_bytes(self):
        docs = {
            "doc1": DocumentRecord(
                "doc1", title="The Ultrasonic Navigating.", year=1999, authors=("B. Doe",)
            )
        }
        h = hist(
            snap(T0, {"p1": [("doc1", 0, "B. Doe")], "p2": [("d2", 0, "C")]}, docs=docs),
            snap(T1, {"p1": [("doc1", 0, "B. Doe"), ("d2", 0, "C")]}, docs=docs),
        )
        (case,) = extract_corrections(h)
        before, _ = build_case_graphs(case, h)
        text = serialize_case_graph(before).decode("utf-8")
        assert DOC_NODE_LISTING in text

    def test_primary_flag_and_order(self):
        h = merge_with_coauthor_history()
        (case,) = extract_corrections(h)
        before, _ = build_case_graphs(case, h)
        text = serialize_case_graph(before).decode("utf-8")
        assert '<node label="PERSON" id="A" primary="true">' in text
        doc_pos = text.index('label="DOCUMENT"')
        person_pos = text.index('label="PERSON"')
        venue_pos = text.index('label="VENUE"')
        edge_pos = text.index("<edge ")
        assert doc_pos < person_pos < venue_pos < edge_pos

    def test_round_trip_identity(self):
        h = merge_with_coauthor_history()
        (case,) = extract_corrections(h)
        for graph in build_case_graphs(case, h):
            data = serialize_case_graph(graph)
            parsed = parse_case_graph(data)
            assert parsed.nodes == graph.nodes
            assert parsed.edges == graph.edges
            assert parsed.primary_ids == graph.primary_ids
            assert serialize_case_graph(parsed) == data

    def test_round_trip_on_generated_cases(self):
        history, _log = generate(GeneratorConfig(seed=5, n_persons=150, n_documents=700))
        cases = extract_corrections(history)
        assert cases
        for case in cases:
            for graph in build_case_graphs(case, history):
                data = serialize_case_graph(graph)
                parsed = parse_case_graph(data)
                assert parsed.nodes == graph.nodes
                assert parsed.edges == graph.edges
                assert parsed.primary_ids == graph.primary_ids


    @pytest.mark.parametrize("weight", ["1_0", "\u0661", " 1", "+1", "1.0"])
    def test_weight_must_be_ascii_digits(self, weight):
        h = merge_with_coauthor_history()
        (case,) = extract_corrections(h)
        before, _ = build_case_graphs(case, h)
        data = serialize_case_graph(before)
        assert b' weight="1"/>' in data
        with pytest.raises(FormatError, match="non-integer weight"):
            parse_case_graph(data.replace(b' weight="1"/>', f' weight="{weight}"/>'.encode(), 1))

class TestValidate:
    def person(self, pid, primary=False):
        return Node(NodeLabel.PERSON, pid, (("name", pid),))

    def test_dangling_edge(self):
        g = CaseGraph(
            nodes=frozenset({self.person("a")}),
            edges=frozenset({Edge(EdgeType.CREATED, "a", "ghost")}),
            primary_ids=frozenset({"a"}),
        )
        with pytest.raises(IntegrityError, match="^edge Created a->ghost has a dangling endpoint$"):
            g.validate()

    def test_self_loop(self):
        g = CaseGraph(
            nodes=frozenset({self.person("a")}),
            edges=frozenset({Edge(EdgeType.CO_CREATED, "a", "a", 1)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^self-loop on a$"):
            g.validate()

    def test_duplicate_node_id(self):
        g = CaseGraph(
            nodes=frozenset(
                {self.person("a"), Node(NodeLabel.PERSON, "a", ())}
            ),
            edges=frozenset(),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^duplicate node id 'a'$"):
            g.validate()

    def test_an_id_may_name_one_node_of_each_label(self):
        # A document key, a profile id and a venue key may be equal.
        g = CaseGraph(
            nodes=frozenset({
                self.person("a"), self.person("b"),
                Node(NodeLabel.DOCUMENT, "a", ()), Node(NodeLabel.VENUE, "a", ()),
            }),
            edges=frozenset({
                Edge(EdgeType.CREATED, "a", "a"), Edge(EdgeType.CREATED, "b", "a"),
                Edge(EdgeType.CO_CREATED, "a", "b", 1), Edge(EdgeType.CREATED_AT, "a", "a", 1),
            }),
            primary_ids=frozenset({"a"}),
        )
        g.validate()
        data = serialize_case_graph(g)
        assert data.count(b' primary="true"') == 1
        assert b'<node label="PERSON" id="a" primary="true">' in data
        assert parse_case_graph(data) == g

    def test_only_a_person_node_may_be_marked_primary(self):
        g = CaseGraph(
            nodes=frozenset({self.person("a"), Node(NodeLabel.DOCUMENT, "a", ())}),
            edges=frozenset(),
            primary_ids=frozenset({"a"}),
        )
        data = serialize_case_graph(g).replace(
            b'<node label="DOCUMENT" id="a"', b'<node label="DOCUMENT" id="a" primary="true"'
        )
        with pytest.raises(IntegrityError, match="^primary node 'a' is not a person$"):
            parse_case_graph(data)

    def test_primary_must_be_person(self):
        g = CaseGraph(
            nodes=frozenset({Node(NodeLabel.DOCUMENT, "d", ())}),
            edges=frozenset(),
            primary_ids=frozenset({"d"}),
        )
        with pytest.raises(IntegrityError, match="^primary node 'd' is not a person$"):
            g.validate()

    def test_person_pair_ordering_enforced(self):
        g = CaseGraph(
            nodes=frozenset({self.person("a"), self.person("b")}),
            edges=frozenset({Edge(EdgeType.CO_CREATED, "b", "a", 1)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^CoCreated endpoints must be ordered: b !< a$"):
            g.validate()

    def test_unweighted_edge_with_weight(self):
        g = CaseGraph(
            nodes=frozenset(
                {self.person("a"), Node(NodeLabel.DOCUMENT, "d", ())}
            ),
            edges=frozenset({Edge(EdgeType.CREATED, "a", "d", 2)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^Created edges carry no weight$"):
            g.validate()

    def test_empty_node_id(self):
        g = CaseGraph(frozenset({self.person("")}), frozenset(), frozenset())
        with pytest.raises(IntegrityError, match="^node with empty id$"):
            g.validate()

    def test_duplicate_property_keys(self):
        node = Node(NodeLabel.DOCUMENT, "d", (("year", "2001"), ("title", "T"), ("year", "2002")))
        g = CaseGraph(frozenset({node}), frozenset(), frozenset())
        with pytest.raises(IntegrityError, match="^node d: duplicate property keys$"):
            g.validate()

    def test_primary_id_without_node(self):
        g = CaseGraph(frozenset({self.person("a")}), frozenset(), frozenset({"a", "ghost"}))
        with pytest.raises(IntegrityError, match="^primary id 'ghost' has no node$"):
            g.validate()

    def test_duplicate_edge(self):
        g = CaseGraph(
            nodes=frozenset({self.person("a"), self.person("b")}),
            edges=frozenset(
                {Edge(EdgeType.CO_CREATED, "a", "b", 1), Edge(EdgeType.CO_CREATED, "a", "b", 2)}
            ),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^duplicate edge CoCreated a->b$"):
            g.validate()

    @pytest.mark.parametrize("weight", [None, 0, -1])
    @pytest.mark.parametrize(
        "edge_type, target",
        [
            (EdgeType.CO_CREATED, NodeLabel.PERSON),
            (EdgeType.CO_CONTRIBUTED, NodeLabel.PERSON),
            (EdgeType.CREATED_AT, NodeLabel.VENUE),
            (EdgeType.CONTRIBUTED_AT, NodeLabel.VENUE),
        ],
    )
    def test_weighted_edge_needs_a_positive_weight(self, edge_type, target, weight):
        g = CaseGraph(
            nodes=frozenset({self.person("a"), Node(target, "b", ())}),
            edges=frozenset({Edge(edge_type, "a", "b", weight)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match=f"^{edge_type.value} needs a positive weight$"):
            g.validate()

    @pytest.mark.parametrize(
        "edge_type, weight, source, target, message",
        [
            (EdgeType.CREATED, None, NodeLabel.VENUE, NodeLabel.DOCUMENT, "Created must run person -> document"),
            (EdgeType.CONTRIBUTED, None, NodeLabel.PERSON, NodeLabel.VENUE, "Contributed must run person -> document"),
            (EdgeType.CO_CREATED, 1, NodeLabel.DOCUMENT, NodeLabel.PERSON, "CoCreated must run person -> person"),
            (EdgeType.CO_CONTRIBUTED, 1, NodeLabel.PERSON, NodeLabel.VENUE, "CoContributed must run person -> person"),
            (EdgeType.CREATED_AT, 1, NodeLabel.PERSON, NodeLabel.DOCUMENT, "CreatedAt must run person -> venue"),
            (EdgeType.CONTRIBUTED_AT, 1, NodeLabel.VENUE, NodeLabel.VENUE, "ContributedAt must run person -> venue"),
        ],
    )
    def test_edge_endpoint_labels(self, edge_type, weight, source, target, message):
        g = CaseGraph(
            nodes=frozenset({Node(source, "a", ()), Node(target, "b", ())}),
            edges=frozenset({Edge(edge_type, "a", "b", weight)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match=f"^{message}$"):
            g.validate()

    def test_rules_apply_in_order(self):
        # A weighted Created edge between two documents breaks two rules;
        # the weight rule is checked first, as it always was.
        g = CaseGraph(
            nodes=frozenset({Node(NodeLabel.DOCUMENT, "a", ()), Node(NodeLabel.DOCUMENT, "b", ())}),
            edges=frozenset({Edge(EdgeType.CREATED, "a", "b", 3)}),
            primary_ids=frozenset(),
        )
        with pytest.raises(IntegrityError, match="^Created edges carry no weight$"):
            g.validate()


class TestCollection:
    def test_collection_layout(self, tmp_path):
        history, _log = generate(GeneratorConfig(seed=9, n_persons=150, n_documents=700))
        cases = extract_corrections(history)
        manifest = build_case_collection(cases, history, tmp_path)
        lines = manifest.read_text().splitlines()
        assert lines[0] == "case_id\tkind\tt_before\tt_after\tbefore_file\tafter_file"
        assert len(lines) == len(cases) + 1
        for row, case in zip(lines[1:], cases):
            case_id, kind, t_before, t_after, before_file, after_file = row.split("\t")
            assert kind == case.kind.value
            assert t_before == case.t_before and t_after == case.t_after
            assert case_id.startswith(f"{kind}-{t_before}-")
            for name in (before_file, after_file):
                graph = parse_case_graph((tmp_path / name).read_bytes())
                graph.validate()

    # Usable CPUs, and forks.
    @pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1), (8, 1)])
    def test_collection_bytes_are_pinned(self, cpus, forks, tmp_path, monkeypatch):
        use_cpus(monkeypatch, cpus)
        forked = counted_forks(monkeypatch)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        mask = cpu_mask()
        build_case_collection(extract_corrections(history), history, tmp_path)
        assert len(forked) == forks
        assert collection_digests(tmp_path) == PINNED_COLLECTION_SHA256
        assert cpu_mask() == mask

    def test_each_worker_runs_on_a_cpu_of_its_own(self, tmp_path, monkeypatch):
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("placing two workers needs two usable CPUs")
        placements = tmp_path / "placements.jsonl"
        build = casegraph._case_graphs

        def noted(*args):
            # Forked workers inherit this patch and append to the same file.
            with open(placements, "a") as f:
                f.write(json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]) + "\n")
            return build(*args)

        monkeypatch.setattr(casegraph, "_case_graphs", noted)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        out = tmp_path / "collection"
        build_case_collection(extract_corrections(history), history, out)
        cpus_of = {}
        for line in placements.read_text().splitlines():
            pid, cpus = json.loads(line)
            assert cpus_of.setdefault(pid, cpus) == cpus
        assert len(cpus_of) == 2
        (a,), (b,) = cpus_of.values()
        assert a != b
        assert collection_digests(out) == PINNED_COLLECTION_SHA256

    def test_a_refused_placement_changes_nothing(self, tmp_path, monkeypatch):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("this platform places no process on a CPU")
        use_cpus(monkeypatch, 2)
        cpus = sorted(os.sched_getaffinity(0))
        asked = []

        def refuse(pid, mask):
            asked.append(sorted(set(mask)))
            raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        build_case_collection(extract_corrections(history), history, tmp_path)
        assert collection_digests(tmp_path) == PINNED_COLLECTION_SHA256
        # This process asked for its own CPU, then for its mask back; the
        # worker asked for its CPU in a process of its own.
        assert asked == [cpus[:1], cpus]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_cases_give_a_header_only_manifest(self, workers, tmp_path, monkeypatch):
        use_cpus(monkeypatch, workers)
        forks = counted_forks(monkeypatch)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        manifest = build_case_collection([], history, tmp_path)
        assert manifest.read_text() == (
            "case_id\tkind\tt_before\tt_after\tbefore_file\tafter_file\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["cases.tsv"]
        assert not forks

    def test_one_case_forks_nothing(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        first = min(extract_corrections(history), key=CorrectionCase.sort_key)
        manifest = build_case_collection([first], history, tmp_path)
        assert len(manifest.read_text().splitlines()) == 2
        graphs = collection_digests(tmp_path)
        del graphs["cases.tsv"]
        assert len(graphs) == 2 and graphs.items() <= PINNED_COLLECTION_SHA256.items()
        assert not forks

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)

        def refuse(*args):
            raise AssertionError("forked or placed while another thread runs")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            build_case_collection(extract_corrections(history), history, tmp_path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert collection_digests(tmp_path) == PINNED_COLLECTION_SHA256

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tampered", [(1, 2), (0, 1), (0,), (1,)])
    def test_the_earliest_failing_case_decides_the_error(
        self, tampered, workers, tmp_path, monkeypatch
    ):
        # Some cases of the ordered list list a mention set their observation
        # does not hold.  With two workers the child takes cases 1, 3, ...
        # and this process 0, 2, ...: with cases 1 and 2, the earlier fails
        # in the child and the later here; with cases 0 and 1, the other way
        # round; a single case fails here or in the child alone.
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        ordered = sorted(extract_corrections(history), key=CorrectionCase.sort_key)
        for i in tampered:
            pid, sigs = min(ordered[i].source_profiles.items())
            ordered[i] = dataclasses.replace(
                ordered[i],
                source_profiles={**ordered[i].source_profiles, pid: sigs - {min(sigs)}},
            )
        first = min(tampered)
        use_cpus(monkeypatch, workers)
        mask = cpu_mask()
        with pytest.raises(IntegrityError) as raised:
            build_case_collection(ordered, history, tmp_path)
        assert cpu_mask() == mask
        pid = min(ordered[first].source_profiles)
        assert str(raised.value) == (
            f"case lists profile {pid} with a different mention set than "
            f"the observation at {ordered[first].t_before}"
        )
        assert not (tmp_path / "cases.tsv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_killed_by_a_signal_is_an_error(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        build = casegraph._case_graphs

        def die_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return build(*args)

        monkeypatch.setattr(casegraph, "_case_graphs", die_in_a_child)
        history, _log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        mask = cpu_mask()
        with pytest.raises(ChildProcessError, match=r"killed by signal 9$"):
            build_case_collection(extract_corrections(history), history, tmp_path)
        assert not (tmp_path / "cases.tsv").exists()
        assert cpu_mask() == mask

    def test_brute_force_weight_recount(self):
        history, _log = generate(GeneratorConfig(seed=13, n_persons=150, n_documents=700))
        cases = extract_corrections(history)
        assert cases
        for case in cases:
            before, after = build_case_graphs(case, history)
            for graph, primaries in ((before, case.source_profiles), (after, case.target_profiles)):
                recount_side(graph, case, history, primaries)


def use_cpus(monkeypatch, cpus, module=casegraph):
    """Let ``module`` see a mask of one CPU if ``cpus`` is 1, and of at
    least ``cpus`` CPUs otherwise.  The mask is this process's own, cut to
    its first CPU or repeated, so that placing on it, or giving it back,
    never leaves this process's CPUs."""
    mask = _cpus._cpu_mask()
    fake = mask[:1] if cpus < 2 else mask * cpus
    monkeypatch.setattr(module, "_cpu_mask", lambda: fake)


def cpu_mask():
    """The CPUs this process may run on, where the platform says."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def counted_forks(monkeypatch):
    """Note each ``os.fork`` call of this process in the returned list."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def collection_digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


# ---------------------------------------------------------------------------
# The owner index against the full scans it replaced


def owners_for_docs(snapshot, docs):
    """Who holds which mention slot of ``docs`` in ``snapshot``, by one
    scan of every profile: what case collection did once per observation
    before it kept one index across the history."""
    out = {key: [] for key in docs}
    for pid, prof in snapshot.profiles.items():
        for m in prof.mentions:
            bucket = out.get(m.document_key)
            if bucket is not None:
                bucket.append((m.position, m.role, pid, m.surface))
    return out


def assert_index_matches_full_scans(history, wanted):
    index = _owners_at(history, wanted)
    assert set(index) == set(wanted)
    for time, docs in wanted.items():
        full = owners_for_docs(history.at(time), docs)
        # Each slot has one owner, so sets lose nothing; the order of the
        # entries is not part of the answer.
        assert {d: set(e) for d, e in index[time].items()} == {
            d: set(e) for d, e in full.items()
        }, time
        assert all(len(set(e)) == len(e) for e in index[time].values())


def chained_merge_history():
    """B merges into A in one interval and C in the next: one case spans
    both, and each interval moves a mention between two changed profiles."""
    return hist(
        snap(T0, {"A": [("d1", 0, "Ann")], "B": [("d2", 0, "A. Lee")],
                  "C": [("d3", 0, "Ann Lee")], "D": [("d1", 1, "Dan")]}),
        snap(T1, {"A": [("d1", 0, "Ann"), ("d2", 0, "A. Lee")],
                  "C": [("d3", 0, "Ann Lee")], "D": [("d1", 1, "Dan")]}),
        snap(T2, {"A": [("d1", 0, "Ann"), ("d2", 0, "A. Lee"), ("d3", 0, "Ann Lee")],
                  "D": [("d1", 1, "D. Ray")]}),
    )


class TestOwnerIndex:
    def test_chained_case_reads_the_index_across_two_intervals(self):
        history = chained_merge_history()
        (case,) = extract_corrections(history)
        assert (case.t_before, case.t_after) == (T0, T2)
        assert len(case.chained_from) == 2
        wanted = _wanted([case])
        assert wanted == {T0: {"d1", "d2", "d3"}, T2: {"d1", "d2", "d3"}}
        assert_index_matches_full_scans(history, wanted)
        # D's surface-only rewrite reaches the after side's owner entry.
        assert (1, Role.AUTHOR, "D", "D. Ray") in _owners_at(history, wanted)[T2]["d1"]

    def test_mention_moving_between_two_changed_profiles(self):
        # p1 hands d1[0] to p2 while both profiles stay and both change:
        # applying p2's additions before p1's removals would drop the slot.
        history = hist(
            snap(T0, {"p1": [("d1", 0, "A"), ("d2", 0, "A")], "p2": [("d3", 0, "B")]}),
            snap(T1, {"p1": [("d2", 0, "A")], "p2": [("d1", 0, "A."), ("d3", 0, "B")]}),
        )
        assert history.changed_profiles(0) == {"p1", "p2"}
        wanted = {T0: {"d1", "d2", "d3"}, T1: {"d1", "d2", "d3"}}
        assert_index_matches_full_scans(history, wanted)
        assert _owners_at(history, wanted)[T1]["d1"] == [(0, Role.AUTHOR, "p2", "A.")]

    def test_document_without_owners_and_an_unwanted_first_time(self):
        history = chained_merge_history()
        wanted = {T1: {"d2", "nowhere"}, T2: {"d3"}}
        assert_index_matches_full_scans(history, wanted)
        assert _owners_at(history, wanted)[T1]["nowhere"] == []
        assert _owners_at(history, {}) == {}

    def test_unknown_time_is_an_error(self):
        with pytest.raises(UnknownTimeError, match="no observation at 1999-01-01"):
            _owners_at(chained_merge_history(), {"1999-01-01": {"d1"}})

    @pytest.mark.parametrize("seed", [5, 13, 21])
    def test_generated_cases_in_memory_and_loaded(self, seed, tmp_path):
        history, log = generate(GeneratorConfig(
            seed=seed, n_persons=150, n_documents=700,
            observation_dates=("2015-01-01", "2015-02-01", "2015-03-01", "2015-04-01",
                               "2015-05-01"),
        ))
        cases = extract_corrections(history)
        assert cases
        write_generated(history, log, tmp_path)
        loaded = load_history(tmp_path)
        assert loaded.profile_changes is not None
        assert extract_corrections(loaded) == cases
        for h in (history, loaded):
            assert_index_matches_full_scans(h, _wanted(cases))
            # Every observation after the first, not only the cases' times.
            times = h.times()
            docs = set().union(*_wanted(cases).values())
            assert_index_matches_full_scans(h, {t: docs for t in times[1:]})


# SHA-256 of every file of the case collection of the seed-21 corpus above
# (60 persons, 300 documents), as written before nodes and edges became
# named tuples.  Any change to the collection bytes shows here.
PINNED_COLLECTION_SHA256 = {
    "cases.tsv": "23ded8f88fb0ec417ca6033903160cbaf5590fcf346c696af4a881f777bc8ba7",
    "distribute-2015-01-01-1-after.xml": "a3292959004a66db2f6df0edb5cd5a80a394d5171f56e5d8252c331cf3af1fe3",
    "distribute-2015-01-01-1-before.xml": "2682e8a7f6ddfd6d34628a6b2549484e8f51784d2ce3d7be32f0ea0cc0c1c6a6",
    "distribute-2015-02-01-1-after.xml": "d7c0a94b37fe4b452d2bb6e40441250a812f8fe388ab350b89dcbd0e153aea92",
    "distribute-2015-02-01-1-before.xml": "fa791b0b82af8f87758acd20b6e838831b3ebb1ff8572bddb8c133b28658d3ba",
    "distribute-2015-03-01-1-after.xml": "40d81b670519645d99b87be35e4416d49b1e18792c2cf136a22da72cffb254c1",
    "distribute-2015-03-01-1-before.xml": "0f47da32da5de9795c4f84bd635eb884a3583d1a22b54eea4187e184271b70e9",
    "merge-2015-01-01-1-after.xml": "9c090649ff77835075162497aeb295d218a89c18a19986bbd10566c0435e031e",
    "merge-2015-01-01-1-before.xml": "7c02ba9ab9d15ffc5d9b2bbf24e9288bf7e9550936efd1cfd481e1135c95b4a0",
    "merge-2015-01-01-2-after.xml": "78073eadb7049daaa46dac75e2217d76052f41fc720e7949e8611fb154408c45",
    "merge-2015-01-01-2-before.xml": "fa3e1ebf82c6a8cfa408eb6751c8d5cb9bc96ef7883006fd53c7696c5ed3c72d",
    "merge-2015-02-01-1-after.xml": "843a0e08a9c141e49b622d41d36c7f5e74a7213e772ecf5b2f06a4603cdb4740",
    "merge-2015-02-01-1-before.xml": "712811570104f8269abcf076e89b2f2985f35630c575d5723a9b99dae0e72308",
    "merge-2015-02-01-2-after.xml": "d9c7c7529736b6ae431169e81dec33894b93da5989f99aa366139eb8b3b9f12c",
    "merge-2015-02-01-2-before.xml": "41ad09f88201648b85a5e7904aa28d1a6422d99b1d80aae8df2048d2f27466bf",
    "merge-2015-03-01-1-after.xml": "9c1eef3b1bfd0a0f2576fc60a33254641891c0f4928a03b3e968f0e02745fa9c",
    "merge-2015-03-01-1-before.xml": "8776b1ec07db606748f40a5dbaa0c299eb5f8bff8ac918003bebd763a34cfb53",
    "merge-2015-03-01-2-after.xml": "bb338e6a1403bac44ff7aae105517ac7182053af32e321068c8f63a80ab3441d",
    "merge-2015-03-01-2-before.xml": "0dbdb5e96cbeb9951327c1d27870d32870d4f49b4cba12197ababfe6620e0fce",
    "split-2015-01-01-1-after.xml": "bd411fa03a2f154427c5b31eb1f446ddf5c96ef350e2eb4a64b8cfc224babf79",
    "split-2015-01-01-1-before.xml": "48f31afd45411ad7636657178779d66f2701c31caa22dda6fef0725f975357bc",
    "split-2015-02-01-1-after.xml": "83be6243b45cef7e4408b3220a55abb8a55c0dd333d016bdca2a5f40b2a5493e",
    "split-2015-02-01-1-before.xml": "e25c1c4f90d4c95be7f0b4c24c3ff55c09d96c9f7edbfdaa194a1aeb32ec6d79",
    "split-2015-03-01-1-after.xml": "2a1031e76d003d8365dc71bf7181f38874d43c4bdb23910665f397e42cee0b4d",
    "split-2015-03-01-1-before.xml": "f4b804cea49d423d5360e2e0c4ebf0f5d99a2b1b0460c61abcd58e331ab138fb",
}


def recount_side(graph, case, history, primary_mentions):
    """Recompute the graph's persons, documents and every edge straight
    from the snapshots, one document at a time."""
    side_time = case.t_before if primary_mentions is case.source_profiles else case.t_after
    side = history.at(side_time)
    before = history.at(case.t_before)
    included_docs = {
        n.node_id for n in graph.nodes if n.label is NodeLabel.DOCUMENT
    }
    expected_docs = {
        m.document_key for sigs in primary_mentions.values() for m in sigs
    }
    assert included_docs == expected_docs

    persons = {n.node_id for n in graph.nodes if n.label is NodeLabel.PERSON}
    expected_persons = set()
    for pid, prof in side.profiles.items():
        if any(m.document_key in included_docs for m in prof.mentions):
            expected_persons.add(pid)
    assert persons == expected_persons

    expected = set()
    for pid, prof in side.profiles.items():
        for m in prof.mentions:
            if m.document_key in included_docs:
                edge_type = EdgeType.CREATED if m.role is Role.AUTHOR else EdgeType.CONTRIBUTED
                expected.add((edge_type, pid, m.document_key, None))

    weights = {}
    for doc in included_docs:
        latest = next(s for s in reversed(history.snapshots) if doc in s.documents)
        venue = latest.documents[doc].venue_key
        for role, co_type, at_type in (
            (Role.AUTHOR, EdgeType.CO_CREATED, EdgeType.CREATED_AT),
            (Role.EDITOR, EdgeType.CO_CONTRIBUTED, EdgeType.CONTRIBUTED_AT),
        ):
            members = set()
            for pid, prof in before.profiles.items():
                if pid not in persons:
                    continue
                for m in prof.mentions:
                    if m.document_key == doc and m.role is role:
                        members.add(pid)
            keys = [(co_type, x, y) for x, y in combinations(sorted(members), 2)]
            if venue is not None:
                keys += [(at_type, x, venue) for x in members]
            for key in keys:
                weights[key] = weights.get(key, 0) + 1
    expected |= {(t, x, y, w) for (t, x, y), w in weights.items()}
    assert edge_set(graph) == expected
