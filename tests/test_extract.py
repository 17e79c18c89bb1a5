import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrhist.errors import UnknownTimeError
from corrhist.extract import (
    CorrectionKind,
    assign_case_ids,
    case_summary_lines,
    extract_corrections,
    is_consistent_predecessor,
    raw_groups_between,
    reference_predecessors,
    reference_successors,
)
from corrhist.model import DocumentRecord, History, Role, Snapshot
from corrhist.snapshot_io import load_history, write_history

from conftest import hist, snap

T0, T1, T2, T3 = "2020-01-01", "2020-02-01", "2020-03-01", "2020-04-01"


def groups_of(kind, history, t1, t2):
    """The raw groups of one kind between the observations at t1 and t2."""
    groups = raw_groups_between(history.at(t1), history.at(t2))
    return [g for g in groups if g.kind is kind]


def groups_as_sets(groups):
    return {
        (g.kind, frozenset(g.sources), frozenset(g.targets)) for g in groups
    }


class TestReferenceRelations:
    def test_predecessors_share_a_mention(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        assert reference_predecessors(h, "A", T0, T1) == {"A", "B"}
        assert reference_successors(h, "A", T0, T1) == {"A"}
        assert reference_successors(h, "B", T0, T1) == {"A"}

    def test_mention_identity_ignores_surface(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "J. Doe")]}),
            snap(T1, {"A": [("d1", 0, "John Doe")]}),
        )
        assert reference_predecessors(h, "A", T0, T1) == {"A"}

    def test_consistent_predecessor_examples(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d1", 1, "Y")], "E": [("d9", 0, "Q")]}),
            snap(T1, {"A": [("d1", 0, "X")], "E": [("d9", 0, "Q")]}),
        )
        # missing profile reads as the empty set: subset of anything
        assert is_consistent_predecessor(h, "ghost", T0, "A", T1)
        assert is_consistent_predecessor(h, "E", T0, "E", T1)
        assert not is_consistent_predecessor(h, "A", T0, "A", T1)

    def test_unobserved_times_error(self):
        h = hist(snap(T0, {"A": [("d1", 0, "X")]}), snap(T1, {"A": [("d1", 0, "X")]}))
        with pytest.raises(UnknownTimeError):
            reference_predecessors(h, "A", T0, "1999-01-01")
        with pytest.raises(UnknownTimeError):
            groups_of(CorrectionKind.MERGE, h, "1999-01-01", T1)


class TestMergeGroups:
    def test_basic_merge(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        groups = groups_of(CorrectionKind.MERGE, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.MERGE, frozenset({"A", "B"}), frozenset({"A"}))
        }

    def test_nonempty_predecessor_blocks_merge(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y"), ("d3", 0, "Z")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")], "B": [("d3", 0, "Z")]}),
        )
        assert groups_of(CorrectionKind.MERGE, h, T0, T1) == []

    def test_identical_snapshots_no_groups(self):
        state = {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}
        h = hist(snap(T0, state), snap(T1, state))
        assert groups_of(CorrectionKind.MERGE, h, T0, T1) == []
        assert groups_of(CorrectionKind.SPLIT, h, T0, T1) == []
        assert groups_of(CorrectionKind.DISTRIBUTE, h, T0, T1) == []

    def test_merge_into_fresh_profile(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"C": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        groups = groups_of(CorrectionKind.MERGE, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.MERGE, frozenset({"A", "B"}), frozenset({"C"}))
        }

    def test_three_way_merge(self):
        h = hist(
            snap(
                T0,
                {
                    "A": [("d1", 0, "X")],
                    "B": [("d2", 0, "Y")],
                    "C": [("d3", 0, "Z")],
                },
            ),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y"), ("d3", 0, "Z")]}),
        )
        groups = groups_of(CorrectionKind.MERGE, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.MERGE, frozenset({"A", "B", "C"}), frozenset({"A"}))
        }


class TestSplitGroups:
    def test_basic_split(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
            snap(T1, {"A": [("d1", 0, "X")], "C": [("d2", 0, "Y")]}),
        )
        groups = groups_of(CorrectionKind.SPLIT, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.SPLIT, frozenset({"A"}), frozenset({"A", "C"}))
        }

    def test_split_where_source_disappears(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
            snap(T1, {"B": [("d1", 0, "X")], "C": [("d2", 0, "Y")]}),
        )
        groups = groups_of(CorrectionKind.SPLIT, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.SPLIT, frozenset({"A"}), frozenset({"B", "C"}))
        }

    def test_existing_successor_blocks_split(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d2", 0, "Y")], "C": [("d3", 0, "Z")]}),
            snap(
                T1,
                {"A": [("d1", 0, "X")], "C": [("d2", 0, "Y"), ("d3", 0, "Z")]},
            ),
        )
        assert groups_of(CorrectionKind.SPLIT, h, T0, T1) == []


class TestDistributes:
    def test_basic_distribute(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d1", 1, "Y")], "B": [("d2", 0, "Z")]}),
            snap(T1, {"A": [("d1", 0, "X")], "B": [("d1", 1, "Y"), ("d2", 0, "Z")]}),
        )
        groups = groups_of(CorrectionKind.DISTRIBUTE, h, T0, T1)
        assert groups_as_sets(groups) == {
            (CorrectionKind.DISTRIBUTE, frozenset({"A", "B"}), frozenset({"A", "B"}))
        }

    def test_merge_is_not_a_distribute(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        assert groups_of(CorrectionKind.DISTRIBUTE, h, T0, T1) == []

    def test_profile_id_handover_is_not_a_correction(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X"), ("d2", 0, "Y")]}),
            snap(T1, {"B": [("d1", 0, "X"), ("d2", 0, "Y")]}),
        )
        assert raw_groups_between(h.snapshots[0], h.snapshots[1]) == []

    def test_surface_only_rename_is_not_a_correction(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "J. Doe"), ("d2", 0, "J. Doe")]}),
            snap(T1, {"A": [("d1", 0, "John Doe"), ("d2", 0, "John Doe")]}),
        )
        assert raw_groups_between(h.snapshots[0], h.snapshots[1]) == []

    def test_coalesced_merge_and_distribute(self):
        # One interval holds both a merge of B into A and a move from A
        # to C; the merge must not swallow the A-C exchange.
        h = hist(
            snap(
                T0,
                {
                    "A": [("d1", 0, "X"), ("d1", 1, "Y")],
                    "B": [("d2", 0, "Z")],
                    "C": [("d3", 0, "W")],
                },
            ),
            snap(
                T1,
                {
                    "A": [("d1", 0, "X"), ("d2", 0, "Z")],
                    "C": [("d3", 0, "W"), ("d1", 1, "Y")],
                },
            ),
        )
        groups = raw_groups_between(h.snapshots[0], h.snapshots[1])
        assert groups_as_sets(groups) == {
            (CorrectionKind.MERGE, frozenset({"A", "B"}), frozenset({"A"})),
            (CorrectionKind.DISTRIBUTE, frozenset({"A", "C"}), frozenset({"A", "C"})),
        }


class TestChaining:
    def two_merge_history(self):
        return hist(
            snap(T0, {"p1": [("d1", 0, "X")], "p2": [("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T1, {"p1": [("d1", 0, "X"), ("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T2, {"p1": [("d1", 0, "X"), ("d2", 0, "Y"), ("d3", 0, "Z")]}),
        )

    def test_adjacent_merges_chain_into_one_case(self):
        cases = extract_corrections(self.two_merge_history())
        assert len(cases) == 1
        case = cases[0]
        assert case.kind is CorrectionKind.MERGE
        assert case.profiles == frozenset({"p1", "p2", "p3"})
        assert case.t_before == T0 and case.t_after == T2
        assert set(case.source_profiles) == {"p1", "p2", "p3"}
        assert set(case.target_profiles) == {"p1"}

    def test_disjoint_merges_stay_separate(self):
        h = hist(
            snap(
                T0,
                {
                    "p1": [("d1", 0, "X")],
                    "p2": [("d2", 0, "Y")],
                    "q1": [("d3", 0, "Z")],
                    "q2": [("d4", 0, "W")],
                },
            ),
            snap(
                T1,
                {
                    "p1": [("d1", 0, "X"), ("d2", 0, "Y")],
                    "q1": [("d3", 0, "Z")],
                    "q2": [("d4", 0, "W")],
                },
            ),
            snap(
                T2,
                {
                    "p1": [("d1", 0, "X"), ("d2", 0, "Y")],
                    "q1": [("d3", 0, "Z"), ("d4", 0, "W")],
                },
            ),
        )
        cases = extract_corrections(h)
        assert len(cases) == 2
        assert {c.profiles for c in cases} == {
            frozenset({"p1", "p2"}),
            frozenset({"q1", "q2"}),
        }

    def test_gap_between_intervals_blocks_chaining(self):
        h = hist(
            snap(T0, {"p1": [("d1", 0, "X")], "p2": [("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T1, {"p1": [("d1", 0, "X"), ("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T2, {"p1": [("d1", 0, "X"), ("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T3, {"p1": [("d1", 0, "X"), ("d2", 0, "Y"), ("d3", 0, "Z")]}),
        )
        cases = extract_corrections(h)
        assert len(cases) == 2
        assert {(c.t_before, c.t_after) for c in cases} == {(T0, T1), (T2, T3)}

    def test_mixed_kind_chain_becomes_distribute(self):
        h = hist(
            snap(T0, {"p1": [("d1", 0, "X")], "p2": [("d2", 0, "Y")]}),
            snap(T1, {"p1": [("d1", 0, "X"), ("d2", 0, "Y")]}),
            snap(T2, {"p1": [("d1", 0, "X")], "p4": [("d2", 0, "Y")]}),
        )
        cases = extract_corrections(h)
        assert len(cases) == 1
        case = cases[0]
        assert case.kind is CorrectionKind.DISTRIBUTE
        assert case.profiles == frozenset({"p1", "p2", "p4"})
        assert set(case.source_profiles) == {"p1", "p2"}
        assert set(case.target_profiles) == {"p1", "p4"}


class TestExtract:
    def test_single_snapshot_errors(self):
        h = hist(snap(T0, {"A": [("d1", 0, "X")]}))
        with pytest.raises(ValueError):
            extract_corrections(h)

    def test_no_changes_no_cases(self):
        state = {"A": [("d1", 0, "X")]}
        h = hist(snap(T0, state), snap(T1, state), snap(T2, state))
        assert extract_corrections(h) == []

    def test_new_mentions_flagged(self):
        h = hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}),
            snap(
                T1,
                {"A": [("d1", 0, "X"), ("d2", 0, "Y"), ("d9", 0, "X")]},
            ),
        )
        (case,) = extract_corrections(h)
        assert case.new_mentions == frozenset({("d9", 0, Role.AUTHOR)})

    def test_outside_donor_turns_merge_into_distribute(self):
        # Z donates d9 to A in the same interval B empties into A.  Z is
        # then a nonempty reference predecessor of A, so no pure merge
        # exists; the whole tangle is one distribute and nothing is "new".
        h = hist(
            snap(
                T0,
                {
                    "A": [("d1", 0, "X")],
                    "B": [("d2", 0, "Y")],
                    "Z": [("d9", 0, "Q"), ("d8", 0, "R")],
                },
            ),
            snap(
                T1,
                {
                    "A": [("d1", 0, "X"), ("d2", 0, "Y"), ("d9", 0, "Q")],
                    "Z": [("d8", 0, "R")],
                },
            ),
        )
        (case,) = extract_corrections(h)
        assert case.kind is CorrectionKind.DISTRIBUTE
        assert case.profiles == frozenset({"A", "B", "Z"})
        assert set(case.source_profiles) == {"A", "B", "Z"}
        assert set(case.target_profiles) == {"A", "Z"}
        assert not case.new_mentions

    def test_new_mentions_in_chained_case(self):
        # The second merge interval also brings a brand-new document d9.
        h = hist(
            snap(T0, {"p1": [("d1", 0, "X")], "p2": [("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(T1, {"p1": [("d1", 0, "X"), ("d2", 0, "Y")], "p3": [("d3", 0, "Z")]}),
            snap(
                T2,
                {"p1": [("d1", 0, "X"), ("d2", 0, "Y"), ("d3", 0, "Z"), ("d9", 0, "X")]},
            ),
        )
        (case,) = extract_corrections(h)
        assert case.kind is CorrectionKind.MERGE
        assert case.new_mentions == frozenset({("d9", 0, Role.AUTHOR)})

    def test_parallel_output_is_identical(self):
        h = self._shuffled_history()
        serial = extract_corrections(h, max_workers=1)
        threaded = extract_corrections(h, max_workers=4)
        assert serial == threaded

    @staticmethod
    def _shuffled_history():
        return hist(
            snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")], "C": [("d3", 0, "Z"), ("d4", 0, "W")]}),
            snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y")], "C": [("d3", 0, "Z"), ("d4", 0, "W")]}),
            snap(T2, {"A": [("d1", 0, "X"), ("d2", 0, "Y")], "C": [("d3", 0, "Z")], "D": [("d4", 0, "W")]}),
        )

    def test_case_ids_and_summary(self):
        cases = extract_corrections(self._shuffled_history())
        ids = assign_case_ids(cases)
        assert len(ids) == len(cases) == 2
        assert ids[0].startswith("merge-2020-01-01-")
        assert ids[1].startswith("split-2020-02-01-")
        lines = list(case_summary_lines(cases))
        assert lines[0] == "kind\tt_before\tt_after\tprofiles\tmentions"
        assert len(lines) == 3


def _partition_history(assign1, assign2, n_profiles):
    """Two snapshots assigning the same mention universe to profiles."""
    mentions = [(f"d{i // 2}", i % 2) for i in range(len(assign1))]

    def build(assignment):
        profiles = {}
        for (doc, pos), owner in zip(mentions, assignment):
            profiles.setdefault(f"p{owner}", []).append((doc, pos, "S"))
        return profiles

    return hist(snap(T0, build(assign1)), snap(T1, build(assign2)))


@st.composite
def reassignments(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=1, max_value=4))
    a1 = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    a2 = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return a1, a2, k


@given(reassignments())
@settings(max_examples=200, deadline=None)
def test_duality_on_random_reassignments(data):
    a1, a2, k = data
    forward = _partition_history(a1, a2, k)
    backward = _partition_history(a2, a1, k)
    merges = groups_as_sets(groups_of(CorrectionKind.MERGE, forward, T0, T1))
    splits = groups_as_sets(groups_of(CorrectionKind.SPLIT, backward, T0, T1))
    assert {
        (CorrectionKind.SPLIT, t, s) for (_k, s, t) in merges
    } == splits
    for pid in (f"p{i}" for i in range(k)):
        assert reference_successors(forward, pid, T0, T1) == reference_predecessors(
            backward, pid, T0, T1
        )


@given(reassignments())
@settings(max_examples=200, deadline=None)
def test_detectors_are_disjoint_and_deterministic(data):
    a1, a2, k = data
    h = _partition_history(a1, a2, k)
    merges = groups_of(CorrectionKind.MERGE, h, T0, T1)
    splits = groups_of(CorrectionKind.SPLIT, h, T0, T1)
    distributes = groups_of(CorrectionKind.DISTRIBUTE, h, T0, T1)
    sets = [groups_as_sets(merges), groups_as_sets(splits), groups_as_sets(distributes)]
    profile_sets = [
        {frozenset(s | t) for (_k, s, t) in one} for one in sets
    ]
    assert not (profile_sets[0] & profile_sets[1])
    assert not (profile_sets[0] & profile_sets[2])
    assert not (profile_sets[1] & profile_sets[2])
    again = raw_groups_between(h.snapshots[0], h.snapshots[1])
    assert again == raw_groups_between(h.snapshots[0], h.snapshots[1])
    assert groups_as_sets(again) == sets[0] | sets[1] | sets[2]
    cases = extract_corrections(h)
    assert cases == extract_corrections(h, max_workers=3)
    for case in cases:
        case.check()


@st.composite
def open_slot_histories(draw):
    """Author slot counts of a few documents, and two to four observations
    in which each slot is held by one of a few profiles or by nobody.  The
    holders are drawn afresh each time, so unclaimed slots get taken and
    held ones are freed."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    slots = [(f"d{i}", pos) for i, n in enumerate(sizes) for pos in range(n)]
    holders = st.lists(
        st.sampled_from([None, "A", "B", "C", "Z"]), min_size=len(slots), max_size=len(slots)
    )
    states = []
    for _ in range(draw(st.integers(2, 4))):
        state = {}
        for (doc, pos), pid in zip(slots, draw(holders)):
            if pid is not None:
                state.setdefault(pid, []).append((doc, pos, f"S{pos}"))
        states.append(state)
    return sizes, states


def _full_scan_new_mentions(history, case):
    """The target mention keys that no profile held at ``t_before``."""
    held = {
        m.key
        for prof in history.at(case.t_before).profiles.values()
        for m in prof.mentions
    }
    targets = {m.key for sigs in case.target_profiles.values() for m in sigs}
    return targets - held


# d9 is held at the first date by Z, outside the A-B-C case, and moves to C
# in the second interval.
_OUTSIDE_HOLDER = (
    [1] * 10,
    [
        {"A": [("d1", 0, "S0"), ("d3", 0, "S0")], "B": [("d2", 0, "S0")],
         "Z": [("d8", 0, "S0"), ("d9", 0, "S0")]},
        {"A": [("d1", 0, "S0"), ("d2", 0, "S0"), ("d3", 0, "S0")],
         "Z": [("d8", 0, "S0"), ("d9", 0, "S0")]},
        {"A": [("d1", 0, "S0"), ("d2", 0, "S0")], "C": [("d3", 0, "S0"), ("d9", 0, "S0")],
         "Z": [("d8", 0, "S0")]},
    ],
)


def _open_slot_history(sizes, states):
    docs = {
        f"d{i}": DocumentRecord(f"d{i}", title="T", year=2001,
                                authors=tuple(f"S{pos}" for pos in range(n)))
        for i, n in enumerate(sizes)
    }
    return hist(*(snap(t, state, docs) for t, state in zip((T0, T1, T2, T3), states)))


@given(open_slot_histories())
@example(_OUTSIDE_HOLDER)
@settings(max_examples=200, deadline=None)
def test_new_mentions_are_the_target_mentions_nobody_held_before(data):
    # Once as built in memory, where the change sets come from comparing
    # profile maps, and once loaded, where the reader records them.
    built = _open_slot_history(*data)
    with tempfile.TemporaryDirectory() as directory:
        write_history(built, directory)
        loaded = load_history(directory)
    assert loaded.profile_changes is not None
    for history in (built, loaded):
        for case in extract_corrections(history):
            assert case.new_mentions == _full_scan_new_mentions(history, case)


def test_a_mention_held_outside_the_case_is_not_new():
    cases = extract_corrections(_open_slot_history(*_OUTSIDE_HOLDER))
    assert [(c.kind, c.profiles, c.t_before, c.t_after, c.new_mentions) for c in cases] == [
        (CorrectionKind.DISTRIBUTE, frozenset("ABC"), T0, T2, frozenset()),
        (CorrectionKind.SPLIT, frozenset("CZ"), T1, T2, frozenset()),
    ]


class _Unlistable(dict):
    """A profile map that answers lookups and refuses to be listed."""

    def _refuse(self, *args):
        raise AssertionError("a whole profile map was scanned")

    __iter__ = keys = values = items = _refuse


def test_extraction_never_scans_a_whole_profile_map():
    # d9 is a slot of an existing document that nobody held at T0.
    d9 = DocumentRecord("d9", title="T", year=2001, authors=("Q",))
    s0 = snap(T0, {"A": [("d1", 0, "X")], "B": [("d2", 0, "Y")]}, {"d9": d9})
    s1 = snap(T1, {"A": [("d1", 0, "X"), ("d2", 0, "Y"), ("d9", 0, "Q")]})
    h = History(
        tuple(Snapshot(s.time, _Unlistable(s.profiles), s.documents) for s in (s0, s1)),
        profile_changes=(frozenset({"A", "B"}),),
    )
    (case,) = extract_corrections(h)
    assert case.kind is CorrectionKind.MERGE
    assert case.new_mentions == frozenset({("d9", 0, Role.AUTHOR)})
