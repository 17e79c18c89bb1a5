import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrhist.blocking import (
    ALL_VARIANTS,
    BlockingVariant,
    CaseMode,
    KeyScheme,
    blocking_key,
    blocking_report_lines,
    hit_rate,
    name_pairs,
    representative_surface,
    strip_homonym_suffix,
)
from corrhist.extract import extract_corrections

from conftest import hist, snap

IL_CONSIDER = BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.CONSIDER)
LO_CONSIDER = BlockingVariant(KeyScheme.LAST_ONLY, CaseMode.CONSIDER)
IL_IGNORE = BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.IGNORE)
LO_IGNORE = BlockingVariant(KeyScheme.LAST_ONLY, CaseMode.IGNORE)


class TestKeys:
    def test_worked_examples(self):
        assert blocking_key("John Doe", LO_CONSIDER) == "Doe"
        assert blocking_key("John A. Doe", IL_CONSIDER) == "J. Doe"
        assert blocking_key("Wei Wang 0050", IL_IGNORE) == "w. wang"

    def test_middle_names_ignored(self):
        assert blocking_key("John A. B. Doe", IL_CONSIDER) == "J. Doe"
        assert blocking_key("John A. B. Doe", LO_CONSIDER) == "Doe"

    def test_initial_of_initial(self):
        assert blocking_key("J. Doe", IL_CONSIDER) == "J. Doe"

    def test_suffix_stripping(self):
        assert strip_homonym_suffix("Wei Wang 0050") == "Wei Wang"
        assert strip_homonym_suffix("Wei Wang 123") == "Wei Wang 123"
        assert strip_homonym_suffix("Wei Wang") == "Wei Wang"
        assert blocking_key("Wei Wang 0050", LO_CONSIDER) == "Wang"
        assert blocking_key("Wei Wang 0050", LO_CONSIDER, strip_suffix=False) == "0050"

    def test_single_token_name(self):
        assert blocking_key("Cher", LO_CONSIDER) == "Cher"
        assert blocking_key("Cher", IL_CONSIDER) == "C. Cher"

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            blocking_key("   ", LO_CONSIDER)
        # The message quotes the surface as given, not what stripping left.
        with pytest.raises(ValueError, match=r"no name tokens left to key in ' 0050'$"):
            blocking_key(" 0050", LO_CONSIDER)

    def test_variant_labels(self):
        assert [v.label for v in ALL_VARIANTS] == [
            "initial+last (consider case)",
            "last (consider case)",
            "initial+last (ignore case)",
            "last (ignore case)",
        ]


class TestRepresentative:
    def test_modal_surface_wins(self):
        assert (
            representative_surface(["B. Doe", "Bob Doe", "Bob Doe"]) == "Bob Doe"
        )

    def test_tie_breaks_lexicographically(self):
        assert representative_surface(["Z. Doe", "A. Doe"]) == "A. Doe"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            representative_surface([])


class TestNamePairs:
    def pair_history(self):
        return hist(
            snap(
                "2020-01-01",
                {
                    "A": [("d1", 0, "Ann Lee")],
                    "B": [("d2", 0, "A. Lee")],
                    "C": [("d3", 0, "Anna Lee")],
                    "S": [("d4", 0, "Sam罗"), ("d5", 0, "Sam Roe")],
                },
            ),
            snap(
                "2020-02-01",
                {
                    "A": [("d1", 0, "Ann Lee"), ("d2", 0, "A. Lee"), ("d3", 0, "Anna Lee")],
                    "S": [("d4", 0, "Sam 罗")],
                    "T": [("d5", 0, "Sam Roe")],
                },
            ),
        )

    def test_merge_of_three_profiles_yields_three_pairs(self):
        cases = extract_corrections(self.pair_history())
        merge = [c for c in cases if c.kind.value == "merge"]
        pairs = name_pairs(merge)
        assert len(pairs) == 3
        assert ("A. Lee", "Ann Lee") in pairs

    def test_split_cases_are_excluded(self):
        cases = extract_corrections(self.pair_history())
        split_only = [c for c in cases if c.kind.value == "split"]
        assert split_only
        assert name_pairs(split_only) == []

    def test_pairs_are_sorted_within(self):
        cases = extract_corrections(self.pair_history())
        for a, b in name_pairs(cases):
            assert a <= b

    def test_identical_representatives_kept(self):
        h = hist(
            snap(
                "2020-01-01",
                {"A": [("d1", 0, "Bo Li")], "B": [("d2", 0, "Bo Li")]},
            ),
            snap("2020-02-01", {"A": [("d1", 0, "Bo Li"), ("d2", 0, "Bo Li")]}),
        )
        pairs = name_pairs(extract_corrections(h))
        assert pairs == [("Bo Li", "Bo Li")]
        assert hit_rate(pairs, LO_CONSIDER) == 1.0


class TestHitRate:
    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            hit_rate([], LO_CONSIDER)

    def test_known_rates(self):
        pairs = [
            ("Ann Lee", "A. Lee"),      # hits all four variants
            ("Ann Lee", "ann lee"),     # hits only ignore-case variants
            ("Ann Lee", "Ann Chen"),    # hits none
            ("Anna Lee", "A. Lee"),     # hits all four
        ]
        assert hit_rate(pairs, IL_CONSIDER) == 0.5
        assert hit_rate(pairs, LO_CONSIDER) == 0.5
        assert hit_rate(pairs, IL_IGNORE) == 0.75
        assert hit_rate(pairs, LO_IGNORE) == 0.75

    def test_report_lines(self):
        pairs = [("Ann Lee", "A. Lee")]
        lines = list(blocking_report_lines([("all", pairs), ("none", [])]))
        assert lines[0].split("\t") == [
            "subset",
            "pairs",
            "initial+last (consider case)",
            "last (consider case)",
            "initial+last (ignore case)",
            "last (ignore case)",
        ]
        assert lines[1] == "all\t1\t100.00\t100.00\t100.00\t100.00"
        assert lines[2] == "none\t0\t-\t-\t-\t-"


_name = st.builds(
    lambda first, last, mid: f"{first}{mid} {last}",
    st.sampled_from(["Ann", "ann", "A.", "Bob", "B.", "bob", "Chen", "Wei"]),
    st.sampled_from(["Lee", "lee", "Doe", "Wang", "wang", "Chen"]),
    st.sampled_from(["", " X.", " A.", " von"]),
)


@given(st.lists(st.tuples(_name, _name), min_size=1, max_size=30))
@settings(max_examples=250, deadline=None)
def test_coarsening_monotonicity(pairs):
    for scheme in KeyScheme:
        consider = hit_rate(pairs, BlockingVariant(scheme, CaseMode.CONSIDER))
        ignore = hit_rate(pairs, BlockingVariant(scheme, CaseMode.IGNORE))
        assert ignore >= consider
    for mode in CaseMode:
        initial = hit_rate(pairs, BlockingVariant(KeyScheme.INITIAL_LAST, mode))
        last = hit_rate(pairs, BlockingVariant(KeyScheme.LAST_ONLY, mode))
        assert last >= initial
