import gc
import hashlib
import re

import pytest

from corrhist import synth
from corrhist.errors import PlanError
from corrhist.extract import extract_corrections
from corrhist.model import DocumentRecord, Role
from corrhist.snapshot_io import load_history, write_snapshot
from corrhist.synth import (
    EditKind,
    EditRecord,
    GeneratorConfig,
    apply_edit,
    default_dates,
    generate,
    ground_truth_lines,
    write_generated,
)

from conftest import snap

A = Role.AUTHOR


def small_config(**overrides):
    base = dict(
        seed=3,
        n_persons=60,
        n_documents=260,
        observation_dates=default_dates(3),
        merges=2,
        splits=1,
        distributes=1,
        renames=1,
        new_publications=1,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestApplyEdit:
    def base(self):
        return snap(
            "2020-01-01",
            {
                "A": [("d1", 0, "Ann Lee"), ("d2", 0, "A. Lee")],
                "B": [("d3", 0, "Ann B. Lee")],
                "C": [("d1", 1, "Carl Roe"), ("d4", 0, "C. Roe")],
            },
        )

    def test_merge_empties_and_removes_sources(self):
        edit = EditRecord(
            EditKind.MERGE,
            ("A", "B"),
            moves=((("d3", 0, A), "B", "A"),),
        )
        after = apply_edit(self.base(), edit)
        after.validate()
        assert "B" not in after.profiles
        assert {m.key for m in after.mentions_of("A")} == {
            ("d1", 0, A),
            ("d2", 0, A),
            ("d3", 0, A),
        }

    def test_split_creates_fresh_profile(self):
        edit = EditRecord(
            EditKind.SPLIT,
            ("C", "Z"),
            moves=((("d4", 0, A), "C", "Z"),),
        )
        after = apply_edit(self.base(), edit)
        after.validate()
        assert {m.key for m in after.mentions_of("C")} == {("d1", 1, A)}
        assert {m.key for m in after.mentions_of("Z")} == {("d4", 0, A)}

    def test_move_of_unheld_mention_rejected(self):
        edit = EditRecord(
            EditKind.MERGE, ("A", "B"), moves=((("d9", 0, A), "B", "A"),)
        )
        with pytest.raises(PlanError, match="not held"):
            apply_edit(self.base(), edit)

    def test_correction_without_moves_rejected(self):
        with pytest.raises(PlanError, match="without moves"):
            apply_edit(self.base(), EditRecord(EditKind.MERGE, ("A", "B")))

    def test_distribute_must_not_empty_participant(self):
        edit = EditRecord(
            EditKind.DISTRIBUTE,
            ("B", "C"),
            moves=((("d3", 0, A), "B", "C"),),
        )
        with pytest.raises(PlanError, match="empty"):
            apply_edit(self.base(), edit)

    def test_distribute_participant_must_exist(self):
        edit = EditRecord(
            EditKind.DISTRIBUTE,
            ("A", "Q"),
            moves=((("d5", 0, A), "Q", "A"),),
        )
        with pytest.raises(PlanError, match="does not exist"):
            apply_edit(self.base(), edit)

    def test_rename_rewrites_surfaces_in_place(self):
        edit = EditRecord(
            EditKind.RENAME,
            ("B",),
            surface_changes=((("d3", 0, A), "Ann Beth Lee"),),
        )
        after = apply_edit(self.base(), edit)
        after.validate()
        (mention,) = after.mentions_of("B")
        assert mention.surface == "Ann Beth Lee"
        assert mention.key == ("d3", 0, A)

    def test_rename_unknown_profile_rejected(self):
        edit = EditRecord(
            EditKind.RENAME, ("Q",), surface_changes=((("d3", 0, A), "X"),)
        )
        with pytest.raises(PlanError, match="does not exist"):
            apply_edit(self.base(), edit)

    def test_rename_of_unheld_mention_rejected(self):
        edit = EditRecord(
            EditKind.RENAME, ("B",), surface_changes=((("d4", 0, A), "X"),)
        )
        with pytest.raises(PlanError, match="does not hold"):
            apply_edit(self.base(), edit)

    def test_new_publication_adds_document_and_venue(self):
        doc = DocumentRecord(
            "d9", title="Fresh", year=2020, venue_key="v9", venue_name="Venue Nine",
            authors=("Ann Lee", "New Guy"),
        )
        edit = EditRecord(
            EditKind.NEW_PUBLICATION,
            ("A", "N"),
            new_document=doc,
            new_assignments=((("d9", 0, A), "A"), (("d9", 1, A), "N")),
        )
        after = apply_edit(self.base(), edit)
        after.validate()
        assert after.documents["d9"].venue_name == "Venue Nine"
        assert ("d9", 1, A) in {m.key for m in after.mentions_of("N")}
        sig = next(m for m in after.mentions_of("N"))
        assert sig.surface == "New Guy"

    def test_duplicate_document_rejected(self):
        doc = DocumentRecord("d1", title="Again", year=2020, authors=("X",))
        edit = EditRecord(
            EditKind.NEW_PUBLICATION, ("A",), new_document=doc,
            new_assignments=((("d1", 0, A), "A"),),
        )
        with pytest.raises(PlanError, match="already exists"):
            apply_edit(self.base(), edit)

    def test_assignment_position_out_of_range_rejected(self):
        doc = DocumentRecord("d9", title="Fresh", year=2020, authors=("X",))
        edit = EditRecord(
            EditKind.NEW_PUBLICATION, ("A",), new_document=doc,
            new_assignments=((("d9", 3, A), "A"),),
        )
        with pytest.raises(PlanError, match="out of range"):
            apply_edit(self.base(), edit)


class TestConfig:
    def test_rejects_single_observation(self):
        with pytest.raises(PlanError):
            GeneratorConfig(observation_dates=("2020-01-01",)).check()

    def test_rejects_unordered_dates(self):
        with pytest.raises(PlanError, match="strictly increase"):
            GeneratorConfig(
                observation_dates=("2020-02-01", "2020-01-01")
            ).check()

    def test_rejects_negative_counts(self):
        with pytest.raises(PlanError, match="merges"):
            GeneratorConfig(merges=-1).check()

    def test_intervals(self):
        assert GeneratorConfig(observation_dates=default_dates(4)).intervals == 3

    def test_default_dates_wrap_the_year(self):
        dates = default_dates(4, start="2015-11-15")
        assert dates == ("2015-11-15", "2015-12-15", "2016-01-15", "2016-02-15")

    def test_default_dates_refuse_a_day_a_month_lacks(self):
        with pytest.raises(ValueError, match="^impossible calendar date: '2015-02-31'$"):
            default_dates(3, start="2015-01-31")


class TestGenerate:
    def test_same_seed_reproduces_bytes(self):
        h1, log1 = generate(small_config())
        h2, log2 = generate(small_config())
        for s1, s2 in zip(h1.snapshots, h2.snapshots):
            assert write_snapshot(s1) == write_snapshot(s2)
        assert list(ground_truth_lines(log1)) == list(ground_truth_lines(log2))

    def test_different_seed_differs(self):
        h1, _ = generate(small_config())
        h2, _ = generate(small_config(seed=4))
        assert write_snapshot(h1.snapshots[0]) != write_snapshot(h2.snapshots[0])

    def test_every_snapshot_validates(self):
        history, _ = generate(small_config())
        assert len(history.snapshots) == 3
        for s in history.snapshots:
            s.validate()

    def test_only_new_publications_grow_the_mention_set(self):
        history, log = generate(small_config(new_publications=2))
        for i, (before, after) in enumerate(
            zip(history.snapshots, history.snapshots[1:])
        ):
            keys_before = {
                m.key for p in before.profiles.values() for m in p.mentions
            }
            keys_after = {
                m.key for p in after.profiles.values() for m in p.mentions
            }
            added = set()
            for r in log.records:
                if r.interval == i and r.edit.kind is EditKind.NEW_PUBLICATION:
                    added.update(k for k, _pid in r.edit.new_assignments)
            assert keys_after == keys_before | added

    def test_log_counts_match_plan(self):
        config = small_config()
        _, log = generate(config)
        n = config.intervals
        assert log.counts_by_kind() == {
            "merge": config.merges * n,
            "split": config.splits * n,
            "distribute": config.distributes * n,
            "rename": config.renames * n,
            "new_publication": config.new_publications * n,
        }

    def test_corrections_filters_out_noise_edits(self):
        _, log = generate(small_config())
        kinds = {r.edit.kind for r in log.corrections()}
        assert kinds == {EditKind.MERGE, EditKind.SPLIT, EditKind.DISTRIBUTE}

    def test_exclusive_profiles_are_disjoint_across_adjacent_intervals(self):
        config = small_config(seed=11)
        _, log = generate(config)
        by_interval: dict[int, list[set[str]]] = {}
        for r in log.records:
            by_interval.setdefault(r.interval, []).append(set(r.edit.profiles))
        previous: set[str] = set()
        for i in range(config.intervals):
            sets = by_interval[i]
            union: set[str] = set()
            for s in sets:
                assert not (union & s)
                union |= s
            assert not (previous & union)
            previous = union

    def test_extraction_recovers_the_log_exactly(self):
        config = small_config(seed=12)
        history, log = generate(config)
        cases = extract_corrections(history)

        def logged(r):
            return (
                r.edit.kind.value,
                config.observation_dates[r.interval],
                config.observation_dates[r.interval + 1],
                frozenset(r.edit.profiles),
            )

        expected = sorted(logged(r) for r in log.corrections())
        got = sorted(
            (c.kind.value, c.t_before, c.t_after, frozenset(c.profiles))
            for c in cases
        )
        assert got == expected
        assert all(not c.new_mentions for c in cases)
        assert all(len(c.chained_from) == 1 for c in cases)

    def test_zero_edit_plan_keeps_the_world_still(self):
        config = small_config(
            merges=0, splits=0, distributes=0, renames=0, new_publications=0
        )
        history, log = generate(config)
        assert log.records == ()
        first = history.snapshots[0]
        for later in history.snapshots[1:]:
            assert later.profiles == first.profiles
            assert later.documents == first.documents

    def test_non_exclusive_plan_still_generates(self):
        history, log = generate(
            small_config(seed=5, exclusive_profiles=False)
        )
        for s in history.snapshots:
            s.validate()
        assert log.records

    def test_infeasible_defect_plan_rejected(self):
        with pytest.raises(PlanError, match="persons exist"):
            generate(small_config(n_persons=3))

    def test_too_few_mention_slots_rejected(self):
        with pytest.raises(PlanError, match="mention slots"):
            generate(
                small_config(
                    n_persons=50, n_documents=2, merges=0, splits=0,
                    distributes=0, renames=0, new_publications=0,
                )
            )


class TestGroundTruthFile:
    def test_line_format(self):
        _, log = generate(small_config())
        lines = list(ground_truth_lines(log))
        assert lines[0] == "interval\tkind\tprofiles\tmentions"
        interval, kind, profiles, mentions = lines[1].split("\t")
        assert interval == "0"
        assert kind == "merge"
        assert all(p.startswith("p") for p in profiles.split(","))
        assert re.fullmatch(
            r"(d\d+:\d+:(author|editor))(,d\d+:\d+:(author|editor))*", mentions
        )

    def test_write_generated_round_trips(self, tmp_path):
        history, log = generate(small_config())
        log_path = write_generated(history, log, tmp_path)
        assert log_path == tmp_path / "ground-truth.tsv"
        text = log_path.read_text(encoding="utf-8")
        assert text == "".join(line + "\n" for line in ground_truth_lines(log))
        loaded = load_history(tmp_path)
        assert loaded.times() == history.times()
        for disk, memory in zip(loaded.snapshots, history.snapshots):
            assert write_snapshot(disk) == write_snapshot(memory)

    def test_generated_bytes_are_pinned(self, tmp_path):
        # The config ``test_collection_bytes_are_pinned`` generates from; its
        # plan adds two new publications per interval.  One draw of the
        # generator out of place shifts every corpus, and these digests with it.
        history, log = generate(GeneratorConfig(seed=21, n_persons=60, n_documents=300))
        write_generated(history, log, tmp_path)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
        }
        assert digests == PINNED_GENERATED_SHA256

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_generation_pauses_the_collector_and_leaves_it_as_it_found_it(
        self, tmp_path, monkeypatch, enabled
    ):
        while_running = []
        build, write_history = synth._Generator.build, synth.write_history

        def building(self):
            while_running.append(gc.isenabled())
            return build(self)

        def writing(*args, **kwargs):
            while_running.append(gc.isenabled())
            return write_history(*args, **kwargs)

        monkeypatch.setattr(synth._Generator, "build", building)
        monkeypatch.setattr(synth, "write_history", writing)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            history, log = generate(small_config())
            after_generate = gc.isenabled()
            write_generated(history, log, tmp_path)
            after_write = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert (after_generate, after_write) == (enabled, enabled)
        assert while_running == [False, False]

    def test_write_generated_compressed(self, tmp_path):
        history, log = generate(small_config(observation_dates=default_dates(2)))
        write_generated(history, log, tmp_path, compress=True)
        gz = sorted(p.name for p in tmp_path.glob("*.xml.gz"))
        assert len(gz) == 2
        loaded = load_history(tmp_path)
        assert loaded.times() == history.times()


PINNED_GENERATED_SHA256 = {
    "ground-truth.tsv": "227df10645cb375c436cca1c7c80b39dafe5a93e1fd5b1a4c9131527afeb086d",
    "snapshot-2015-01-01.xml": "563d62bca484805abc41ba1d52219f1b1fbaad2d014d732a0ec0028371ffb5cc",
    "snapshot-2015-02-01.xml": "840e6ee9fac200745e5a6f748a951b0ece1a7f7bcdd7d73079685e4b33739c78",
    "snapshot-2015-03-01.xml": "7ad6597411bd25cc676ba5f9b4722272be402c14df8a8639830f9c68878abbd8",
    "snapshot-2015-04-01.xml": "01d10e4ab2f5cfb95b8e2139bbb164de8b8e854dbb120e09b7467486e11a72cf",
}
