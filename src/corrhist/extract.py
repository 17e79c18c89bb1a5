"""Detecting merge, split, and distribute corrections between observations.

Given two observations of the same collection, a profile's *reference
predecessors* are the profiles that held any of its current mentions at the
earlier time (mention identity, not surfaces).  Merge and split groups are
read directly off that relation; distributes are connected components over
the remaining mention movements.  Raw groups from consecutive observation
pairs that share a profile are chained into one correction case, since a
single real-world correction may straddle an observation boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import IntegrityError
from .model import History, Role, Signature, Snapshot

MentionKey = tuple[str, int, Role]


class CorrectionKind(enum.Enum):
    MERGE = "merge"
    SPLIT = "split"
    DISTRIBUTE = "distribute"


@dataclass(frozen=True)
class RawGroup:
    """One detected correction group between two specific observations."""

    kind: CorrectionKind
    t_before: str
    t_after: str
    sources: frozenset[str]
    targets: frozenset[str]

    @property
    def profiles(self) -> frozenset[str]:
        return self.sources | self.targets

    @property
    def ident(self) -> str:
        """Stable identifier; raw groups are uniquely named by kind, interval,
        and their pivot profile (merge target / split source / member set)."""
        if self.kind is CorrectionKind.MERGE:
            pivot = next(iter(self.targets))
        elif self.kind is CorrectionKind.SPLIT:
            pivot = next(iter(self.sources))
        else:
            pivot = "+".join(sorted(self.profiles))
        return f"{self.kind.value}@{self.t_before}/{self.t_after}:{pivot}"

    def sort_key(self) -> tuple[str, str, str]:
        return (self.t_before, self.kind.value, self.ident)


@dataclass(frozen=True)
class CorrectionCase:
    """A chained correction: how a set of profiles was rearranged between
    the bounding observations.

    ``source_profiles`` maps each involved profile nonempty at ``t_before``
    to its mention set then; ``target_profiles`` likewise at ``t_after``.
    ``new_mentions`` are mention identities in the target side that no
    profile held at ``t_before`` (publications added alongside the
    correction).  ``chained_from`` lists the constituent raw groups.
    """

    kind: CorrectionKind
    t_before: str
    t_after: str
    source_profiles: dict[str, frozenset[Signature]]
    target_profiles: dict[str, frozenset[Signature]]
    new_mentions: frozenset[MentionKey] = frozenset()
    chained_from: tuple[str, ...] = ()

    @property
    def profiles(self) -> frozenset[str]:
        return frozenset(self.source_profiles) | frozenset(self.target_profiles)

    def mention_count(self) -> int:
        keys: set[MentionKey] = set()
        for sigs in self.source_profiles.values():
            keys.update(m.key for m in sigs)
        for sigs in self.target_profiles.values():
            keys.update(m.key for m in sigs)
        return len(keys)

    def check(self) -> None:
        if self.t_before >= self.t_after:
            raise IntegrityError(
                f"case interval is not forward: {self.t_before} .. {self.t_after}"
            )
        if not self.chained_from:
            raise IntegrityError("a case must cite at least one raw group")
        for pid, sigs in self.source_profiles.items():
            if not sigs:
                raise IntegrityError(f"empty source entry for profile {pid}")
        for pid, sigs in self.target_profiles.items():
            if not sigs:
                raise IntegrityError(f"empty target entry for profile {pid}")
        if self.kind is CorrectionKind.MERGE:
            if len(self.source_profiles) < 2 or len(self.target_profiles) != 1:
                raise IntegrityError(
                    f"merge case needs >=2 sources and exactly 1 target, got "
                    f"{len(self.source_profiles)}/{len(self.target_profiles)}"
                )
        elif self.kind is CorrectionKind.SPLIT:
            if len(self.source_profiles) != 1 or len(self.target_profiles) < 2:
                raise IntegrityError(
                    f"split case needs exactly 1 source and >=2 targets, got "
                    f"{len(self.source_profiles)}/{len(self.target_profiles)}"
                )
        else:
            if len(self.source_profiles) < 2 or len(self.target_profiles) < 2:
                raise IntegrityError(
                    f"distribute case needs >=2 sources and >=2 targets, got "
                    f"{len(self.source_profiles)}/{len(self.target_profiles)}"
                )

    def sort_key(self) -> tuple:
        return (
            self.t_before,
            min(self.profiles),
            self.t_after,
            self.kind.value,
            tuple(sorted(self.profiles)),
        )


def _keys(snapshot: Snapshot, pid: str) -> set[MentionKey]:
    return {m.key for m in snapshot.mentions_of(pid)}


def _ordered_pair(history: History, t1: str, t2: str) -> tuple[Snapshot, Snapshot]:
    s1, s2 = history.at(t1), history.at(t2)
    if not t1 < t2:
        raise ValueError(f"need t1 < t2, got {t1} and {t2}")
    return s1, s2


def reference_predecessors(history: History, pid: str, t1: str, t2: str) -> set[str]:
    """Profiles at ``t1`` holding any mention that ``pid`` holds at ``t2``."""
    s1, s2 = _ordered_pair(history, t1, t2)
    wanted = _keys(s2, pid)
    if not wanted:
        return set()
    out = set()
    for qid, prof in s1.profiles.items():
        if any(m.key in wanted for m in prof.mentions):
            out.add(qid)
    return out


def reference_successors(history: History, pid: str, t1: str, t2: str) -> set[str]:
    """Profiles at ``t2`` holding any mention that ``pid`` held at ``t1``."""
    s1, s2 = _ordered_pair(history, t1, t2)
    held = _keys(s1, pid)
    if not held:
        return set()
    out = set()
    for qid, prof in s2.profiles.items():
        if any(m.key in held for m in prof.mentions):
            out.add(qid)
    return out


def is_consistent_predecessor(
    history: History, p1: str, t1: str, p2: str, t2: str
) -> bool:
    """True iff p1's mentions at t1 are all held by p2 at t2."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return _keys(s1, p1) <= _keys(s2, p2)


def _changed_profiles(s1: Snapshot, s2: Snapshot) -> list[str]:
    """Profiles whose mention identity set differs between the snapshots.

    Object-identical profiles (shared storage from the loader or from edit
    application) are skipped without comparison.  Surface-only rewrites keep
    the identity set equal and are not changes here.
    """
    changed = []
    for pid in set(s1.profiles) | set(s2.profiles):
        a = s1.profiles.get(pid)
        b = s2.profiles.get(pid)
        if a is b:
            continue
        am = a.mentions if a is not None else frozenset()
        bm = b.mentions if b is not None else frozenset()
        if am == bm:
            continue
        if {m.key for m in am} != {m.key for m in bm}:
            changed.append(pid)
    return changed


def raw_groups_between(s1: Snapshot, s2: Snapshot) -> list[RawGroup]:
    """All merge, split, and distribute groups between two observations.

    Work is proportional to the mentions of changed profiles: a profile
    whose mention set is unchanged can neither gain a second reference
    predecessor nor lose a mention to another profile.
    """
    changed = _changed_profiles(s1, s2)
    owner1: dict[MentionKey, str] = {}
    owner2: dict[MentionKey, str] = {}
    for pid in changed:
        for m in s1.mentions_of(pid):
            owner1[m.key] = pid
        for m in s2.mentions_of(pid):
            owner2[m.key] = pid

    groups: list[RawGroup] = []

    # Merge: a profile holds mentions previously spread over several
    # profiles, and every emptied-out predecessor really emptied.
    explained: set[tuple[MentionKey, str, str]] = set()
    for pid in sorted(changed):
        after = _keys(s2, pid)
        if after:
            preds = {owner1[k] for k in after if k in owner1}
            if len(preds) > 1 and all(
                q == pid or not s2.mentions_of(q) for q in preds
            ):
                groups.append(
                    RawGroup(
                        CorrectionKind.MERGE,
                        s1.time,
                        s2.time,
                        frozenset(preds),
                        frozenset({pid}),
                    )
                )
                for k in after:
                    q = owner1.get(k)
                    if q is not None and q != pid:
                        explained.add((k, q, pid))
        before = _keys(s1, pid)
        if before:
            succs = {owner2[k] for k in before if k in owner2}
            if len(succs) > 1 and all(
                q == pid or not s1.mentions_of(q) for q in succs
            ):
                groups.append(
                    RawGroup(
                        CorrectionKind.SPLIT,
                        s1.time,
                        s2.time,
                        frozenset({pid}),
                        frozenset(succs),
                    )
                )
                for k in before:
                    q = owner2.get(k)
                    if q is not None and q != pid:
                        explained.add((k, pid, q))

    # Distribute: remaining movements, grouped into connected components.
    # A component is a correction only if at least two of its profiles are
    # nonempty on each side; one-to-one handovers that empty the donor are
    # profile renames, not mention corrections.
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    moved = False
    for k, donor in owner1.items():
        taker = owner2.get(k)
        if taker is not None and taker != donor and (k, donor, taker) not in explained:
            union(donor, taker)
            moved = True
    if moved:
        components: dict[str, set[str]] = {}
        for pid in parent:
            components.setdefault(find(pid), set()).add(pid)
        for root in sorted(components, key=lambda r: min(components[r])):
            members = components[root]
            at1 = {q for q in members if s1.mentions_of(q)}
            at2 = {q for q in members if s2.mentions_of(q)}
            if len(at1) >= 2 and len(at2) >= 2:
                groups.append(
                    RawGroup(
                        CorrectionKind.DISTRIBUTE,
                        s1.time,
                        s2.time,
                        frozenset(at1),
                        frozenset(at2),
                    )
                )

    groups.sort(key=RawGroup.sort_key)
    return groups


def detect_merge_groups(history: History, t1: str, t2: str) -> list[RawGroup]:
    """Merge groups between the observations at t1 and t2."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return [g for g in raw_groups_between(s1, s2) if g.kind is CorrectionKind.MERGE]


def detect_split_groups(history: History, t1: str, t2: str) -> list[RawGroup]:
    """Split groups between the observations at t1 and t2."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return [g for g in raw_groups_between(s1, s2) if g.kind is CorrectionKind.SPLIT]


def detect_distributes(history: History, t1: str, t2: str) -> list[RawGroup]:
    """Distribute groups between the observations at t1 and t2."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return [
        g for g in raw_groups_between(s1, s2) if g.kind is CorrectionKind.DISTRIBUTE
    ]


def chain_corrections(history: History, groups: Iterable[RawGroup]) -> list[CorrectionCase]:
    """Join raw groups from directly successive intervals that share a
    profile, and materialize each resulting component as one case.

    A chain of uniform kind keeps that kind as long as the chained case
    still has the kind's shape (a merge funnels into one surviving profile,
    a split fans out of one); anything else is a distribute, the most
    general rearrangement.
    """
    snap_at = {s.time: s for s in history.snapshots}
    owned_at: dict[str, set[MentionKey]] = {}
    pool = sorted(groups, key=RawGroup.sort_key)
    parent = list(range(len(pool)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    by_start: dict[str, dict[str, list[int]]] = {}
    for i, g in enumerate(pool):
        bucket = by_start.setdefault(g.t_before, {})
        for q in g.profiles:
            bucket.setdefault(q, []).append(i)
    for i, g in enumerate(pool):
        follow = by_start.get(g.t_after)
        if not follow:
            continue
        for q in g.profiles:
            for j in follow.get(q, ()):
                union(i, j)

    components: dict[int, list[RawGroup]] = {}
    for i, g in enumerate(pool):
        components.setdefault(find(i), []).append(g)

    cases = []
    for member_groups in components.values():
        cases.append(_materialize(snap_at, owned_at, member_groups))
    cases.sort(key=CorrectionCase.sort_key)
    return cases


def _materialize(
    snap_at: dict[str, Snapshot],
    owned_at: dict[str, set[MentionKey]],
    groups: list[RawGroup],
) -> CorrectionCase:
    t_before = min(g.t_before for g in groups)
    t_after = max(g.t_after for g in groups)
    involved: set[str] = set()
    for g in groups:
        involved |= g.profiles
    before = snap_at[t_before]
    after = snap_at[t_after]
    source_profiles = {
        pid: before.mentions_of(pid)
        for pid in sorted(involved)
        if before.mentions_of(pid)
    }
    target_profiles = {
        pid: after.mentions_of(pid)
        for pid in sorted(involved)
        if after.mentions_of(pid)
    }

    kinds = {g.kind for g in groups}
    if len(kinds) == 1:
        kind = next(iter(kinds))
        if kind is CorrectionKind.MERGE and len(target_profiles) != 1:
            kind = CorrectionKind.DISTRIBUTE
        elif kind is CorrectionKind.SPLIT and len(source_profiles) != 1:
            kind = CorrectionKind.DISTRIBUTE
    else:
        kind = CorrectionKind.DISTRIBUTE

    # A target mention not owned by anyone at t_before entered the
    # collection during the case.  Checking the case's own sources first
    # keeps the full ownership index (built once per date, shared across
    # cases) off the common path.
    in_sources = {m.key for sigs in source_profiles.values() for m in sigs}
    leftovers = [
        m.key
        for sigs in target_profiles.values()
        for m in sigs
        if m.key not in in_sources
    ]
    new_keys: frozenset[MentionKey] = frozenset()
    if leftovers:
        owned = owned_at.get(t_before)
        if owned is None:
            owned = {
                m.key
                for prof in before.profiles.values()
                for m in prof.mentions
            }
            owned_at[t_before] = owned
        new_keys = frozenset(k for k in leftovers if k not in owned)
    return CorrectionCase(
        kind=kind,
        t_before=t_before,
        t_after=t_after,
        source_profiles=source_profiles,
        target_profiles=target_profiles,
        new_mentions=new_keys,
        chained_from=tuple(g.ident for g in groups),
    )


def extract_corrections(history: History, *, max_workers: int = 1) -> list[CorrectionCase]:
    """Detect all corrections in a history and chain them into cases.

    Runs the detectors over every consecutive observation pair in order,
    then chains.  A history with fewer than two observations has no
    intervals to compare, which is an error rather than an empty answer.
    ``max_workers`` is accepted for compatibility and has no effect.
    """
    if len(history.snapshots) < 2:
        raise ValueError("correction extraction needs at least two observations")
    snaps = history.snapshots
    groups = [g for s1, s2 in zip(snaps, snaps[1:]) for g in raw_groups_between(s1, s2)]
    return chain_corrections(history, groups)


def assign_case_ids(cases: Sequence[CorrectionCase]) -> list[str]:
    """Deterministic case ids: ``<kind>-<t_before>-<n>`` with ``n`` counting
    within each (kind, start date) group in the given order."""
    seq: dict[tuple[str, str], int] = {}
    ids = []
    for case in cases:
        key = (case.kind.value, case.t_before)
        seq[key] = seq.get(key, 0) + 1
        ids.append(f"{case.kind.value}-{case.t_before}-{seq[key]}")
    return ids


def case_summary_lines(cases: Sequence[CorrectionCase]) -> Iterator[str]:
    """Tab-separated one-line-per-case summary."""
    yield "kind\tt_before\tt_after\tprofiles\tmentions"
    for case in cases:
        yield (
            f"{case.kind.value}\t{case.t_before}\t{case.t_after}"
            f"\t{len(case.profiles)}\t{case.mention_count()}"
        )
