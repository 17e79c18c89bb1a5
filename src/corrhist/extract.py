"""Detecting merge, split, and distribute corrections between observations.

Given two observations of the same collection, a profile's *reference
predecessors* are the profiles that held any of its current mentions at the
earlier time (mention identity, not surfaces); its *reference successors*
are the same relation with time reversed.  A merge gathers a profile's
predecessors and a split scatters its successors, so one rule read forward
finds merges and read backward finds splits.  Distributes are connected
components over the remaining mention movements.  Raw groups from
consecutive observation pairs that share a profile are chained into one
correction case, since a single real-world correction may straddle an
observation boundary.

Extraction reads only the profiles the history records as changed in each
interval: the groups come from those profiles' mentions, and so do the
mentions a case finds new.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import IntegrityError
from .model import History, MentionKey, Signature, Snapshot

_Node = TypeVar("_Node", bound=Hashable)


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


def _holders(snapshot: Snapshot, keys: set[MentionKey]) -> set[str]:
    """Profiles of ``snapshot`` holding any of ``keys``."""
    if not keys:
        return set()
    return {
        qid for qid, prof in snapshot.profiles.items()
        if any(m.key in keys for m in prof.mentions)
    }


def reference_predecessors(history: History, pid: str, t1: str, t2: str) -> set[str]:
    """Profiles at ``t1`` holding any mention that ``pid`` holds at ``t2``."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return _holders(s1, _keys(s2, pid))


def reference_successors(history: History, pid: str, t1: str, t2: str) -> set[str]:
    """Profiles at ``t2`` holding any mention that ``pid`` held at ``t1``:
    the reference predecessors with time reversed."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return _holders(s2, _keys(s1, pid))


def is_consistent_predecessor(
    history: History, p1: str, t1: str, p2: str, t2: str
) -> bool:
    """True iff p1's mentions at t1 are all held by p2 at t2."""
    s1, s2 = _ordered_pair(history, t1, t2)
    return _keys(s1, p1) <= _keys(s2, p2)


def _components(nodes: Iterable[_Node], links: Iterable[tuple[_Node, _Node]]) -> list[list[_Node]]:
    """The connected components of the graph whose edges are ``links``,
    over ``nodes`` and every node a link names.  Each lists its members in
    the order they were first met, ``nodes`` first, and the components come
    in the order of their first members."""
    parent = {n: n for n in nodes}

    def find(x: _Node) -> _Node:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    components: dict[_Node, list[_Node]] = {}
    for n in parent:
        components.setdefault(find(n), []).append(n)
    return list(components.values())


def raw_groups_between(
    s1: Snapshot, s2: Snapshot, changed: Collection[str] | None = None
) -> list[RawGroup]:
    """All merge, split, and distribute groups between two observations.

    ``changed`` holds at least the ids of the profiles whose record differs
    between them, as ``History.changed_profiles`` gives them; without it
    they are found by comparison, which needs ``s1`` before ``s2``.  Work is
    proportional to the mentions of those profiles: a profile whose mention
    set is unchanged can neither gain a second reference predecessor nor
    lose a mention to another profile, and one whose surfaces alone changed
    keeps its own mentions, so it adds no group.
    """
    if changed is None:
        changed = History((s1, s2)).changed_profiles(0)
    owner1: dict[MentionKey, str] = {}
    owner2: dict[MentionKey, str] = {}
    for pid in changed:
        for m in s1.mentions_of(pid):
            owner1[m.key] = pid
        for m in s2.mentions_of(pid):
            owner2[m.key] = pid

    groups: list[RawGroup] = []

    # Merge: the mentions ``pid`` holds at s2 were held at s1 by at least
    # two profiles, and every one of them but ``pid`` is empty at s2.  A
    # split is the same rule with time reversed: read at s1 against the
    # holders at s2.  ``explained`` holds the (mention, donor, taker)
    # movements a merge or split accounts for.
    explained: set[tuple[MentionKey, str, str]] = set()
    for pid in sorted(changed):
        for kind, near, far_owner in (
            (CorrectionKind.MERGE, s2, owner1),
            (CorrectionKind.SPLIT, s1, owner2),
        ):
            other = {
                k: q
                for k in _keys(near, pid)
                if (q := far_owner.get(k)) is not None
            }
            fan = frozenset(other.values())
            if len(fan) < 2 or any(q != pid and near.mentions_of(q) for q in fan):
                continue
            pivot = frozenset({pid})
            if kind is CorrectionKind.MERGE:
                groups.append(RawGroup(kind, s1.time, s2.time, fan, pivot))
                explained.update((k, q, pid) for k, q in other.items() if q != pid)
            else:
                groups.append(RawGroup(kind, s1.time, s2.time, pivot, fan))
                explained.update((k, pid, q) for k, q in other.items() if q != pid)

    # Distribute: remaining movements, grouped into connected components.
    # A component is a correction only if at least two of its profiles are
    # nonempty on each side; one-to-one handovers that empty the donor are
    # profile renames, not mention corrections.
    moves = (
        (donor, taker)
        for k, donor in owner1.items()
        if (taker := owner2.get(k)) is not None
        and taker != donor
        and (k, donor, taker) not in explained
    )
    for members in sorted(_components((), moves), key=min):
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


def chain_corrections(history: History, groups: Iterable[RawGroup]) -> list[CorrectionCase]:
    """Join raw groups from directly successive intervals that share a
    profile, and materialize each resulting component as one case.

    A chain of uniform kind keeps that kind as long as the chained case
    still has the kind's shape (a merge funnels into one surviving profile,
    a split fans out of one); anything else is a distribute, the most
    general rearrangement.
    """
    index = {s.time: i for i, s in enumerate(history.snapshots)}
    pool = sorted(groups, key=RawGroup.sort_key)
    by_start: dict[str, dict[str, list[int]]] = {}
    for i, g in enumerate(pool):
        bucket = by_start.setdefault(g.t_before, {})
        for q in g.profiles:
            bucket.setdefault(q, []).append(i)
    links = (
        (i, j)
        for i, g in enumerate(pool)
        for q in g.profiles
        for j in by_start.get(g.t_after, {}).get(q, ())
    )
    cases = [
        _materialize(history, index, [pool[i] for i in members])
        for members in _components(range(len(pool)), links)
    ]
    cases.sort(key=CorrectionCase.sort_key)
    return cases


def _materialize(
    history: History, index: dict[str, int], groups: list[RawGroup]
) -> CorrectionCase:
    t_before = min(g.t_before for g in groups)
    t_after = max(g.t_after for g in groups)
    involved: set[str] = set()
    for g in groups:
        involved |= g.profiles
    first, last = index[t_before], index[t_after]
    before = history.snapshots[first]
    after = history.snapshots[last]
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

    # A target mention that no profile held at t_before entered the
    # collection during the case.  A profile that did hold it then is
    # either its holder at t_after, so a source of the case, or it lost
    # the mention, so its record changed in one of the case's intervals.
    # Only the case's sources and the profiles the history records as
    # changed there need be read.
    in_sources = {m.key for sigs in source_profiles.values() for m in sigs}
    leftovers = [
        m.key
        for sigs in target_profiles.values()
        for m in sigs
        if m.key not in in_sources
    ]
    new_keys: frozenset[MentionKey] = frozenset()
    if leftovers:
        changed = set().union(*map(history.changed_profiles, range(first, last)))
        held = {m.key for pid in changed for m in before.mentions_of(pid)}
        new_keys = frozenset(k for k in leftovers if k not in held)
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

    Finds the raw groups of every consecutive observation pair in order,
    on the profiles the history records as changed there, then chains.  A
    history with fewer than two observations has no intervals to compare,
    which is an error rather than an empty answer.
    ``max_workers`` is accepted for compatibility and has no effect.
    """
    if len(history.snapshots) < 2:
        raise ValueError("correction extraction needs at least two observations")
    snaps = history.snapshots
    groups = [
        g
        for i in range(len(snaps) - 1)
        for g in raw_groups_between(snaps[i], snaps[i + 1], history.changed_profiles(i))
    ]
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
