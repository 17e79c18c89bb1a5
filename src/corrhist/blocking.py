"""Name-blocking study over merge and distribute cases.

Blocking partitions mentions by a cheap name key so that only same-block
pairs are compared.  Two key schemes are implemented: the last name part
alone, and the first-name initial plus the last name (middle names
ignored), each with and without case folding.  The hit rate of a scheme is
the fraction of truly-matching name pairs whose keys coincide.

Collections that mark homonyms with a numeric name suffix would make such
pairs trivially distinct, so a trailing 4-digit group is stripped before
keying by default; this is a knob, not a fixture.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .extract import CorrectionCase, CorrectionKind

_SUFFIX_RE = re.compile(r"\s\d{4}$")


class KeyScheme(enum.Enum):
    LAST_ONLY = "last"
    INITIAL_LAST = "initial+last"


class CaseMode(enum.Enum):
    CONSIDER = "consider-case"
    IGNORE = "ignore-case"


@dataclass(frozen=True)
class BlockingVariant:
    scheme: KeyScheme
    case_mode: CaseMode

    @property
    def label(self) -> str:
        fold = "ignore case" if self.case_mode is CaseMode.IGNORE else "consider case"
        return f"{self.scheme.value} ({fold})"


ALL_VARIANTS: tuple[BlockingVariant, ...] = (
    BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.CONSIDER),
    BlockingVariant(KeyScheme.LAST_ONLY, CaseMode.CONSIDER),
    BlockingVariant(KeyScheme.INITIAL_LAST, CaseMode.IGNORE),
    BlockingVariant(KeyScheme.LAST_ONLY, CaseMode.IGNORE),
)


def strip_homonym_suffix(surface: str) -> str:
    """Remove a trailing space + 4 digits ("Wei Wang 0050" -> "Wei Wang")."""
    return _SUFFIX_RE.sub("", surface)


def blocking_key(
    surface: str, variant: BlockingVariant, *, strip_suffix: bool = True
) -> str:
    """The blocking key of a name under the given variant."""
    tokens = (strip_homonym_suffix(surface) if strip_suffix else surface).split()
    if not tokens:
        raise ValueError(f"no name tokens left to key in {surface!r}")
    if variant.scheme is KeyScheme.LAST_ONLY:
        key = tokens[-1]
    else:
        key = f"{tokens[0][0]}. {tokens[-1]}"
    if variant.case_mode is CaseMode.IGNORE:
        key = key.lower()
    return key


def representative_surface(surfaces: Iterable[str]) -> str:
    """Most frequent surface; ties go to the lexicographically smallest."""
    counts = Counter(surfaces)
    if not counts:
        raise ValueError("no surfaces to represent")
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def name_pairs(cases: Sequence[CorrectionCase]) -> list[tuple[str, str]]:
    """Truly-matching name pairs from merge and distribute cases.

    Each involved profile is represented by its most frequent surface before
    the correction; every unordered pair of distinct profiles contributes
    one pair (their surfaces may coincide).  Splits divide one profile, so
    they offer no cross-profile name pairs.
    """
    pairs: list[tuple[str, str]] = []
    for case in cases:
        if case.kind is CorrectionKind.SPLIT:
            continue
        reps = [
            representative_surface(m.surface for m in sigs)
            for _pid, sigs in sorted(case.source_profiles.items())
        ]
        for a, b in combinations(reps, 2):
            pairs.append((a, b) if a <= b else (b, a))
    return pairs


def hit_rate(
    pairs: Sequence[tuple[str, str]],
    variant: BlockingVariant,
    *,
    strip_suffix: bool = True,
) -> float:
    """Fraction of pairs whose two names share a blocking key."""
    if not pairs:
        raise ValueError("hit rate is undefined for an empty pair list")
    hits = sum(
        1
        for a, b in pairs
        if blocking_key(a, variant, strip_suffix=strip_suffix)
        == blocking_key(b, variant, strip_suffix=strip_suffix)
    )
    return hits / len(pairs)


def blocking_report_lines(
    rows: Sequence[tuple[str, Sequence[tuple[str, str]]]],
    *,
    strip_suffix: bool = True,
) -> Iterator[str]:
    """Tab-separated report: one row per pair subset, one column per
    variant (grouped by case handling, as percentages with 2 decimals).
    Subsets without pairs render as "-"."""
    yield "subset\tpairs\t" + "\t".join(v.label for v in ALL_VARIANTS)
    for label, pairs in rows:
        cells = [label, str(len(pairs))]
        for variant in ALL_VARIANTS:
            if pairs:
                rate = hit_rate(pairs, variant, strip_suffix=strip_suffix)
                cells.append(f"{rate * 100:.2f}")
            else:
                cells.append("-")
        yield "\t".join(cells)
