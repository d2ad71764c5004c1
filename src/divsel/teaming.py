"""Candidate ensemble enumeration.

Teams are subsets of the model pool with 2 <= size <= M.  Enumeration is
eager and ordered: sizes ascending, members lexicographic within a size,
so a candidate list is reproducible and safely shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import TeamLimitError

# 2^20 teams is ~1M entries; anything beyond that is refused rather than
# silently eating memory.
MAX_POOL_SIZE = 20


@dataclass(frozen=True, order=True)
class EnsembleTeam:
    """An ensemble candidate: a sorted tuple of distinct model ids."""

    members: tuple[int, ...]

    def __post_init__(self):
        ms = self.members
        if len(ms) < 2:
            raise TeamLimitError(f"team needs at least 2 members, got {ms}")
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise TeamLimitError(f"team members must be sorted and distinct: {ms}")
        if ms[0] < 0:
            raise TeamLimitError(f"negative model id in team: {ms}")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def key(self) -> str:
        """Canonical string form: "0123" while every id is a single digit,
        dash-separated ("3-10-11") once ids exceed 9."""
        if self.members[-1] <= 9:
            return "".join(str(i) for i in self.members)
        return "-".join(str(i) for i in self.members)


def parse_team(text: str, pool_size: int) -> EnsembleTeam:
    """Parse a canonical team string ("0123" or "3-10-11") of a pool of
    ``pool_size`` models."""
    text = text.strip()
    if not text:
        raise TeamLimitError("empty team string")
    if "-" in text:
        parts = text.split("-")
    else:
        parts = list(text)
    try:
        members = tuple(sorted(int(p) for p in parts))
    except ValueError as exc:
        raise TeamLimitError(f"cannot parse team string {text!r}") from exc
    if len(set(members)) != len(members):
        raise TeamLimitError(f"duplicate model id in team string {text!r}")
    team = EnsembleTeam(members)
    if team.members[-1] >= pool_size:
        raise TeamLimitError(f"team {team.key} references model {team.members[-1]}, "
                             f"but the pool has only {pool_size} models")
    return team


@dataclass(frozen=True)
class CandidateSet:
    """Candidate teams for a pool of ``pool_size`` models; ``members[k, f]``
    (read-only, K×M) is True when model f is in team k."""

    teams: tuple[EnsembleTeam, ...]
    pool_size: int
    members: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def of(cls, teams, pool_size: int) -> "CandidateSet":
        """The teams, in order, with their membership matrix over ``pool_size`` models."""
        teams = tuple(teams)
        members = np.zeros((len(teams), pool_size), dtype=bool)
        members[np.repeat(np.arange(len(teams)), [t.size for t in teams]),
                [f for t in teams for f in t.members]] = True
        members.flags.writeable = False
        return cls(teams=teams, pool_size=pool_size, members=members)

    def __len__(self) -> int:
        return len(self.teams)

    def __iter__(self):
        return iter(self.teams)


def enumerate_teams(pool_size: int, size_filter: int | None = None) -> CandidateSet:
    """Enumerate every subset of {0..pool_size-1} with size in the filter.

    ``size_filter`` is None (all sizes 2..M) or a single size.  Order:
    size ascending, lexicographic within a size.
    """
    if pool_size < 2:
        raise TeamLimitError(f"pool size must be >= 2, got {pool_size}")
    if pool_size > MAX_POOL_SIZE:
        raise TeamLimitError(
            f"pool size {pool_size} exceeds enumeration limit {MAX_POOL_SIZE} "
            f"(2^{pool_size} subsets)"
        )
    lo, hi = (2, pool_size) if size_filter is None else (size_filter, size_filter)
    if lo < 2 or hi > pool_size:
        raise TeamLimitError(
            f"team-size filter {size_filter} outside valid range [2, {pool_size}]"
        )
    return CandidateSet.of((EnsembleTeam(members)
                            for size in range(lo, hi + 1)
                            for members in combinations(range(pool_size), size)), pool_size)
