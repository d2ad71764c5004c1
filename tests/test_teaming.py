from math import comb

import pytest

from divsel.errors import TeamLimitError
from divsel.teaming import EnsembleTeam, enumerate_teams, parse_team, team


def test_enumerate_m3():
    cands = enumerate_teams(3)
    assert [t.key for t in cands] == ["01", "02", "12", "012"]


def test_enumeration_counts():
    assert len(enumerate_teams(8)) == 247
    assert len(enumerate_teams(10)) == 1013
    assert len(enumerate_teams(15)) == 32752


def test_size_counts_sum():
    for m in (4, 7, 10):
        cands = enumerate_teams(m)
        by_size = {s: sum(t.size == s for t in cands) for s in range(2, m + 1)}
        assert all(by_size[s] == comb(m, s) for s in by_size)
        assert sum(by_size.values()) == 2 ** m - (m + 1)


def test_enumerate_size_filter():
    cands = enumerate_teams(5, size_filter=3)
    assert len(cands) == comb(5, 3)
    assert all(t.size == 3 for t in cands)


def test_membership_matrix_matches_teams():
    for m, size in ((5, None), (7, 3), (12, None)):
        cands = enumerate_teams(m, size_filter=size)
        assert cands.members.shape == (len(cands), m)
        for k, t in enumerate(cands):
            assert cands.members[k].nonzero()[0].tolist() == list(t.members)
        with pytest.raises(ValueError):
            cands.members[0, 0] = not cands.members[0, 0]


def test_enumerate_errors():
    with pytest.raises(TeamLimitError):
        enumerate_teams(1)
    with pytest.raises(TeamLimitError):
        enumerate_teams(21)
    with pytest.raises(TeamLimitError):
        enumerate_teams(5, size_filter=1)
    with pytest.raises(TeamLimitError):
        enumerate_teams(5, size_filter=6)


def test_team_invariants():
    with pytest.raises(TeamLimitError):
        EnsembleTeam((3,))
    with pytest.raises(TeamLimitError):
        EnsembleTeam((2, 2))
    with pytest.raises(TeamLimitError):
        EnsembleTeam((3, 1))
    t = team(3, 1)  # sorts
    assert t.members == (1, 3)


def test_canonical_form_roundtrip_single_digit():
    for t in enumerate_teams(10):
        assert parse_team(t.key) == t


def test_canonical_form_dashes_for_large_ids():
    t = team(3, 10, 11)
    assert t.key == "3-10-11"
    assert parse_team(t.key) == t
    assert team(0, 1).key == "01"


def test_canonical_form_injective():
    cands = enumerate_teams(12)
    keys = [t.key for t in cands]
    assert len(set(keys)) == len(keys)


def test_parse_team_errors():
    with pytest.raises(TeamLimitError):
        parse_team("")
    with pytest.raises(TeamLimitError):
        parse_team("11")  # duplicate single-digit ids
    with pytest.raises(TeamLimitError):
        parse_team("ab")
