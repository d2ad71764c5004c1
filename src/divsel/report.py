"""Rendering and serialization of reports and selected sets.

JSON output carries full-precision fractions; the CSV and plain-table
renderings present accuracies and percentages rounded to two decimals,
with columns ordered method, set sizes, accuracy range, mean, std, then
the beats-members and beats-pool counts and percentages.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import DivselError
from .evaluation import SetReport
from .selection import SelectedSet
from .teaming import parse_team

CSV_COLUMNS = [
    "method", "num_candidates", "num_selected",
    "acc_min", "acc_max", "acc_avg", "acc_std",
    "num_beats_members", "pct_beats_members",
    "num_beats_pool", "pct_beats_pool",
    "best_team", "best_accuracy",
]


def format_percent(count: int, total: int) -> str:
    """Render count/total as a 2-decimal percentage string ("25.10")."""
    if total == 0:
        return "0.00"
    return f"{100.0 * count / total:.2f}"


def _pct(value: float | None) -> str:
    return "" if value is None else f"{100.0 * value:.2f}"


def set_report_to_dict(report: SetReport) -> dict:
    return {
        "method": report.method,
        "num_candidates": report.candidate_count,
        "num_selected": report.count,
        "acc_min": report.acc_min,
        "acc_max": report.acc_max,
        "acc_mean": report.acc_mean,
        "acc_std": report.acc_std,
        "pool_max_accuracy": report.pool_max_accuracy,
        "num_beats_members": report.num_beats_members,
        "pct_beats_members": report.pct_beats_members,
        "num_beats_pool": report.num_beats_pool,
        "pct_beats_pool": report.pct_beats_pool,
        "best_team": report.best_team,
        "best_accuracy": report.best_accuracy,
    }


def set_reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([
            r.method, r.candidate_count, r.count,
            _pct(r.acc_min), _pct(r.acc_max), _pct(r.acc_mean),
            "" if r.acc_std is None else f"{100.0 * r.acc_std:.4f}",
            r.num_beats_members, format_percent(r.num_beats_members, r.count),
            r.num_beats_pool, format_percent(r.num_beats_pool, r.count),
            r.best_team or "", _pct(r.best_accuracy),
        ])
    return buf.getvalue()


def set_reports_to_table(reports) -> str:
    header = ["method", "#cand", "#sel", "range (%)", "avg (%)", "std",
              ">=m_max", ">=p_max", "best"]
    rows = [header]
    for r in reports:
        if r.count == 0:
            rng = avg = std = best = "-"
            mm = pm = "0 (0.00%)"
        else:
            rng = f"{_pct(r.acc_min)}~{_pct(r.acc_max)}"
            avg = _pct(r.acc_mean)
            std = f"{100.0 * r.acc_std:.4f}"
            mm = f"{r.num_beats_members} ({format_percent(r.num_beats_members, r.count)}%)"
            pm = f"{r.num_beats_pool} ({format_percent(r.num_beats_pool, r.count)}%)"
            best = f"{r.best_team} @ {_pct(r.best_accuracy)}"
        rows.append([r.method, str(r.candidate_count), str(r.count),
                     rng, avg, std, mm, pm, best])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"


def team_evaluations_to_dicts(evals) -> list[dict]:
    return [
        {
            "team": e.team.key,
            "size": e.team.size,
            "ensemble_accuracy": e.ensemble_accuracy,
            "member_max_accuracy": e.member_max_accuracy,
            "member_max_id": e.member_max_id,
            "pool_max_accuracy": e.pool_max_accuracy,
            "improvement": e.improvement,
            "beats_members": e.beats_members,
            "beats_pool": e.beats_pool,
        }
        for e in evals
    ]


def selected_set_to_dict(selected: SelectedSet) -> dict:
    return {
        "method": selected.method,
        "pool_size": selected.pool_size,
        "num_candidates": selected.candidate_count,
        "teams": [t.key for t in selected.teams],
        "scores": list(selected.scores),
    }


def selected_set_from_dict(data: dict) -> SelectedSet:
    teams = tuple(parse_team(k) for k in data["teams"])
    scores = data.get("scores")
    if scores is None:
        scores = [0.0] * len(teams)
    return SelectedSet(
        method=str(data["method"]),
        teams=teams,
        scores=tuple(float(s) for s in scores),
        pool_size=int(data["pool_size"]),
        candidate_count=int(data["num_candidates"]),
    )


def load_selected_set(path: str | Path) -> SelectedSet:
    try:
        return selected_set_from_dict(json.loads(Path(path).read_text()))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise DivselError(f"malformed selected-set JSON {path}: {exc}") from exc


def dumps(obj) -> str:
    """Deterministic JSON text: stable key order, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"
