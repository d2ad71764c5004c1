"""Command-line interface.

Subcommands cover the full workflow: ``synth`` writes a synthetic pool,
``enumerate`` counts/lists candidate teams, ``diversity`` scores them,
``select`` applies a selection method, ``consensus`` runs one voting
method on one team, ``report`` aggregates a selected set, ``recommend``
runs the whole pipeline, and ``query`` explains one team and its
sub-teams.  Exit codes: 0 on success, 1 on data errors, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import report as rpt
from .consensus import (ABSTAIN, DEFAULT_GAMMA, METHODS, PROB_METHODS, ConsensusMethod,
                        ensemble_accuracy, predict)
from .diversity import MetricId, diversity_score, normalize
from .errors import DivselError, EmptyNegativesError
from .evaluation import SetReport, evaluate_teams, summarize
from .pool import (CorrectnessMatrix, PredictionPool, _read_label_file, correctness,
                   load_pool, write_pool)
from .sampling import (DEFAULT_SAMPLE_SIZE, SCHEMES, build_negative_set,
                       focal_negative_sets, negatives_any, sample_subset)
from .selection import (DEFAULT_EQ_METRICS, FQ_MODES, FocalScoreTable, SelectedSet,
                        eq_fuse, fq_select, learn_fq_rules, load_rules, q_select,
                        rules_to_json)
from .synth import generate_pool, load_config
from .teaming import CandidateSet, EnsembleTeam, enumerate_teams, parse_team


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_format(args) -> str:
    """Explicit --format wins; otherwise infer from the --out extension, or
    JSON when the command does not offer the inferred format."""
    if args.format:
        return args.format
    suffix = Path(args.out).suffix.lower() if args.out else ""
    fmt = {".csv": "csv", ".txt": "table", ".tbl": "table"}.get(suffix, "json")
    return fmt if fmt in args.formats else "json"


def _load(args) -> tuple[PredictionPool, CorrectnessMatrix]:
    pool = load_pool(args.pool, probs=getattr(args, "consensus", None) in PROB_METHODS)
    return pool, correctness(pool)


def _consensus_method(args) -> ConsensusMethod:
    train = None
    if args.train_indices:
        if args.consensus != "boosting":
            raise DivselError(f"--train-indices needs boosting consensus, "
                              f"not {args.consensus}")
        train = _read_label_file(Path(args.train_indices), "train-indices")
    return ConsensusMethod(kind=args.consensus, gamma=args.gamma, train_indices=train)


def _select(args, cands: CandidateSet, corr: CorrectnessMatrix):
    """Run the chosen selection method; ``fq`` is ``eq`` over one metric."""
    rules_path = getattr(args, "rules_in", None)
    if rules_path and args.method != "fq":
        raise DivselError(f"--rules-in needs --method fq, not --method {args.method}")
    if args.method != "q" and (args.sampling != "any" or args.focal is not None):
        raise DivselError(f"--sampling and --focal need --method q, not --method "
                          f"{args.method}; fq and eq draw focal negatives per model")
    if args.method == "q":
        metric = MetricId.parse(args.metric)
        neg = build_negative_set(corr, args.sampling, args.sample_size, args.seed,
                                 focal=args.focal)
        selected, rule = q_select(metric, cands, corr, neg)
        return selected, [rule]
    if args.method == "fq":
        metrics = [MetricId.parse(args.metric)]
    else:
        try:
            metrics = [MetricId.parse(m) for m in args.eq_metrics.split(",")]
        except ValueError as exc:
            raise DivselError(str(exc))
        if len(metrics) < 2:
            raise DivselError("--eq-metrics needs at least two metrics")
        if len(set(metrics)) < len(metrics):
            raise DivselError(f"--eq-metrics repeats a metric: {args.eq_metrics}")
    stored = load_rules(rules_path, metrics[0], cands.pool_size) if rules_path else None
    # focal negatives depend on the focal model and the seed, not on the metric
    neg_sets = focal_negative_sets(corr, args.sample_size, args.seed)
    all_rules = []
    parts = []
    for metric in metrics:
        table = FocalScoreTable(metric, cands, corr, neg_sets)
        rules = stored if stored is not None else learn_fq_rules(metric, cands, table)
        all_rules.extend(rules)
        parts.append(fq_select(metric, cands, rules, table, mode=args.fq_mode))
    return (eq_fuse(parts) if len(parts) > 1 else parts[0]), all_rules


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    pool = generate_pool(cfg)
    manifest = write_pool(pool, args.out_dir)
    print(manifest)
    return 0


def cmd_enumerate(args) -> int:
    cands = enumerate_teams(args.pool_size, args.team_size)
    print(len(cands))
    if args.list:
        for t in cands:
            print(t.key)
    return 0


def cmd_diversity(args) -> int:
    if args.team is not None and args.team_size is not None:
        raise DivselError("--team-size restricts the enumerated teams; it cannot "
                          "go with --team")
    pool, corr = _load(args)
    fmt = _resolve_format(args)
    metric = MetricId.parse(args.metric)
    neg = build_negative_set(corr, args.sampling, args.sample_size, args.seed,
                             focal=args.focal)
    if args.team is not None:
        team = parse_team(args.team, pool.num_models)
        cands = CandidateSet.of([team], pool.num_models)
    else:
        cands = enumerate_teams(pool.num_models, args.team_size)
    raws = diversity_score(metric, cands.members, corr, neg).tolist()
    rows = [{"team": t.key, "size": t.size, "raw": raw, "normalized": normalize(metric, raw)}
            for t, raw in zip(cands, raws)]
    # build_negative_set takes --focal with --sampling focal only
    tag = args.sampling if args.focal is None else f"focal:{args.focal}"
    context = f"{tag}[n={len(neg)},seed={args.seed}]"
    if fmt == "json":
        _emit(rpt.dumps({"metric": metric.value, "context": context,
                         "scores": rows}), args.out)
    elif fmt == "csv":
        lines = ["team,size,raw,normalized"]
        lines += [f"{r['team']},{r['size']},{r['raw']:.6f},{r['normalized']:.6f}"
                  for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"metric={metric.value} context={context}"]
        lines += [f"{r['team']:>12}  raw={r['raw']:+.4f}  "
                  f"score={r['normalized']:.4f}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_select(args) -> int:
    pool, corr = _load(args)
    cands = enumerate_teams(pool.num_models, args.team_size)
    selected, rules = _select(args, cands, corr)
    _emit(rpt.dumps(rpt.selected_set_to_dict(selected)), args.out)
    if args.rules_out:  # after --out, so a failed command leaves no rules behind
        _emit(rules_to_json(rules), args.rules_out)
    return 0


def cmd_consensus(args) -> int:
    pool, _ = _load(args)
    team = parse_team(args.team, pool.num_models)
    method = _consensus_method(args)
    pred = predict(team, pool, method)
    acc = ensemble_accuracy(pred, pool.labels)
    abstained = int(np.sum(pred.labels == ABSTAIN))
    payload = {"team": team.key, "method": method.kind, "accuracy": acc,
               "abstained": abstained}
    if _resolve_format(args) == "json":
        _emit(rpt.dumps(payload), args.out)
    else:
        _emit(f"team {team.key}: {method.kind} accuracy "
              f"{100.0 * acc:.2f}% ({abstained} abstained)\n", args.out)
    return 0


def _evaluate_reports(selected: SelectedSet, pool: PredictionPool, corr: CorrectnessMatrix,
                      method: ConsensusMethod, threads: int) -> list[SetReport]:
    """Baseline and selected-set reports from one evaluation of every candidate."""
    evals = evaluate_teams(selected.cands, pool, corr, method, threads=threads)
    p_max = float(corr.accuracies.max())
    return [summarize("baseline", evals, len(selected.cands), p_max),
            summarize(selected.method, [evals[r] for r in selected.rows],
                      selected.candidate_count, p_max)]


def cmd_report(args) -> int:
    pool, corr = _load(args)
    selected = rpt.load_selected_set(getattr(args, "in"), enumerate_teams(pool.num_models))
    method = _consensus_method(args)
    _emit_reports(_evaluate_reports(selected, pool, corr, method, args.threads), args)
    return 0


def _emit_reports(reports, args, extra: dict | None = None) -> None:
    fmt = _resolve_format(args)
    if fmt == "csv":
        _emit(rpt.set_reports_to_csv(reports), args.out)
    elif fmt == "table":
        _emit(rpt.set_reports_to_table(reports), args.out)
    else:
        payload = dict(extra or {})
        payload["reports"] = [rpt.set_report_to_dict(r) for r in reports]
        _emit(rpt.dumps(payload), args.out)


def cmd_recommend(args) -> int:
    pool, corr = _load(args)
    cands = enumerate_teams(pool.num_models, args.team_size)
    selected, _rules = _select(args, cands, corr)
    method = _consensus_method(args)
    reports = _evaluate_reports(selected, pool, corr, method, args.threads)
    extra = {
        "dataset": pool.dataset_name,
        "pool_size": pool.num_models,
        "seed": args.seed,
        "consensus": method.kind,
        "selection": rpt.selected_set_to_dict(selected),
    }
    _emit_reports(reports, args, extra=extra)
    return 0


def cmd_query(args) -> int:
    pool, corr = _load(args)
    team = parse_team(args.team, pool.num_models)
    method = _consensus_method(args)
    # sub-teams of the query team, smallest first, full team last
    subteams = CandidateSet.of((EnsembleTeam(combo)
                                for size in range(2, team.size + 1)
                                for combo in combinations(team.members, size)),
                               pool.num_models)
    evals = evaluate_teams(subteams, pool, corr, method, threads=args.threads)
    # diversity of each sub-team on the negatives of the querying members
    members = np.asarray(team.members)
    member_corr = CorrectnessMatrix(corr.omega[members], corr.accuracies[members])
    rows = rpt.team_evaluations_to_dicts(evals)
    try:
        neg = sample_subset(negatives_any(member_corr), args.sample_size, args.seed)
        scores = [normalize(m, diversity_score(m, subteams.members, corr, neg)).tolist()
                  for m in MetricId]
        diversity = [{m.value: s for m, s in zip(MetricId, col)} for col in zip(*scores)]
    except EmptyNegativesError:
        diversity = [None] * len(rows)
    for row, div in zip(rows, diversity):
        row["diversity"] = div
    summary = summarize(f"query-{team.key}", evals, len(subteams),
                        float(corr.accuracies.max()))
    if _resolve_format(args) == "table":
        lines = [f"query {team.key} ({len(subteams)} teams, consensus={method.kind})"]
        for row in rows:
            div = row["diversity"]
            div_txt = ("  ".join(f"{k}={v:.3f}" for k, v in div.items())
                       if div else "no negatives")
            flag = "+" if row["beats_members"] else " "
            lines.append(
                f"{flag} {row['team']:>12} acc={100 * row['ensemble_accuracy']:.2f}% "
                f"m_max={100 * row['member_max_accuracy']:.2f}% {div_txt}"
            )
        lines.append(rpt.set_reports_to_table([summary]))
        _emit("\n".join(lines), args.out)
    else:
        _emit(rpt.dumps({
            "query_team": team.key,
            "consensus": method.kind,
            "teams": rows,
            "summary": rpt.set_report_to_dict(summary),
        }), args.out)
    return 0


# ---------------------------------------------------------------- parser

def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_pool_arg(p):
    p.add_argument("--pool", required=True, help="path to a pool manifest JSON")


def _add_sampling_args(p):
    p.add_argument("--sampling", choices=SCHEMES, default="any",
                   help="negative-sample scheme (default any)")
    p.add_argument("--focal", type=int, default=None,
                   help="focal model id (for --sampling focal)")
    p.add_argument("--sample-size", type=int, default=DEFAULT_SAMPLE_SIZE,
                   help=f"negative subset size (default {DEFAULT_SAMPLE_SIZE})")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _add_consensus_args(p):
    p.add_argument("--consensus", choices=METHODS, default="soft",
                   help="consensus method for accuracy (default soft)")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                   help=f"boosting penalty exponent (default {DEFAULT_GAMMA})")
    p.add_argument("--train-indices", default=None,
                   help="boosting training samples: one integer index per line")
    p.add_argument("--threads", type=_thread_count, default=1)


def _add_output_args(p, formats=("json", "csv", "table")):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=list(formats), default=None,
                   help="output format (default: by --out extension, else json)")
    p.set_defaults(formats=formats)


def _add_select_args(p):
    p.add_argument("--method", choices=["q", "fq", "eq"], required=True)
    p.add_argument("--metric", type=str.lower, default="gd",
                   choices=[m.value for m in MetricId],
                   help="diversity metric (default gd)")
    p.add_argument("--fq-mode", choices=FQ_MODES, default="all",
                   help="how member-focal keep votes combine (default all)")
    p.add_argument("--eq-metrics",
                   default=",".join(m.value for m in DEFAULT_EQ_METRICS),
                   help="comma-separated metrics fused by eq (default bd,kw,gd)")
    p.add_argument("--team-size", type=int, default=None,
                   help="restrict candidates to one team size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divsel",
        description="Evaluate, select and recommend high-diversity model ensembles "
                    "from recorded predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic prediction pool")
    p.add_argument("--config", required=True, help="synth config JSON")
    p.add_argument("--out-dir", required=True, help="directory for pool files")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("enumerate", help="count/list candidate teams")
    p.add_argument("--pool-size", type=int, required=True)
    p.add_argument("--team-size", type=int, default=None)
    p.add_argument("--list", action="store_true", help="also print each team")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("diversity", help="score candidate teams on one metric")
    _add_pool_arg(p)
    p.add_argument("--metric", type=str.lower, default="gd",
                   choices=[m.value for m in MetricId])
    p.add_argument("--team", default=None, help="score a single team, e.g. 0123")
    p.add_argument("--team-size", type=int, default=None)
    _add_sampling_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("select", help="select high-diversity teams")
    _add_pool_arg(p)
    _add_select_args(p)
    _add_sampling_args(p)
    p.add_argument("--rules-out", default=None, help="write learned rules JSON")
    p.add_argument("--rules-in", default=None, help="reuse stored rules JSON (fq only)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("consensus", help="run one consensus method on one team")
    _add_pool_arg(p)
    p.add_argument("--team", required=True)
    p.add_argument("--method", dest="consensus", required=True, choices=METHODS)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--train-indices", default=None)
    _add_output_args(p, formats=("json", "table"))
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("report", help="aggregate report for a selected set")
    _add_pool_arg(p)
    p.add_argument("--in", required=True, help="selected-set JSON from `select`")
    _add_consensus_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("recommend", help="full pipeline: select + evaluate + report")
    _add_pool_arg(p)
    _add_select_args(p)
    _add_sampling_args(p)
    _add_consensus_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("query", help="explain one team and its sub-teams")
    _add_pool_arg(p)
    p.add_argument("--team", required=True)
    p.add_argument("--sample-size", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--seed", type=int, default=0)
    _add_consensus_args(p)
    _add_output_args(p, formats=("json", "table"))
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # `divsel ... | head`: flush the rest into devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DivselError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
