"""Independent direct-from-formula oracles for the diversity metrics, the
sequential boosting-weight walk, focal-rule selection, the four consensus
votes and set summaries.

Deliberately written with plain Python loops and no shared code with the
library, so the two sides of every metric check fail independently.
"""

import math


def o_pair_counts(wi, wj):
    n11 = n10 = n01 = n00 = 0
    assert len(wi) == len(wj)
    for a, b in zip(wi, wj):
        if a == 1 and b == 1:
            n11 += 1
        elif a == 1 and b == 0:
            n10 += 1
        elif a == 0 and b == 1:
            n01 += 1
        else:
            n00 += 1
    return n11, n10, n01, n00


def o_ck(wi, wj):
    n11, n10, n01, n00 = o_pair_counts(wi, wj)
    den = (n11 + n10) * (n01 + n00) + (n11 + n01) * (n10 + n00)
    if den == 0:
        return 0.0
    return 2.0 * (n11 * n00 - n01 * n10) / den


def o_qs(wi, wj):
    n11, n10, n01, n00 = o_pair_counts(wi, wj)
    if n11 * n00 + n01 * n10 == 0:
        return 0.0
    return (n11 * n00 - n01 * n10) / (n11 * n00 + n01 * n10)


def o_bd(wi, wj):
    n11, n10, n01, n00 = o_pair_counts(wi, wj)
    return (n01 + n10) / (n11 + n10 + n01 + n00)


def o_pairwise_avg(pair_fn, rows):
    s = len(rows)
    total = 0.0
    pairs = 0
    for i in range(s - 1):
        for j in range(i + 1, s):
            total += pair_fn(rows[i], rows[j])
            pairs += 1
    return total / pairs


def o_fk(rows):
    s = len(rows)
    n = len(rows[0])
    p_bar = sum(sum(row) for row in rows) / (n * s)
    if p_bar * (1.0 - p_bar) == 0.0:
        return 1.0
    acc = 0.0
    for k in range(n):
        l = sum(rows[i][k] for i in range(s))
        acc += l * (s - l)
    return 1.0 - (acc / s) / (n * (s - 1) * p_bar * (1.0 - p_bar))


def o_kw(rows):
    s = len(rows)
    n = len(rows[0])
    acc = 0.0
    for k in range(n):
        l = sum(rows[i][k] for i in range(s))
        acc += l * (s - l)
    return acc / (n * s * s)


def o_gd(rows):
    s = len(rows)
    n = len(rows[0])
    counts = [0] * (s + 1)
    for k in range(n):
        failed = sum(1 - rows[i][k] for i in range(s))
        counts[failed] += 1
    p = [c / n for c in counts]
    p1 = sum(i / s * p[i] for i in range(1, s + 1))
    if p1 == 0.0:
        return 1.0
    p2 = sum(i * (i - 1) / (s * (s - 1)) * p[i] for i in range(1, s + 1))
    return 1.0 - p2 / p1


def o_raw(metric_name, rows):
    if metric_name == "ck":
        return o_pairwise_avg(o_ck, rows)
    if metric_name == "qs":
        return o_pairwise_avg(o_qs, rows)
    if metric_name == "bd":
        return o_pairwise_avg(o_bd, rows)
    if metric_name == "fk":
        return o_fk(rows)
    if metric_name == "kw":
        return o_kw(rows)
    if metric_name == "gd":
        return o_gd(rows)
    raise ValueError(metric_name)


def o_normalized(metric_name, rows):
    raw = o_raw(metric_name, rows)
    return 1.0 - raw if metric_name in ("bd", "kw", "gd") else raw


def o_boosting_weights(pred_rows, labels, train_indices, gamma):
    """The boosting walk: start uniform; at each training index, in sample
    order, multiply every wrong member's weight by e^gamma, then renormalize."""
    s = len(pred_rows)
    penalty = math.exp(gamma)
    weights = [1.0 / s] * s
    for k in sorted(train_indices):
        wrong = [pred_rows[i][k] != labels[k] for i in range(s)]
        if any(wrong):
            for i in range(s):
                if wrong[i]:
                    weights[i] *= penalty
            total = sum(weights)
            for i in range(s):
                weights[i] /= total
    return weights


def o_two_means(values):
    """1-D 2-means: centroids start at min and max, ties go to the low
    cluster, and the split is refined until the assignment repeats.

    Returns the cutoff (midpoint of the cluster gap) and the midpoints of
    the refinement steps, which sum floats and so are the only place an
    implementation may round a near-tie differently.
    """
    mid = (min(values) + max(values)) / 2.0
    low = [x <= mid for x in values]
    mids = []
    while True:
        lows = [x for x, is_low in zip(values, low) if is_low]
        highs = [x for x, is_low in zip(values, low) if not is_low]
        mid = (sum(lows) / len(lows) + sum(highs) / len(highs)) / 2.0
        mids.append(mid)
        new_low = [x <= mid for x in values]
        if new_low == low:
            return (max(lows) + min(highs)) / 2.0, mids
        low = new_low


def o_fq_rules(teams, scores):
    """One rule per (focal, size) pair seen among the teams, in that order.

    ``teams`` holds member tuples; ``scores[k]`` holds one score per member
    of ``teams[k]``, None when that focal has no score.  Returns the rules
    as (focal, size, cutoff, keep_all) tuples and the smallest distance of
    any value to a refinement midpoint (inf when no cell was split).
    """
    cells = {}
    for members, team_scores in zip(teams, scores):
        for focal, score in zip(members, team_scores):
            cell = cells.setdefault((focal, len(members)), [])
            if score is not None:
                cell.append(score)
    rules = []
    margin = math.inf
    for focal, size in sorted(cells):
        values = cells[(focal, size)]
        if len(set(values)) < 2:
            rules.append((focal, size, values[0] if values else 0.0, True))
            continue
        cutoff, mids = o_two_means(values)
        rules.append((focal, size, cutoff, False))
        margin = min([margin] + [abs(x - m) for x in values for m in mids])
    return rules, margin


def o_fq_select(teams, scores, rules, mode):
    """Kept (members, score) pairs: a member focal votes keep when its rule
    keeps all, it has no score, or its score is below the cutoff; "all",
    "any" or "majority" (more than half) of the votes keep the team, whose
    score is the mean of its member scores (0 when it has none)."""
    rule_of = {(focal, size): (cutoff, keep_all) for focal, size, cutoff, keep_all in rules}
    kept = []
    for members, team_scores in zip(teams, scores):
        votes = 0
        for focal, score in zip(members, team_scores):
            cutoff, keep_all = rule_of[(focal, len(members))]
            if keep_all or score is None or score < cutoff:
                votes += 1
        if mode == "all":
            keep = votes == len(members)
        elif mode == "any":
            keep = votes >= 1
        else:
            keep = 2 * votes > len(members)
        if keep:
            scored = [x for x in team_scores if x is not None]
            kept.append((members, sum(scored) / len(scored) if scored else 0.0))
    return kept


def o_eq_fuse(selections):
    """Teams kept by every selection, in the first one's order, with the mean
    of their scores across the selections."""
    maps = [dict(selection) for selection in selections]
    return [(members, sum(m[members] for m in maps) / len(maps))
            for members, _ in selections[0] if all(members in m for m in maps)]


def o_argmax(values):
    """Index of the largest value; ties go to the lowest index."""
    best = 0
    for c in range(1, len(values)):
        if values[c] > values[best]:
            best = c
    return best


def o_soft_vote(probs):
    """Per-sample soft vote: ``probs[i][k]`` is member i's class probability row
    on sample k; rows are summed in member order, divided by the team size,
    and the argmax taken."""
    s = len(probs)
    out = []
    for k in range(len(probs[0])):
        total = [0.0] * len(probs[0][k])
        for i in range(s):
            for c in range(len(total)):
                total[c] += probs[i][k][c]
        out.append(o_argmax([x / s for x in total]))
    return out


def o_boosting_vote(probs, weights):
    """Per-sample boosting vote: like ``o_soft_vote`` with member i's row scaled
    by ``weights[i]`` before it is added."""
    s = len(probs)
    out = []
    for k in range(len(probs[0])):
        total = [0.0] * len(probs[0][k])
        for i in range(s):
            for c in range(len(total)):
                total[c] += weights[i] * probs[i][k][c]
        out.append(o_argmax([x / s for x in total]))
    return out


def _o_vote_counts(preds, num_classes, k):
    counts = [0] * num_classes
    for row in preds:
        counts[row[k]] += 1
    return counts


def o_majority_vote(preds, num_classes):
    """Per-sample majority vote over member labels ``preds[i][k]``: the most-voted
    class when it has more than half the votes, else -1 (abstain)."""
    out = []
    for k in range(len(preds[0])):
        counts = _o_vote_counts(preds, num_classes, k)
        top = o_argmax(counts)
        out.append(top if 2 * counts[top] > len(preds) else -1)
    return out


def o_plurality_vote(preds, num_classes):
    """Per-sample plurality vote: the most-voted class, never abstaining."""
    return [o_argmax(_o_vote_counts(preds, num_classes, k)) for k in range(len(preds[0]))]


def o_summarize(label, teams, num_candidates, pool_max):
    """A set report, keyed as its JSON record, from one (key, accuracy, best
    member accuracy) triple per team.  The best team is the smallest key among
    those of highest accuracy; the standard deviation is the population one."""
    count = len(teams)
    report = {"method": label, "num_candidates": num_candidates, "num_selected": count,
              "acc_min": None, "acc_max": None, "acc_mean": None, "acc_std": None,
              "pool_max_accuracy": pool_max, "num_beats_members": 0,
              "pct_beats_members": 0.0, "num_beats_pool": 0, "pct_beats_pool": 0.0,
              "best_team": None, "best_accuracy": None}
    if count == 0:
        return report
    accs = [acc for _, acc, _ in teams]
    mean = sum(accs) / count
    best = max(accs)
    beats_members = sum(1 for _, acc, member_max in teams if acc >= member_max)
    beats_pool = sum(1 for acc in accs if acc >= pool_max)
    report.update(acc_min=min(accs), acc_max=best, acc_mean=mean,
                  acc_std=math.sqrt(sum((acc - mean) ** 2 for acc in accs) / count),
                  num_beats_members=beats_members, pct_beats_members=beats_members / count,
                  num_beats_pool=beats_pool, pct_beats_pool=beats_pool / count,
                  best_team=min(key for key, acc, _ in teams if acc == best),
                  best_accuracy=best)
    return report
