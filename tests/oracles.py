"""Independent direct-from-formula oracles for the diversity metrics and
the sequential boosting-weight walk.

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
