"""Fixed reference job: measures how fast this machine runs right now.

``run.py`` runs this script as a fresh process before and after every
timed divsel invocation and reports each invocation's wall time relative
to the reference runs around it.  The job does the kinds of work divsel
does, in about the same mix: a python start with a numpy import, many
numpy calls on small arrays, whole-array passes over 10,000 x 10
arrays, text formatting and parsing, and plain Python loops.  It uses
none of divsel's code, so a change to the program never changes it.
Its inputs are fixed, so its cost changes only with the machine.

    python3 perfbench/refjob.py
"""

import io

import numpy as np

SAMPLES, CLASSES, MODELS = 10_000, 10, 12


def main() -> None:
    rng = np.random.default_rng(12345)
    probs = rng.random((SAMPLES, CLASSES))
    labels = rng.integers(CLASSES, size=SAMPLES)
    omega = rng.random((MODELS, SAMPLES)) < 0.9
    teams = [np.sort(rng.choice(MODELS, size=int(rng.integers(2, MODELS + 1)), replace=False))
             for _ in range(500)]
    total = 0.0
    # many small numpy calls, as in one-team diversity scoring
    negatives = omega[:, :100]
    for _ in range(16):
        for members in teams:
            rows = negatives[members]
            total += float(np.mean(rows.sum(axis=0) == rows.shape[0])) + float(rows.mean())
    # whole-array passes, as in a consensus vote
    for i in range(60):
        combined = probs * (1 + i % 3) + probs[::-1]
        total += float(np.mean(combined.argmax(axis=1) == labels))
    # text formatting and parsing, as in writing and loading a pool
    text = io.StringIO()
    np.savetxt(text, probs[:2000], fmt="%.6f", delimiter=",")
    total += float(np.loadtxt(io.StringIO(text.getvalue()), delimiter=",").sum())
    # plain Python
    counts: dict[int, int] = {}
    for t in range(200_000):
        counts[t % 997] = counts.get(t % 997, 0) + 1
    print(total, len(counts))


if __name__ == "__main__":
    main()
