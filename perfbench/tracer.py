"""Traced divsel runs: spans recorded from outside the program, and their analysis.

Run as a child process of ``run.py``::

    python3 perfbench/tracer.py cli SPANS OUT RUN_ID -- <divsel arguments>
    python3 perfbench/tracer.py speedup RESULT MANIFEST TRAIN_INDICES

``cli`` times ``import divsel.cli`` in this fresh process, wraps the
public functions the CLI calls in spans (at the names the calling module
looks them up by), runs ``divsel.cli.main`` in-process with stdout
captured, and writes the captured output to OUT and the spans to SPANS.
Spans are kept in memory until the run ends.  The program itself is not
changed.  A wrapped name that no longer exists is recorded as missing.
``cli.main`` itself is not wrapped, so time spent in the CLI's own glue
between layer calls is left out of every span and shows as a gap in
``trace.coverage``.

``speedup`` times ``evaluate_set`` over every candidate at 1 and at 2
threads, with boosting consensus as ``report-boost-m10`` runs it, in
SPEEDUP_PAIRS pairs whose order alternates (1,2 then 2,1 ...).
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

SPEEDUP_PAIRS = 3
LAYERS = ("cli", "pool", "synth", "teaming", "sampling", "diversity", "selection",
          "consensus", "evaluation", "parallel", "report")


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans.

    Worker threads append spans concurrently: ``next`` on a count and
    ``list.append`` are single atomic steps under the interpreter lock.
    Tallies are keyed by thread, so no two threads update the same one.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        # per tallied function: its naming function and
        # {(first argument, parent, thread): [seconds, calls]}
        self.tallies: dict[str, tuple] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may add counts to."""
        stack = self._stack()
        sid = f"{self.run_id}:{next(self._ids)}"
        rec = {"id": sid, "name": name, "parent": stack[-1] if stack else None,
               "thread": threading.current_thread().name, "run": self.run_id,
               "counts": {}}
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    @contextmanager
    def adopt(self, parent: str):
        """Parent the spans a worker thread opens to a span of the submitting thread."""
        stack = self._stack()
        outer = not stack
        if outer:
            stack.append(parent)
        try:
            yield
        finally:
            if outer:
                stack.pop()

    def wrap(self, module: str, attr: str, name, counts=None) -> None:
        """Replace ``module.attr`` with a spanned version.

        ``name`` is a span name or a function of the call arguments giving
        one; ``counts(args, result)`` returns counters stored on the span.
        """
        mod = sys.modules.get(module) or importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return

        def spanned(*args, **kwargs):
            with self.span(_guarded(name, f"{attr}.unknown", args, kwargs)) as rec:
                result = fn(*args, **kwargs)
            rec["counts"].update(_guarded(counts, {}, args, result))
            return result

        setattr(mod, attr, spanned)

    def tally(self, module: str, attr: str, name) -> None:
        """Replace ``module.attr`` with a version that adds its time and one call
        to a tally under the open span, instead of opening a span.

        For functions called tens of thousands of times, where a span per call
        would cost more than the call and inflate the caller's layer.  Calls
        are tallied by their first argument; ``name`` maps it to a span name
        when the records are written, so the call itself pays only for two
        clock reads and a dictionary update.
        """
        mod = sys.modules.get(module) or importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{attr}")
            return
        clock, stack, current = time.perf_counter, self._stack, threading.current_thread
        tallies: dict[tuple, list] = {}
        self.tallies[f"{module}.{attr}"] = (name, tallies)

        def tallied(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            open_spans = stack()
            where = (open_spans[-1] if open_spans else None, current().name)
            try:
                total = tallies.setdefault((args[0] if args else None, *where), [0.0, 0])
            except TypeError:  # a first argument that cannot be a key
                total = tallies.setdefault((None, *where), [0.0, 0])
            total[0] += elapsed
            total[1] += 1
            return result

        setattr(mod, attr, tallied)

    def tally_records(self) -> list[dict]:
        return [{"name": _guarded(name, f"{qualname}.unknown", first), "parent": parent,
                 "thread": thread, "run": self.run_id, "seconds": seconds, "calls": calls}
                for qualname, (name, tallies) in self.tallies.items()
                for (first, parent, thread), (seconds, calls) in tallies.items()]

    def wrap_parallel_map(self, module: str) -> None:
        mod = sys.modules[module]
        fn = getattr(mod, "parallel_map", None)
        if fn is None:
            self.missing.append(f"{module}.parallel_map")
            return

        def spanned(work, items, *args, **kwargs):
            with self.span("parallel.parallel_map") as rec:
                def adopted(item):
                    with self.adopt(rec["id"]):
                        return work(item)
                return fn(adopted, items, *args, **kwargs)

        mod.parallel_map = spanned


def _guarded(derive, fallback, *args):
    """``derive(*args)``, or ``fallback`` when it is not a function or no longer
    fits the program's call signature (the trace then degrades, never fails)."""
    if not callable(derive):
        return derive if derive is not None else fallback
    try:
        return derive(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return fallback


def _metric(args, kwargs):
    """The MetricId a scoring or rule-learning call was given."""
    return args[0] if args else kwargs["metric"]


def _kind(metric) -> str:
    return "pairwise" if metric.pairwise else "team"


def _scores_count(args, rules) -> dict:
    """Counters of one learn_fq_rules call: rule cells, keep-all cells, team scores."""
    cands, table = args[1], args[2]
    return {"rule_cells": len(rules), "keep_all_cells": sum(r.keep_all for r in rules),
            "scores": sum(f in table.neg_sets for t in cands for f in t.members)}


def install(tracer: Tracer) -> None:
    """Wrap each public function the workloads' commands call, where the caller looks it up."""
    w = tracer.wrap
    cli = "divsel.cli"
    w(cli, "load_config", "synth.load_config")
    w(cli, "generate_pool", "synth.generate_pool")
    w(cli, "write_pool", "pool.write_pool")
    w(cli, "load_pool", "pool.load_pool")
    w(cli, "correctness", "pool.correctness")
    w(cli, "enumerate_teams", "teaming.enumerate_teams",
      lambda a, r: {"candidates": len(r)})
    w(cli, "parse_team", "teaming.parse_team")
    w(cli, "focal_negative_sets", "sampling.focal_negative_sets",
      lambda a, r: {"neg_indices": sum(len(s) for s in r.values())})
    w(cli, "negatives_any", "sampling.negatives_any")
    w(cli, "sample_subset", "sampling.sample_subset", lambda a, r: {"neg_indices": len(r)})
    w(cli, "FocalScoreTable", "selection.FocalScoreTable")
    w(cli, "learn_fq_rules",
      lambda a, k: f"selection.learn_fq_rules.{_metric(a, k).value}", _scores_count)
    w(cli, "fq_select", "selection.fq_select", lambda a, r: {"selected": len(r)})
    w(cli, "eq_fuse", "selection.eq_fuse", lambda a, r: {"selected": len(r)})
    # one-team scoring: query calls diversity_score, selection calls raw_score
    # for every (focal, team) score; tallied, not spanned
    tracer.tally(cli, "diversity_score", lambda m: f"diversity.diversity_score.{_kind(m)}")
    tracer.tally("divsel.selection", "raw_score", lambda m: f"diversity.raw_score.{_kind(m)}")
    w(cli, "evaluate_set",
      lambda a, k: "evaluation.evaluate_set."
                   + ("baseline" if (a[4] if len(a) > 4 else k["label"]) == "baseline"
                      else "selected"),
      lambda a, r: {"teams": r.count})
    w(cli, "evaluate_teams", "evaluation.evaluate_teams")
    w(cli, "summarize", "evaluation.summarize")
    w("divsel.evaluation", "predict", "consensus.predict")
    w("divsel.evaluation", "ensemble_accuracy", "consensus.ensemble_accuracy")
    w("divsel.consensus", "boosting_weights", "consensus.boosting_weights")
    tracer.wrap_parallel_map("divsel.evaluation")
    for attr in ("load_selected_set", "dumps", "set_report_to_dict", "selected_set_to_dict",
                 "team_evaluations_to_dicts"):
        w("divsel.report", attr, f"report.{attr}")


def run_cli(spans_path: Path, out_path: Path, run_id: str, argv: list[str]) -> int:
    tracer = Tracer(run_id)
    with tracer.span("cli.startup"):
        import divsel.cli  # noqa: F401  (timed: the import a fresh CLI process pays)
    install(tracer)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        code = sys.modules["divsel.cli"].main(argv)
    finally:
        sys.stdout = real_stdout
    end = time.perf_counter()
    out_path.write_text(captured.getvalue())
    spans_path.write_text(json.dumps({"run": run_id, "end": end, "missing": tracer.missing,
                                      "spans": tracer.spans,
                                      "tallies": tracer.tally_records()}) + "\n")
    return code


def run_speedup(result_path: Path, manifest: Path, train_path: Path) -> int:
    import numpy as np
    from divsel import consensus, evaluation, pool, teaming
    loaded = pool.load_pool(manifest)
    corr = pool.correctness(loaded)
    method = consensus.ConsensusMethod(
        kind="boosting", train_indices=np.loadtxt(train_path, dtype=np.int64, ndmin=1))
    cands = teaming.enumerate_teams(loaded.num_models)
    ratios = []
    for pair in range(SPEEDUP_PAIRS):
        times = {}
        for threads in ((1, 2) if pair % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            evaluation.evaluate_set(cands.teams, loaded, corr, method, "baseline",
                                    threads=threads)
            times[threads] = time.perf_counter() - t0
        ratios.append(times[1] / times[2])
    result_path.write_text(json.dumps({"ratios": ratios}))
    return 0


# ---------------------------------------------------------------- analysis

def tally_spans(trace: dict) -> list[dict]:
    """The trace's tallies as spans of their summed duration, children of the
    span that was open when they were called."""
    return [{"id": f"{t['run']}:tally{i}", "name": t["name"], "parent": t["parent"],
             "thread": t["thread"], "run": t["run"], "start": 0.0, "end": t["seconds"],
             "counts": {"calls": t["calls"]}}
            for i, t in enumerate(trace["tallies"])]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the time its children on the same thread cover."""
    by_id = {s["id"]: s for s in spans}
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


def layer_metrics(traces: list[dict], total_s: float) -> dict[str, float]:
    """Per-layer metrics from the span files of the traced processes.

    ``total_s`` is the traced time: from spawning each process to the end
    of its CLI work.  Busy times sum spans over every thread.  Self times,
    and the coverage of ``total_s`` they give, count only the main thread,
    which waits in ``parallel_map`` while workers run.  Time outside every
    span (interpreter start, the CLI's glue) is not covered.  The startup
    time is the command's own (the last trace), not the set-up's.
    """
    spans = [s for t in traces for s in t["spans"] + tally_spans(t)]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(prefix):
        return sum(s["end"] - s["start"] for s in spans if s["name"].startswith(prefix))

    def count(prefix, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"].startswith(prefix))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["thread"] == "MainThread"
                                   and s["name"].split(".")[0] == layer)
    m["cli.startup_s"] = sum(s["end"] - s["start"] for s in traces[-1]["spans"]
                             if s["name"] == "cli.startup")
    m["pool.load_s"] = dur("pool.load_pool")
    m["pool.correctness_s"] = dur("pool.correctness")
    m["pool.write_s"] = dur("pool.write_pool")
    m["synth.generate_s"] = dur("synth.generate_pool")
    m["teaming.enumerate_s"] = dur("teaming.enumerate_teams")
    m["teaming.candidates"] = count("teaming.enumerate_teams", "candidates")
    m["sampling.negatives_s"] = dur("sampling.")
    m["sampling.neg_indices"] = count("sampling.", "neg_indices")
    for metric in ("bd", "kw", "gd"):
        m[f"selection.learn_s.{metric}"] = dur(f"selection.learn_fq_rules.{metric}")
    learn_s = dur("selection.learn_fq_rules.")
    m["selection.apply_s"] = dur("selection.fq_select")
    m["selection.fuse_s"] = dur("selection.eq_fuse")
    m["selection.scores"] = count("selection.learn_fq_rules.", "scores")
    m["selection.scores_per_s"] = m["selection.scores"] / learn_s if learn_s else 0.0
    m["selection.rule_cells"] = count("selection.learn_fq_rules.", "rule_cells")
    m["selection.keep_all_cells"] = count("selection.learn_fq_rules.", "keep_all_cells")
    final = [s for s in spans if s["name"] in ("selection.eq_fuse", "selection.fq_select")]
    m["selection.selected"] = final[-1]["counts"].get("selected", 0) if final else 0
    for kind in ("pairwise", "team"):
        m[f"diversity.score_s.{kind}"] = sum(s["end"] - s["start"] for s in spans
                                             if s["name"].startswith("diversity.")
                                             and s["name"].endswith(kind))
    m["diversity.calls"] = count("diversity.", "calls")
    predicts = [s for s in spans if s["name"] == "consensus.predict"]
    m["consensus.weights_s"] = dur("consensus.boosting_weights")
    m["consensus.vote_s"] = (sum(own[s["id"]] for s in predicts)
                             + dur("consensus.ensemble_accuracy"))
    m["consensus.teams"] = len(predicts)
    m["evaluation.baseline_s"] = dur("evaluation.evaluate_set.baseline")
    m["evaluation.selected_s"] = dur("evaluation.evaluate_set.selected")
    m["evaluation.teams_s"] = dur("evaluation.evaluate_teams")

    def within(span_id, ancestor):
        while span_id is not None:
            if span_id == ancestor:
                return True
            span_id = by_id[span_id]["parent"] if span_id in by_id else None
        return False

    selected = [s for s in spans if s["name"] == "evaluation.evaluate_set.selected"]
    base = sum(s["counts"].get("teams", 0) for s in selected)
    misses = sum(1 for p in predicts for s in selected if within(p["id"], s["id"]))
    m["evaluation.cache_base"] = base
    m["evaluation.cache_hit_ratio"] = (base - misses) / base if base else 0.0
    m["report.render_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith("report.")
                               and s["name"] != "report.load_selected_set")
    m["trace.coverage"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / total_s
    m["trace.spans"] = len(spans)
    m["trace.missing"] = len({name for t in traces for name in t["missing"]})
    return m


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        spans, out, run_id, sep, *cli_argv = argv[1:]
        if sep != "--":
            raise SystemExit("usage: tracer.py cli SPANS OUT RUN_ID -- ARGS")
        return run_cli(Path(spans), Path(out), run_id, cli_argv)
    if mode == "speedup":
        return run_speedup(Path(argv[1]), Path(argv[2]), Path(argv[3]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
