"""divsel benchmark: times the public CLI end to end, and traces one run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload recommend-m10 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

One client drives the CLI in a closed loop: each invocation is a fresh
``python3 -m divsel.cli`` process that starts after the previous one has
exited.  Before that, ``divsel synth`` generates the workload's pool a
few times (the set-up).  Every timed child runs between two runs of a
fixed reference job (``refjob.py``), and its time is reported in
calibrated seconds: its wall time scaled by the reference job's nominal
time over the reference runs around it, so that the machine's changing
speed cancels out.  With ``--trace 0`` the last line of stdout is a
JSON object holding the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` the same loop runs first, then one traced synth and
one traced command (see ``tracer.py``), and the JSON holds the per-layer
metrics.  Every output is checked; see ``workloads.py`` and README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracer
from workloads import (NUM_CLASSES, NUM_SAMPLES, WORKLOADS, Workload, check_output,
                       cli_args, make_inputs, manifest_files, synth_args)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
DEFAULT_SEED = 0
SETUP_REPS = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
MIN_COVERAGE = 0.95
# Wall time of one reference job on the quiet 2-vCPU VM the benchmark was
# sized on; it only sets the scale of the calibrated seconds.
REF_S = 0.48


class BenchError(Exception):
    """The benchmark cannot measure at all (missing program, failed set-up)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child(NamedTuple):
    start: float  # time.perf_counter() just before the child was spawned
    wall_s: float
    code: int
    peak_rss_mb: float


def spawn(argv: list[str], out: Path, err: Path) -> Child:
    """Run one child to completion, with stdout and stderr sent to files.

    The peak RSS comes from the child's own rusage.  A child still running
    after CHILD_TIMEOUT_S is killed and reported with its signal.
    """
    with out.open("wb") as fout, err.open("wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t0, wall, proc.returncode, usage.ru_maxrss / 1024.0)


def reference(procs: int) -> float:
    """Wall time of ``procs`` reference jobs started together, one per thread the
    timed command uses, so that the reference needs the same cores it does."""
    t0 = time.perf_counter()
    jobs = [subprocess.Popen([sys.executable, str(HERE / "refjob.py")], cwd=ROOT,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(procs)]
    # a plain wait: Popen.wait with a timeout polls, in steps of up to 50 ms
    killers = [threading.Timer(CHILD_TIMEOUT_S, job.kill) for job in jobs]
    for killer in killers:
        killer.start()
    try:
        codes = [job.wait() for job in jobs]
    finally:
        for killer in killers:
            killer.cancel()
            killer.join()
    wall = time.perf_counter() - t0
    if any(codes):
        raise BenchError(f"reference job exited {codes}")
    return wall


def calibrated(walls: list[float], refs: list[float]) -> list[float]:
    """Each wall time scaled by REF_S over the mean of the reference runs just
    before and just after it (``refs`` has one more entry than ``walls``)."""
    return [wall * 2 * REF_S / (before + after)
            for wall, before, after in zip(walls, refs, refs[1:])]


def divsel(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "divsel.cli", *args]


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(w: Workload) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "M": w.num_models, "N": NUM_SAMPLES, "C": NUM_CLASSES, "teams": w.teams}


def setup(inputs, work: Path) -> tuple[list[float], list[float]]:
    """Generate the pool SETUP_REPS times, each between reference runs; each
    must write the same bytes.  Returns the wall times and reference times."""
    times, refs, digest = [], [reference(1)], None
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs.pool_dir, ignore_errors=True)
        child = spawn(divsel(synth_args(inputs)), work / "synth.out", work / "synth.err")
        if child.code != 0:
            raise BenchError(f"divsel synth exited {child.code}: "
                             + (work / "synth.err").read_text()[-2000:])
        times.append(child.wall_s)
        refs.append(reference(1))
        got = tree_digest(inputs.pool_dir)
        if digest not in (None, got):
            raise BenchError("divsel synth wrote different pool bytes for the same config")
        digest = got
    return times, refs


def closed_loop(w: Workload, inputs, work: Path, seconds: float) -> dict:
    """Invoke the CLI back to back, with a reference run after each, until the
    next invocation would overrun ``seconds``."""
    argv = divsel(cli_args(w, inputs))
    walls, rss, digests, failures = [], [], [], []
    first_output = None
    t0 = time.perf_counter()
    refs = [reference(w.threads)]
    while True:
        out, err = work / "cli.out", work / "cli.err"
        child = spawn(argv, out, err)
        refs.append(reference(w.threads))
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        stderr = err.read_bytes()
        if child.code != 0 or b"Traceback" in stderr:
            failures.append(f"exit {child.code}: {stderr.decode(errors='replace')[-500:]}")
            digests.append(None)
        else:
            data = out.read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
            if first_output is None:
                first_output = data
        elapsed = time.perf_counter() - t0
        next_s = statistics.median(walls) + statistics.median(refs)
        if len(walls) >= MIN_RUNS and elapsed + next_s > seconds:
            break
    return {"walls": walls, "refs": refs, "rss": rss, "digests": digests,
            "failures": failures, "first_output": first_output}


def check_runs(w: Workload, inputs, seed: int, loop: dict) -> tuple[int, list[str]]:
    """Failed-run count and problems: checks on the output, byte identity across runs."""
    problems = list(loop["failures"])
    failed = len(loop["failures"])
    good = [d for d in loop["digests"] if d is not None]
    if loop["first_output"] is not None:
        output_problems = check_output(w, inputs, loop["first_output"].decode())
        recorded = json.loads((HERE / "digests.json").read_text()).get(w.name)
        if seed == DEFAULT_SEED and recorded is not None and good[0] != recorded:
            output_problems.append(f"sha256 {good[0]} differs from the recorded {recorded}")
        if output_problems:
            # the runs that printed these bytes fail; other bytes are counted below
            failed += sum(d == good[0] for d in good)
            problems += output_problems
        odd = sum(d != good[0] for d in good)
        if odd:
            failed += odd
            problems.append(f"{odd} runs printed other bytes than the first")
    return failed, problems


def traced(w: Workload, inputs, work: Path, loop: dict, setup_s: float,
           run_s: float) -> tuple[dict, list[str]]:
    """One traced synth and one traced command, each between reference runs;
    per-layer metrics and problems."""
    problems = []
    script = [sys.executable, str(HERE / "tracer.py")]
    traced_pool = work / "pool-traced"
    runs = [("synth", synth_args(inputs, traced_pool)), (w.name, cli_args(w, inputs))]
    traces, wall_total, traced_total, outputs = [], 0.0, 0.0, {}
    for run_id, args in runs:
        spans, out = work / f"spans-{run_id}.json", work / f"traced-{run_id}.out"
        procs = 1 if run_id == "synth" else w.threads
        before = reference(procs)
        child = spawn([*script, "cli", str(spans), str(out), run_id, "--", *args],
                      work / "traced.out", work / "traced.err")
        if child.code != 0:
            raise BenchError(f"traced {run_id} exited {child.code}: "
                             + (work / "traced.err").read_text()[-2000:])
        wall_total += calibrated([child.wall_s], [before, reference(procs)])[0]
        traces.append(json.loads(spans.read_text()))
        # perf_counter is the system-wide monotonic clock, so the child's
        # timestamps compare with ours: spawn to the end of the CLI's work
        traced_total += traces[-1]["end"] - child.start
        outputs[run_id] = out.read_bytes()
        shutil.copy(spans, WORK / f"spans-{w.name}-{run_id}.json")

    if tree_digest(traced_pool) != tree_digest(inputs.pool_dir):
        problems.append("traced synth wrote other pool bytes than the untraced set-up")
    good = [d for d in loop["digests"] if d is not None]
    if not good or hashlib.sha256(outputs[w.name]).hexdigest() != good[0]:
        problems.append("traced output differs from the CLI output")

    m = tracer.layer_metrics(traces, traced_total)
    m["pool.bytes_read"] = sum(p.stat().st_size for p in manifest_files(inputs.manifest))
    m["pool.bytes_written"] = sum(p.stat().st_size for p in traced_pool.iterdir())
    m["report.bytes_out"] = len(outputs[w.name])
    m["trace.overhead_s"] = wall_total - (setup_s + run_s)
    if m["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"layer self times cover {m['trace.coverage']:.3f} of the traced "
                        f"time, below {MIN_COVERAGE}")
    m["parallel.speedup"] = 0.0
    if w.name == "report-boost-m10":
        result = work / "speedup.json"
        child = spawn([*script, "speedup", str(result), str(inputs.manifest),
                       str(inputs.train_indices)], work / "speedup.out", work / "speedup.err")
        if child.code == 0:
            ratios = json.loads(result.read_text())["ratios"]
            m["parallel.speedup"] = statistics.median(ratios)
            print(f"{w.name}: parallel.speedup pairs: "
                  + ", ".join(f"{r:.3f}" for r in ratios))
        else:
            m["trace.missing"] += 1
    for name in sorted({name for t in traces for name in t["missing"]}):
        print(f"missing span: {name} (the program no longer has it)", file=sys.stderr)
    return m, problems


def measure(spec: dict, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object for the last line of stdout."""
    work = WORK / f"{w.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = make_inputs(w, seed, work)
        setup_walls, setup_refs = setup(inputs, work)
        loop = closed_loop(w, inputs, work, seconds)
        failed, problems = check_runs(w, inputs, seed, loop)
        run_s = statistics.median(calibrated(loop["walls"], loop["refs"]))
        values = {
            "run_s": run_s,
            "teams_per_s": w.teams / run_s,
            "setup_s": statistics.median(calibrated(setup_walls, setup_refs)),
            "peak_rss_mb": statistics.median(loop["rss"]),
        }
        raw = {"run_wall_s": statistics.median(loop["walls"]),
               "setup_wall_s": statistics.median(setup_walls),
               "ref_s": statistics.median(loop["refs"])}
        if trace:
            layer, trace_problems = traced(w, inputs, work, loop, values["setup_s"], run_s)
            problems += trace_problems
            values = layer
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for metric in spec[group]:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": float(values[name]), "unit": metric["unit"]}
    attempted = len(loop["walls"])
    record = {"workload": w.name, "seed": seed, "trace": int(trace), **environment(w),
              "runs": attempted, "failed": failed, "output_sha256": loop["digests"][0],
              "walls_s": loop["walls"], "ref_walls_s": loop["refs"],
              "setup_walls_s": setup_walls, "setup_ref_walls_s": setup_refs,
              "uncalibrated": raw, "problems": problems,
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    (WORK / f"record-{w.name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for problem in problems:
        print(f"{w.name}: problem: {problem}", file=sys.stderr)
    print(f"{w.name}: seed {seed}, {attempted} runs, fail_ratio {failed}/{attempted}, "
          f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"cpu {record['cpu']}, M={w.num_models} N={record['N']} C={record['C']} "
          f"teams={w.teams}")
    print(f"{w.name}: uncalibrated medians: run {raw['run_wall_s']:.4f} s, "
          f"setup {raw['setup_wall_s']:.4f} s, reference job {raw['ref_s']:.4f} s "
          f"({w.threads} at once)")
    for name, v in metrics.items():
        print(f"{w.name}: {name} = {v['value']:.6g} {v['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "divsel" / "cli.py").is_file():
        print("error: no divsel source at src/divsel; run from the root of a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        results = {name: measure(spec, WORKLOADS[name], args.seed, args.seconds,
                                 bool(args.trace))
                   for name in (names if args.workload == "all" else [args.workload])}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
