"""hetflow benchmark: run one workload through ``hetflow.cli.main`` and report.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload sweep-map --seed 7 --seconds 16 --trace 0

The process is one closed loop: it builds the workload's commands from the
seed, then runs whole rounds of them, one command at a time, until
``--seconds`` have passed and the run holds enough commands for its tail
percentile.  Every output of the first round is checked; later rounds must
reproduce it byte for byte.  The last line of standard output is the result
as JSON; the line before it is the run record (machine and versions).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones, per round, plus the tracing overhead between the two kinds of round.

Timings are reported at a fixed machine speed: a short pure-Python loop, the
yardstick, is timed before every command and around every set-up probe, and
all of a run's times are scaled by ``YARDSTICK_REF_S`` over the run's mean
yardstick.  A shared host can change speed by a factor of two over minutes
(a 2-vCPU VM did), and wall times move with it; the scaled times do not.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-map", "verify-suites", "flow-ensemble", "homothety-runs")
SETUP_PROBES = 7  # spread over the run, between rounds
HARD_STOP_S = 140.0  # stop starting rounds after this, whatever the counts
YARDSTICK_LOOPS = 25_000  # about 2 ms of interpreter work
YARDSTICK_REF_S = 2.0e-3  # reported times are at the speed where the loop takes this


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import, build the inputs, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def _import_package():
    """Import hetflow from this checkout's ``src``; never from anywhere else."""
    if not (SRC / "hetflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hetflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetflow
    import hetflow.cli

    if Path(hetflow.__file__).resolve().parent != SRC / "hetflow":
        raise SystemExit(f"perfbench: imported hetflow from {hetflow.__file__}, not {SRC}")
    return hetflow


def _yardstick() -> float:
    """Seconds the fixed loop takes now: the best of three tries."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(YARDSTICK_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_setup(args) -> tuple[float, list]:
    """Seconds from spawning a fresh interpreter to its first command being
    ready, and the yardsticks taken around that probe."""
    yards = [_yardstick() for _ in range(3)]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {rc}, said {line!r})")
    yards += [_yardstick() for _ in range(3)]
    return elapsed, yards


def _nearest_rank(sorted_values, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _run_round(cli, commands, outdir: Path) -> tuple[list, list, list]:
    """Run every command once; return latencies (s), exit codes and the
    yardstick (s) taken before each command."""
    outdir.mkdir(parents=True, exist_ok=True)
    latencies, codes, yards = [], [], []
    for j, command in enumerate(commands):
        argv = [*command.argv, "--output", str(outdir / f"c{j:03d}.out")]
        yards.append(_yardstick())
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            code = -1
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
    return latencies, codes, yards


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _record(args, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **extra,
    }


def _layer_metrics(tracer, spans: dict, traced_rounds: int, drift: float, overhead: float) -> dict:
    from tracer import COUNTED, TIMED

    calls, self_s = tracer.layer_totals(spans)
    per_round = 1.0 / traced_rounds
    out = {}
    for name in TIMED:
        if name in COUNTED:
            out[f"{name}.calls"] = (calls.get(name, 0) * per_round, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) * per_round, "s")
    classify_calls = calls.get("homothety.classify", 0)
    quads = tracer.quadrature_under_classify(spans)
    out["homothety.quadrature_per_cell"] = (quads / classify_calls if classify_calls else 0.0, "ratio")
    flow = tracer.flow_counts(spans)
    out["het_flow.rhs_evals"] = (flow["rhs_evals"] * per_round, "count")
    per_collapse = flow["collapse_rhs_evals"] / flow["collapse_runs"] if flow["collapse_runs"] else 0.0
    out["het_flow.rhs_evals_per_collapse"] = (per_collapse, "count")
    out["het_flow.flux_volume_drift"] = (drift, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    hetflow = _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    commands = workload.build(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    # The sweep's pool size comes from HETFLOW_THREADS.  Two threads taking
    # turns at the GIL make a sweep's time spread by half between runs on a
    # shared host, yardstick or not, so the benchmark runs the pool's serial
    # path whatever the caller's environment says.
    os.environ["HETFLOW_THREADS"] = "1"
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(hetflow)
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, hetflow.cli, workload, commands, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, cli, workload, commands, tracer, work: Path) -> int:
    import workloads

    n = len(commands)
    # Untraced runs time set-up with fresh interpreters, one before the first
    # round and one after each round until SETUP_PROBES are taken, so that the
    # median samples the whole run.  Probe time does not count toward --seconds.
    probes = [] if tracer is None else None
    yards = []  # every yardstick of the run (s)
    probe_s = 0.0

    def probe():
        nonlocal probe_s
        if probes is not None and len(probes) < SETUP_PROBES:
            t0 = time.perf_counter()
            elapsed, probe_yards = _probe_setup(args)
            probes.append(elapsed)
            yards.extend(probe_yards)
            probe_s += time.perf_counter() - t0

    keep, cur = work / "keep", work / "cur"
    reference = None  # digests of the first round's outputs
    untraced_times, traced_times, latencies = [], [], []  # round times (s), call latencies (s)
    failed_ops = [0] * n  # failures per command, over all rounds
    first_codes = None
    t_begin = time.perf_counter()
    rounds = 0
    probe()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            lat, codes, round_yards = _run_round(cli, commands, cur)
        finally:
            if traced:
                tracer.uninstall()
        digests = [_digest(cur / f"c{j:03d}.out") for j in range(n)]
        if reference is None:
            reference, first_codes = digests, codes
            cur.rename(keep)
        else:
            shutil.rmtree(cur)
        for j in range(n):
            if codes[j] != 0 or digests[j] is None or digests[j] != reference[j]:
                failed_ops[j] += 1
        rounds += 1
        total = sum(lat)
        (traced_times if traced else untraced_times).append(total)
        latencies += lat
        yards += round_yards
        probe()
        elapsed = time.perf_counter() - t_begin - probe_s
        enough = (tracer is not None and rounds % 2 == 0) or (
            tracer is None and rounds >= 2 and len(latencies) >= workload.min_commands)
        # Stop at the round boundary nearest to --seconds.
        if (enough and elapsed + 0.5 * total >= args.seconds) or (elapsed >= HARD_STOP_S and rounds >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured_s = time.perf_counter() - t_begin - probe_s
    while probes is not None and len(probes) < SETUP_PROBES:
        probe()

    # Check the first round's outputs.  A wrong output fails that command in
    # every round that reproduced it.
    correct = True
    drift = 0.0
    for j, command in enumerate(commands):
        if first_codes[j] != 0:
            continue
        text = (keep / f"c{j:03d}.out").read_text()
        try:
            problems = command.check(text)
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [f"check raised {exc!r}"]
        if problems:
            correct = False
            failed_ops[j] = rounds
            print(f"perfbench: {' '.join(command.argv)}:", *problems[:5], sep="\n  ", file=sys.stderr)
        if command.argv[0] == "flow":
            drift = max(drift, workloads.flux_volume_drift(text))

    units = sum(c.units for c in commands)
    extra = {
        "rounds": rounds,
        "commands_per_round": n,
        "units_per_round": units,
        "unit": workload.unit,
        "measured_s": measured_s,
        "round_wall_s": untraced_times,
        "sweep_workers": cli._worker_count(),
    }
    if tracer is None:
        # Wall times at the reference speed (see the module docstring).
        yardstick = statistics.fmean(yards)
        scale = YARDSTICK_REF_S / yardstick
        ordered = sorted(latencies)
        tail = _nearest_rank(ordered, workload.tail_pct)
        metrics = {
            "setup_s": (scale * statistics.median(probes), "s"),
            "run_s": (scale * statistics.fmean(untraced_times), "s"),
            "work_per_s": (units * rounds / (scale * sum(untraced_times)), "ops/s"),
            "cmd_p50_ms": (1e3 * scale * _nearest_rank(ordered, 50.0), "ms"),
            "cmd_tail_ms": (1e3 * scale * tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra.update(yardstick_s=yardstick, yardstick_ref_s=YARDSTICK_REF_S,
                     setup_probes_wall_s=probes, tail_percentile=workload.tail_pct, latency_samples=len(ordered),
                     samples_beyond_tail=sum(1 for x in ordered if x > tail))
    else:
        overhead = statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
        spans = tracer.arrays()
        metrics = _layer_metrics(tracer, spans, len(traced_times), drift, overhead)
        trace_dir = BENCH_DIR / "_traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(str(trace_dir / f"{args.workload}.npz"), spans)
        extra.update(traced_rounds=len(traced_times), untraced_run_s=statistics.median(untraced_times),
                     traced_run_s=statistics.median(traced_times), trace_overhead=overhead,
                     spans=len(tracer.start))

    print(json.dumps({"record": _record(args, extra)}))
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * n,
        "failed": sum(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
