"""Run one benchmark workload against the package in ./src and print its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout.  The workload runs whole
rounds of ops (see workloads.py) in a closed loop with one client until
another round would overrun --seconds, then every op's result is checked.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run's metadata.  Both
also go to bench/out/.

Every time behind an end-to-end metric is scaled to a reference speed,
because on a shared host a CPU's speed can swing by a third within
seconds.  A fixed unit of work that touches no package code is timed
before and after each op and set-up probe, on the one CPU the run is
pinned to: a pure-Python loop (``calibration_unit``) around in-process
ops, the start of a bare interpreter (``start_unit``) around ops and
probes that start a process.  Each time is multiplied by the unit's
reference time over the median of the unit's times around it.  The
wall-clock figures are in the metadata line under "wall_metrics".

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds of the same ops and reports per-layer metrics from the
traced ones (see layertrace.py), plus the tracing overhead.

Exit code 2, with no result printed, when the checkout holds no package
source.
"""
from __future__ import annotations

import argparse
import functools
import gzip
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
CAL_STEPS = 2000
CAL_REF_S = 0.001  # what calibration_unit takes at the reference speed
START_REF_S = 0.015  # what start_unit takes at the reference speed
PROBE_CAL_UNITS = 3  # start_unit runs timed around each set-up probe
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "1"
    if name.endswith("_s"):
        return "s"
    return "count"


def calibration_unit() -> float:
    """Seconds taken by a fixed pure-Python loop that touches no package code."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    x = 1
    for i in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) % (1 << 61)
        table[x & 1023] = table.get(x & 1023, 0) + i
    return perf_counter() - t0


def start_unit() -> float:
    """Seconds to start and end a bare interpreter (no site, no environment)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - t0


# How each kind of op is calibrated: in-process ops by the interpreter loop,
# ops that start a process (CLI commands, set-up probes) by a bare start.
IN_PROCESS = (calibration_unit, CAL_REF_S)
NEW_PROCESS = (start_unit, START_REF_S)


def at_reference_speed(times: list[float], cals: list[float], ref_s: float) -> list[float]:
    """Scale each time by ref_s over the median calibration time around it.

    cals[j] was timed just before times[j] and cals[j + 1] just after it.
    """
    return [t * ref_s / statistics.median(cals[max(0, j - 1) : j + 3]) for j, t in enumerate(times)]


class Phase:
    """Ops, outputs and timings of a run of whole rounds.

    A calibrated phase also times its calibration unit before each op and
    after the last, and keeps every op's time at the reference speed.
    """

    def __init__(self, calibration: tuple | None = None) -> None:
        self.calibration = calibration
        self.outputs: list[tuple] = []
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.cals: list[float] = []
        self.scaled: list[float] = []

    def run_round(self, workload, ops, run_op, tracer=None) -> float:
        from workloads import OpError

        workload.start_round()
        latencies, cals = [], []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            if self.calibration:
                cals.append(self.calibration[0]())
            t0 = perf_counter()
            try:
                out = run_op(op)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                out = OpError(repr(exc))
            latencies.append(perf_counter() - t0)
            self.outputs.append((op, out))
        self.latencies += latencies
        self.round_s.append(sum(latencies))
        if self.calibration:
            unit, ref_s = self.calibration
            cals.append(unit())
            self.cals += cals
            self.scaled += at_reference_speed(latencies, cals, ref_s)
        return self.round_s[-1]


def _should_stop(elapsed: float, rounds: int, ops: int, seconds: float, min_ops: int) -> bool:
    """Stop when one more round of the mean length would overrun `seconds`."""
    return ops >= min_ops and elapsed * (rounds + 1) / rounds > seconds


def measure(workload, rng, run_op, seconds: float, min_ops: int) -> Phase:
    phase = Phase(NEW_PROCESS if workload.name == "cli_mix" else IN_PROCESS)
    start = perf_counter()
    while True:
        phase.run_round(workload, workload.round(rng), run_op)
        if _should_stop(perf_counter() - start, len(phase.round_s), len(phase.outputs), seconds, min_ops):
            return phase


def run_child(cmd: list[str], until_first_line: bool = False) -> tuple[float, str]:
    """Run `cmd` in the checkout; return seconds until its first output line (or its exit) and that line."""
    from workloads import child_env

    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        if until_first_line:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        else:
            line = proc.communicate(timeout=PROBE_TIMEOUT_S)[0]
            elapsed = perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}")
    return elapsed, line


def setup_probes(workload_name: str, count: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready for the first op, each in a fresh process.

    Returns the wall-clock times and the same times at the reference speed.
    """
    if workload_name == "cli_mix":
        cmd, until_first_line = [sys.executable, "-c", "import volkenborn.cli"], False
    else:
        cmd, until_first_line = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", workload_name], True

    def calibrate():
        return statistics.median(start_unit() for _ in range(PROBE_CAL_UNITS))

    times, cals = [], [calibrate()]
    for _ in range(count):
        times.append(run_child(cmd, until_first_line)[0])
        cals.append(calibrate())
    return times, at_reference_speed(times, cals, START_REF_S)


def cli_import_s(count: int) -> list[float]:
    """In-process time of `import volkenborn.cli`, each in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import volkenborn.cli; print(time.perf_counter() - t)"
    return [float(run_child([sys.executable, "-c", code])[1]) for _ in range(count)]


def run_plain(workload, rng, seconds, min_ops, probes):
    wall_setup, setup = setup_probes(workload.name, probes)
    workload.setup()
    phase = measure(workload, rng, workload.run, seconds, min_ops)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux

    def timings(latencies, setup_s):
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
            "setup_s": statistics.median(setup_s),
        }

    metrics = {**timings(phase.scaled, setup), "peak_rss_mb": peak_rss_mb}
    wall = timings(phase.latencies, wall_setup)
    samples = {
        "ops_per_s": len(phase.scaled),
        "op_p50_ms": len(phase.scaled),
        "op_p90_ms": len(phase.scaled),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
    }
    info = {
        "rounds": len(phase.round_s),
        "measured_s": sum(phase.round_s),
        "wall_metrics": wall,
        "setup_samples_s": setup,
        "wall_setup_samples_s": wall_setup,
        "calibration": phase.calibration[0].__name__,
        "calibration_median_s": statistics.median(phase.cals),
        "calibration_ref_s": phase.calibration[1],
    }
    return phase.outputs, metrics, samples, info, []


def run_traced(workload, rng, seconds, min_ops, probes):
    from layertrace import Tracer, touch_every_layer

    import_s = cli_import_s(probes)
    workload.setup()
    plain, traced = Phase(), Phase()
    per_round: list[dict] = []
    tracers: list = []
    start = perf_counter()
    while True:
        ops = workload.round(rng)
        untraced_s = plain.run_round(workload, ops, functools.partial(workload.run_in_process, tracer=None))
        tracer = Tracer()
        with tracer:
            touch_every_layer(tracer)
            run_op = functools.partial(workload.run_in_process, tracer=tracer)
            traced_s = traced.run_round(workload, ops, run_op, tracer)
        tracers.append(tracer)
        m = tracer.metrics()
        m["trace.overhead_s"] = traced_s - untraced_s
        m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        per_round.append(m)
        ops_done = len(plain.outputs) + len(traced.outputs)
        if _should_stop(perf_counter() - start, len(per_round), ops_done, seconds, min_ops):
            break
    metrics = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
    metrics["cli.import_s"] = statistics.median(import_s)
    samples = {key: len(per_round) for key in metrics}
    samples["cli.import_s"] = len(import_s)
    info = {
        "rounds": len(per_round),
        "untraced_round_s": plain.round_s,
        "traced_round_s": traced.round_s,
        "dropped_spans": sum(t.dropped_spans for t in tracers),
    }
    return plain.outputs + traced.outputs, metrics, samples, info, tracers


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The calibration loop then runs on the CPU that runs the ops, set-up
    probes and CLI processes; each CPU of a shared host slows on its own.
    The package's --jobs runs threads under one interpreter lock, so one
    CPU does not slow it.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(workload, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS, probes: int = SETUP_PROBES):
    """Measure, then check every op; return the result line, the metadata and the tracers."""
    rng = random.Random(seed)
    runner = run_traced if trace else run_plain
    outputs, metrics, samples, info, tracers = runner(workload, rng, seconds, min_ops, probes)
    failures = [(op, out) for op, out in outputs if not workload.check(op, out)]
    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name) for name in metrics}
    result = {
        "correct": not failures,
        "attempted": len(outputs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "failed_frac": len(failures) / len(outputs),
        "first_failures": [repr(f)[:300] for f in failures[:5]],
        "samples": samples,
        "units": units,
        **info,
    }
    return result, meta, tracers


def write_outputs(result: dict, meta: dict, tracers) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    if tracers:
        with gzip.open(OUT_DIR / f"{stem}.spans.csv.gz", "wt", encoding="ascii") as handle:
            handle.write("round,op,span,parent,layer,name,start_s,end_s\n")
            for i, tracer in enumerate(tracers):
                tracer.write_spans(handle, i)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("catalog", "level_sums", "cli_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)  # set up a workload, print "ready", exit
    args = parser.parse_args(argv)
    if not (SRC / "volkenborn" / "__init__.py").is_file():
        print("error: no package source under src/volkenborn; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.identities.__file__).resolve().parent.parent != SRC:
        print("error: volkenborn was not imported from ./src", file=sys.stderr)
        return 2
    if args.probe:
        workloads.WORKLOADS[args.probe].setup()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload](workloads.load_expected())
    pin_to_one_cpu()
    result, meta, tracers = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    write_outputs(result, meta, tracers)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
