"""deferlab benchmark: one CLI workload, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload grid|wide_cohort|eval_heavy \
        [--seed N] [--seconds S] [--trace 0|1]

Each invocation of the workload's CLI command runs in a fresh child process
whose environment alone pins the BLAS thread pools to one thread, and the
next one starts only after it has exited. The benchmark and its children
share one CPU with a host speed probe (see ``hostspeed.py``), and every
time it reports is scaled to the probe's reference speed. Untraced
invocations repeat until ``--seconds`` is spent and give the end-to-end
metrics as medians. With ``--trace 1`` traced and untraced invocations
alternate and the per-layer metrics come from the traced ones. Every invocation's outputs are checked
(see ``check.py``). Metric names and units are read from BENCHMARK.json.
The last line of standard output is the result as one JSON object; the full
record, with spreads, sample counts, digests and the environment, is
written under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import check
import hostspeed
import tracing
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
MAX_SETUP_PROBES = 25
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot trust its own measurement."""


def child_env() -> dict:
    path = os.path.join(ROOT, "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path, **PINNED)


def spawn(
    run_dir: str,
    mode: str,
    cli_args: list[str],
    trace_prefix: str = "-",
    probe: hostspeed.HostProbe | None = None,
) -> dict:
    """Run child.py once and return its timings and its own record.

    With a ``probe`` the timings are scaled to the reference host speed
    (``scale`` is the factor; the ``*_raw_s`` entries are as measured).
    """
    result_path = os.path.join(run_dir, "child.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, result_path, mode, trace_prefix, "--", *cli_args]
    with open(os.path.join(run_dir, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        # A blocking wait returns at exit; wait(timeout=...) polls every 50 ms.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.monotonic()
    try:
        with open(result_path) as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    setup_end = record.get("setup_end")
    setup = None if setup_end is None else setup_end - t0
    scale = 1.0 if probe is None else probe.scale(t0, t1)
    return {
        "exit_code": proc.returncode,
        "scale": scale,
        "wall_raw_s": t1 - t0,
        "setup_raw_s": setup,
        "wall_s": (t1 - t0) * scale,
        "setup_s": None if setup is None else setup * scale,
        "peak_rss_mb": record.get("peak_rss_kb", 0) / 1024.0,
        "cpu_s": None if record.get("cpu_s") is None else record["cpu_s"] * scale,
        "record": record,
    }


def stats(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(trace_prefix: str, expected: set[str], scale: float = 1.0) -> dict[str, float]:
    """Per-layer values of one traced invocation, span times times ``scale``.

    Raises ``TraceError`` when a span in ``expected`` never fired.
    """
    counters, spans = tracing.load(trace_prefix)
    summary = tracing.summarize(spans)
    silent = sorted(s for s in expected if summary.get(s, {}).get("calls", 0) == 0)
    if silent:
        raise tracing.TraceError(f"spans expected on this workload never fired: {silent}")
    out = dict(counters)
    for span in tracing.SPANS:
        span_summary = summary.get(span, {})
        out[f"{span}.calls"] = span_summary.get("calls", 0)
        for key in ("s", "self_s"):
            out[f"{span}.{key}"] = span_summary.get(key, 0) * scale
    return out


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(child_record: dict, load_at_start, pinning: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": child_record.get("numpy"),
        "blas": child_record.get("blas"),
        **pinning,
        "thread_pinning": PINNED,
        "reference_tick_s": hostspeed.REFERENCE_TICK_S,
        "loadavg_at_start": load_at_start,
        "git_sha": git_sha(),
    }


class OutputCheck:
    """Checks each invocation's outputs against the first invocation's.

    The first invocation is checked in full and followed by the negative
    control. A later one with byte-identical artifacts has the same result;
    one that differs is checked in full and recorded as a problem.
    """

    def __init__(self, config: dict):
        self.config = config
        self.reference = None  # (artifact digest, metrics digest, failed ops)
        self.problems: list[str] = []

    def __call__(self, out_dir: str, exit_code: int, label: str) -> tuple[str, str, int]:
        digests = (
            (check.artifact_digest(out_dir), check.metrics_digest(out_dir))
            if os.path.isdir(out_dir)
            else ("none", "none")
        )
        if self.reference is not None and digests == self.reference[:2]:
            return self.reference
        results = check.check_outputs(out_dir, self.config, exit_code)
        bad = {op: p for op, p in results.items() if p}
        self.problems += [f"{op}: {'; '.join(p)}" for op, p in list(bad.items())[:5]]
        if self.reference is None:
            self.reference = (*digests, len(bad))
            self.problems += negative_control(out_dir, self.config, results)
        else:
            self.problems.append(f"{label} wrote different artifacts from the first invocation")
        return (*digests, len(bad))


def negative_control(out_dir: str, config: dict, results) -> list[str]:
    """Corrupt one passing op's curve and require the checks to fail it."""
    passing = [op for op, p in results.items() if not p]
    if not passing:
        return []
    op = passing[0]
    check.corrupt_curve(os.path.join(out_dir, op.curve_file))
    rows = check.read_metrics(os.path.join(out_dir, op.metrics_file))
    if check.check_op(out_dir, op, check.eval_ranges(config), rows):
        return []
    return [f"negative control: a corrupted curve for {op} passed the checks"]


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    probe: hostspeed.HostProbe,
    pinning: dict,
) -> dict:
    start = time.monotonic()
    load_at_start = os.getloadavg()
    workload = WORKLOADS[workload_name]
    config = workload.config(seed)
    run_dir = os.path.join(
        ROOT, ".bench_runs", f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=2)
    out_dir = os.path.join(run_dir, "out")
    spans_prefix = os.path.join(run_dir, "spans")
    cli_args = [workload.command, "--config", config_path, "--out", out_dir]
    deadline = start + seconds

    def probe_setup() -> dict:
        sample = spawn(run_dir, "setup", cli_args, probe=probe)
        if sample["exit_code"] != 0 or sample["setup_s"] is None:
            with open(os.path.join(run_dir, "child.log")) as fh:
                raise BenchError(f"set-up probe failed:\n{fh.read()}")
        return sample

    # The first start compiles bytecode, which users pay once; discard it.
    warmup = probe_setup()
    # Invocations get the time first; set-up probes fill what is left.
    invocation_deadline = deadline - SETUP_PROBES * warmup["wall_s"]

    checker = OutputCheck(config)
    expected_spans = set(tracing.SPANS) - workload.unused_spans
    invocations: list[dict] = []
    cost = {False: 0.0, True: 0.0}
    while True:
        n_traced = sum(i["traced"] for i in invocations)
        traced = trace and len(invocations) - n_traced > n_traced
        it_start = time.monotonic()
        shutil.rmtree(out_dir, ignore_errors=True)
        sample = spawn(run_dir, "run", cli_args, spans_prefix if traced else "-", probe)
        sample["traced"] = traced
        label = f"{'traced' if traced else 'untraced'} invocation {len(invocations)}"
        sample["digest.artifacts"], sample["digest.metrics"], sample["failed"] = checker(
            out_dir, sample["exit_code"], label
        )
        sample["attempted"] = len(check.expected_ops(config))
        if sample["exit_code"] != 0:
            with open(os.path.join(run_dir, "child.log")) as fh:
                log_tail = fh.read()[-2000:]
            checker.problems.append(f"{label} exited {sample['exit_code']}:\n{log_tail}")
        elif traced:
            sample["layers"] = layer_metrics(spans_prefix, expected_spans, sample["scale"])
        shutil.rmtree(out_dir, ignore_errors=True)
        for ext in (".bin", ".json"):
            if os.path.exists(spans_prefix + ext):
                os.remove(spans_prefix + ext)
        invocations.append(sample)
        cost[traced] = time.monotonic() - it_start
        if sample["exit_code"] != 0:
            break
        n_traced += traced
        have_both = len(invocations) > n_traced and (n_traced > 0 or not trace)
        next_cost = cost[trace and not traced] or cost[traced]
        if have_both and time.monotonic() + next_cost > invocation_deadline:
            break

    setup_samples, setup_raw = [], []
    while len(setup_samples) < SETUP_PROBES or (
        len(setup_samples) < MAX_SETUP_PROBES and time.monotonic() + warmup["wall_s"] < deadline
    ):
        sample = probe_setup()
        setup_samples.append(sample["setup_s"])
        setup_raw.append(sample["setup_raw_s"])

    plain = [i for i in invocations if not i["traced"]]
    traced_runs = [i for i in invocations if i["traced"]]
    setup_samples += [i["setup_s"] for i in plain if i["setup_s"] is not None]
    setup_raw += [i["setup_raw_s"] for i in plain if i["setup_raw_s"] is not None]
    end_to_end = {
        "wall_s": stats([i["wall_s"] for i in plain]),
        "setup_s": stats(setup_samples),
        "peak_rss_mb": stats([i["peak_rss_mb"] for i in plain]),
    }
    as_measured = {
        "wall_s": stats([i["wall_raw_s"] for i in plain]),
        "setup_s": stats(setup_raw),
    }
    layers = {}
    if traced_runs and all("layers" in i for i in traced_runs):
        names = traced_runs[0]["layers"].keys()
        layers = {n: statistics.median(i["layers"][n] for i in traced_runs) for n in names}
        layers["cpu_s"] = statistics.median(i["cpu_s"] for i in plain)
        layers["trace.overhead_s"] = (
            statistics.median(i["wall_s"] for i in traced_runs) - end_to_end["wall_s"]["median"]
        )
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": workload.command,
        "config": config,
        "environment": environment(invocations[0]["record"], load_at_start, pinning),
        "ops_attempted": sum(i["attempted"] for i in invocations),
        "ops_failed": sum(i["failed"] for i in invocations),
        "problems": checker.problems,
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "host_scale": stats([i["scale"] for i in invocations]),
        "layers": layers,
        "digest.artifacts": sorted({i["digest.artifacts"] for i in invocations}),
        "digest.metrics": sorted({i["digest.metrics"] for i in invocations}),
        "invocations": [
            {k: v for k, v in i.items() if k not in ("layers", "record")} for i in invocations
        ],
        "run_dir": os.path.relpath(run_dir, ROOT),
        "run_s": time.monotonic() - start,
    }


def result_line(record: dict, spec: dict) -> dict:
    trace = record["trace"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = (
        record["layers"]
        if trace
        else {k: v["median"] for k, v in record["end_to_end"].items()}
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": record["ops_failed"] == 0 and not record["problems"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def report(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"workload {record['workload']} ({record['command']}), seed {record['seed']}, "
        f"{len(record['invocations'])} invocations, trace {int(record['trace'])}"
    )
    rows = [(name, s, units[name]) for name, s in record["end_to_end"].items()]
    rows += [(f"{name} raw", s, units[name]) for name, s in record["as_measured"].items()]
    rows.append(("host scale", record["host_scale"], ""))
    for name, s, unit in rows:
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        print(
            f"  {name:<14} {s['median']:12.4f} {unit:<6} "
            f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {spread:.3f}  n {s['n']}"
        )
    print(f"  {'ops_attempted':<14} {record['ops_attempted']:12d} count")
    print(f"  {'ops_failed':<14} {record['ops_failed']:12d} count")
    for name, value in record["layers"].items():
        print(f"  {name:<40} {value:16.6g} {units.get(name, '')}")
    print(f"  digest.artifacts {' '.join(record['digest.artifacts'])}")
    print(f"  digest.metrics   {' '.join(record['digest.metrics'])}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  record {record['run_dir']}/record.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "deferlab", "cli.py")):
        print(f"error: no deferlab source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    pinning = {"nproc": len(os.sched_getaffinity(0)), "cpu_pinned": hostspeed.pin_to_one_cpu()}
    try:
        with hostspeed.HostProbe() as probe:
            record = run(args.workload, args.seed, args.seconds, bool(args.trace), probe, pinning)
        line = result_line(record, spec)
    except (BenchError, tracing.TraceError, hostspeed.ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, record["run_dir"], "record.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    report(record, spec)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
