"""ringbench benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload suite|search|classify|lattice
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; src/ringbench is imported from
there.  A run starts fresh worker processes, and every pass works on
GradedRing objects no earlier pass has touched, so the per-ring caches start
cold as they do for a CLI user.

Worker processes get BLAS_ENV: on the 2-CPU machine the benchmark was
written on, a second OpenBLAS thread only spun (the lattice pass took 4.75 s
wall and 8.2 s CPU at the default, 4.39 s wall and CPU with one thread), and
the 2-worker search would oversubscribe the CPUs.

--trace 0 measures end to end.  One worker process sets up, then repeats
passes, closed loop: at least MIN_PASSES of them, and another while it
would end within S seconds of the first.  Set-up-only processes are then
started until there are SETUP_SAMPLES set-up samples, or more for a cheap
set-up.
All times are normalised by a host-speed probe (hostspeed.py): how fast a
CPU of the shared host runs the same code changes by half from one second
to the next, and a raw wall time measures the other tenants as much as the
program.  The metrics are norm_wall_s (the median over the passes of the
normalised pass time: the sum of its ops' times, without the probes, times
the pass's host-speed factor), setup_s (the median normalised set-up time,
process start to ready inputs) and peak_rss_mb (high-water RSS of the
process tree, pool workers included).  The record keeps the raw wall times
and factors, and the nearest-rank p50 and p90 of the sampled ops'
normalised times (each op's median over the passes); those are not bounded
metrics, as a 10-100 ms op has too few probes of its own.  The tracing code
is never loaded.

--trace 1 runs one untraced pass and one traced pass, each in its own
process (for search the untraced pass runs at 2 workers and a further
untraced 1-worker pass is the baseline, since the traced pass runs at 1
worker), and reports the per-layer table of the traced pass with the tracing
overhead.

The last stdout line is the result object; the line before it is the run
record, which is also written to .perfbench-results/ in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import stats  # noqa: E402
from workloads import PROBE_KERNEL, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3       # at least this many set-ups per run,
SETUP_SUM_S = 2.0       # and more while they sum to less than this,
SETUP_MAX = 9           # up to this many: a 0.2 s set-up is noisier
# at least this many passes a run: search's pool hands members to workers
# in an order that differs from pass to pass, and its normalised pass times
# spread by about 0.06, twice as much as the other workloads'
MIN_PASSES = {"suite": 2, "search": 4, "classify": 2, "lattice": 2}
SEARCH_WORKERS = 2
RUN_DEADLINE_S = 170
RESULTS_DIR = ".perfbench-results"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class RunFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes and their memory


def _tree_rss_kb(pid: int) -> int:
    """Summed VmRSS of pid and all its descendants."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return total


class _RssSampler(threading.Thread):
    def __init__(self, pid: int, period_s: float = 0.05):
        super().__init__(daemon=True)
        self.pid, self.period_s = pid, period_s
        self.peak_kb = 0
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))
            self.stop.wait(self.period_s)


def run_worker(workload: str, seed: int, deadline: float, mode: str = "plain",
               workers: int = 1, seconds: float = 0.0, min_passes: int = 1,
               spans_out: str | None = None) -> dict:
    """Start one worker process and return its result.  When it runs a pool
    its process tree's RSS is sampled, and a hostspeed prober bound to each
    CPU runs beside it, outside its tree; the worker and anything it started
    are killed if the run's deadline passes."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workers", str(workers), "--seconds", repr(seconds),
           "--min-passes", str(min_passes)]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    probers = []
    if mode == "plain" and workers > 1:  # see hostspeed.Sampler.paused
        probers = [subprocess.Popen(
            [sys.executable, os.path.join(HERE, "hostspeed.py"), str(cpu),
             PROBE_KERNEL[workload]],
            cwd=ROOT, env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE,
            text=True) for cpu in sorted(os.sched_getaffinity(0))]
    try:
        result = _run_worker(cmd, workload, mode, workers, deadline)
    finally:
        lines = []
        for p in probers:
            p.kill()
            lines += p.communicate()[0].splitlines()
    if probers:
        result["cpu_probes"] = [[float(x) for x in line.split()]
                                for line in lines]
    return result


def _run_worker(cmd, workload, mode, workers, deadline) -> dict:
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn-ts", repr(spawn)], cwd=ROOT,
                            env={**os.environ, **BLAS_ENV},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    sampler = _RssSampler(proc.pid) if workers > 1 else None
    if sampler:
        sampler.start()
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} {mode} worker passed the run deadline")
    finally:
        if sampler:
            sampler.stop.set()
            sampler.join()
        try:  # reap anything the worker left in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"{workload} {mode} worker exited {proc.returncode}:\n"
                        f"{err[-4000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if mode != "setup":
        result["peak_rss_kb"] = max(sampler.peak_kb if sampler else 0,
                                    result["maxrss_kb"])
    return result


# ---------------------------------------------------------------------------
# the run record


def _git_commit() -> str | None:
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _record_base(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# end-to-end runs


def _percentile_entry(values: list[float]) -> dict:
    tail = stats.tail_percentile(values)
    return {"n": len(values),
            "tail": None if tail is None else {"q": tail[0], "value": tail[1]}}


def normalised_ops(passes: list[dict], kernel: str,
                   cpu_probes: list[list[float]]
                   ) -> list[dict[str, tuple[float, bool]]]:
    """Per pass, each op's normalised time with its sampled flag: its time
    times the hostspeed factor of the pass's in-process samples, or for a
    pooled op, of the per-CPU samples made within its time window."""
    out = []
    for p in passes:
        ops = {}
        for key, t, sampled, window in p["ops"]:
            f = p["factor"]
            if window is not None:
                f = hostspeed.factor(kernel, [x for ts, x in cpu_probes
                                              if window[0] <= ts <= window[1]])
            if f is None:
                raise RunFailed(f"no host-speed samples for op {key}")
            ops[key] = (t * f, sampled)
        out.append(ops)
    return out


def end_to_end(args, deadline) -> tuple[dict, dict, list]:
    workers = SEARCH_WORKERS if args.workload == "search" else 1
    w = run_worker(args.workload, args.seed, deadline, workers=workers,
                   seconds=args.seconds,
                   min_passes=MIN_PASSES[args.workload])
    passes = w["passes"]
    setups = [w]
    while len(setups) < SETUP_SAMPLES or (
            sum(s["setup_s"] for s in setups) < SETUP_SUM_S
            and len(setups) < SETUP_MAX):
        setups.append(run_worker(args.workload, args.seed, deadline, "setup"))
    setup_norm = [s["setup_s"] * s["setup_factor"] for s in setups]
    per_pass = normalised_ops(passes, PROBE_KERNEL[args.workload],
                              w.get("cpu_probes", []))
    pass_norm = [sum(t for t, _ in ops.values()) for ops in per_pass]
    lats = [stats.median([ops[key][0] for ops in per_pass]) * 1000
            for key, (_, sampled) in per_pass[0].items() if sampled]
    pass_walls = [p["wall_s"] for p in passes]
    metrics = {
        "norm_wall_s": (stats.median(pass_norm), "s"),
        "setup_s": (stats.median(setup_norm), "s"),
        "peak_rss_mb": (w["peak_rss_kb"] / 1024, "MB"),
    }
    record = {
        "samples": {"passes": len(passes), "setup": len(setups),
                    "ops_per_pass": len(per_pass[0]),
                    "probes_per_pass": [p["probes"] for p in passes]},
        "op_ms": {"p50": stats.percentile(lats, 50),
                  "p90": stats.percentile(lats, 90), **_percentile_entry(lats)},
        "pass_norm_s": pass_norm, "pass_wall_s": pass_walls,
        "pass_factor": [p["factor"] for p in passes],
        "cpu_probes": len(w.get("cpu_probes", [])),
        "setup_s": setup_norm, "setup_wall_s": [s["setup_s"] for s in setups],
        "setup_factor": [s["setup_factor"] for s in setups],
        "probe_kernel": PROBE_KERNEL[args.workload],
        "quartiles": {"pass_norm_s": stats.quartiles(pass_norm),
                      "setup_s": stats.quartiles(setup_norm),
                      "op_ms": stats.quartiles(lats)},
        "numpy": w["numpy"], "worker_python": w["python"],
    }
    return metrics, record, passes


# ---------------------------------------------------------------------------
# traced runs


def per_layer_names() -> list[tuple[str, str]]:
    import spans
    names = []
    for module, fns in spans.WRAPPED.items():
        for fn in fns:
            names.append((f"{module}.{fn}.calls", "count"))
            names.append((f"{module}.{fn}.self_s", "s"))
    names += [(f"{q}.total_s", "s") for q in spans.TOTAL_OF]
    names += [(f"theorems.{pid}.s", "s") for pid in spans.PROPERTY_IDS]
    names += [("theorems.search.triples", "count"),
              ("theorems.member_max_s", "s"),
              ("theorems.pool_ratio", "ratio")]
    names += [(f"{m}.rss_rise_mb", "MB") for m in spans.MODULES]
    names += [("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


def traced(args, deadline) -> tuple[dict, dict, list]:
    import spans

    workers = SEARCH_WORKERS if args.workload == "search" else 1
    untraced = run_worker(args.workload, args.seed, deadline,
                          workers=workers)["passes"][0]
    passes = [untraced]
    baseline = untraced
    if workers > 1:
        baseline = run_worker(args.workload, args.seed, deadline)["passes"][0]
        passes.append(baseline)
    os.makedirs(os.path.join(ROOT, RESULTS_DIR), exist_ok=True)
    spans_out = os.path.join(ROOT, RESULTS_DIR,
                             f"{args.workload}-s{args.seed}-{os.getpid()}.spans.jsonl")
    w = run_worker(args.workload, args.seed, deadline, "traced",
                   spans_out=spans_out)
    tr = w["passes"][0]
    passes.append(tr)
    table = w["trace"]
    fns = table["functions"]
    values: dict[str, float] = {}
    for module, names in spans.WRAPPED.items():
        for fn in names:
            row = fns.get(f"{module}.{fn}", {})
            values[f"{module}.{fn}.calls"] = row.get("calls", 0)
            values[f"{module}.{fn}.self_s"] = row.get("self_s", 0.0)
    for q in spans.TOTAL_OF:
        values[f"{q}.total_s"] = fns.get(q, {}).get("total_s", 0.0)
    for pid, s in table["properties_s"].items():
        values[f"theorems.{pid}.s"] = s
    members = table["member_s"]
    values["theorems.search.triples"] = tr["triples"]
    values["theorems.member_max_s"] = max(members, default=0.0)
    values["theorems.pool_ratio"] = (untraced["wall_s"] / sum(members)
                                     if args.workload == "search" else 0.0)
    for m in spans.MODULES:
        values[f"{m}.rss_rise_mb"] = table["rss_rise_mb"][m]
    values["trace.wall_s"] = table["window_s"]
    values["trace.unattributed_s"] = table["unattributed_s"]
    values["trace.overhead_s"] = tr["wall_s"] - baseline["wall_s"]
    values["trace.spans"] = table["spans"]
    units = dict(per_layer_names())
    metrics = {k: (values[k], units[k]) for k in units}
    identity = table["self_sum_s"] + table["unattributed_s"] - table["window_s"]
    record = {
        "traced_pass_wall_s": tr["wall_s"],
        "untraced_pass_wall_s": baseline["wall_s"],
        "untraced_pool_wall_s": untraced["wall_s"] if args.workload == "search" else None,
        "overhead_share": tr["wall_s"] / baseline["wall_s"] - 1,
        "self_sum_plus_unattributed_minus_window_s": identity,
        "functions": fns,
        "rss_rise_mb_unattributed": table["rss_rise_mb"]["unattributed"],
        "missing_functions": table["missing"],
        "not_applicable": [] if args.workload == "search" else ["theorems.pool_ratio"],
        "spans_file": os.path.relpath(spans_out, ROOT),
        "numpy": w["numpy"], "worker_python": w["python"],
    }
    if abs(identity) > 1e-6:
        raise RunFailed(f"self times do not add up to the traced wall: {identity}")
    return metrics, record, passes


# ---------------------------------------------------------------------------


def write_reference() -> int:
    """Capture the committed reference outputs (search at 1 worker)."""
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        r = run_worker(workload, 0, deadline, "reference")
        print(f"{workload}: {r['reference']} ({r['passes'][0]['attempted']} ops)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ringbench", "__init__.py")):
        print(f"perfbench: no src/ringbench under {ROOT}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")

    # a SIGTERM unwinds like an error, so run_worker's finally blocks stop
    # the worker and the probers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + RUN_DEADLINE_S
    record = _record_base(args)
    try:
        if args.trace:
            metrics, extra, passes = traced(args, deadline)
        else:
            metrics, extra, passes = end_to_end(args, deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record.update(extra)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f"{k}: {v}" for p in passes for k, v in p["failed"].items()]
    problems = [x for p in passes for x in p["problems"]]
    record["failed_ops"] = failures
    record["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(ROOT, RESULTS_DIR), exist_ok=True)
    path = os.path.join(ROOT, RESULTS_DIR,
                        f"{args.workload}-s{args.seed}-t{args.trace}-"
                        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
