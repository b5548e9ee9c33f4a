"""Passes of one workload in one fresh process (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --spawn-ts T
        [--mode plain|setup|traced|reference] [--workers W]
        [--seconds S] [--min-passes K] [--spans-out FILE]

T is the starting process's time.monotonic() just before this process was
started, so set-up time counts interpreter start, imports and input builds.
plain mode runs at least K passes and starts another while it would end
within S seconds of the first; the other modes run one pass (setup runs
none).  plain and setup modes run a hostspeed.Sampler with the workload's
kernel from the import of hostspeed (and numpy) on, and report each set-up
and pass with its host-speed factor, leaving out the time spent in probes;
set-up adds SETUP_EXTRA_PROBES probes after it ends.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

SETUP_EXTRA_PROBES = 3
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ts", type=float, required=True)
    ap.add_argument("--mode", default="plain",
                    choices=("plain", "setup", "traced", "reference"))
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    import hostspeed
    import workloads
    sampler = (hostspeed.Sampler(workloads.PROBE_KERNEL[args.workload]).start()
               if args.mode in ("plain", "setup") else None)
    import numpy
    import ringbench  # noqa: F401  (part of set-up time)

    tracer = None
    if args.mode == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    window0 = time.perf_counter()
    inp = workloads.setup(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.spawn_ts,
           "numpy": numpy.__version__, "python": platform.python_version()}
    if sampler:
        out["setup_s"] -= sampler.handler_s
        sampler.add(SETUP_EXTRA_PROBES)  # a short set-up has few samples
        out["setup_factor"] = sampler.factor((0, 0.0))
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(out))
        return 0

    reference = (None if args.mode == "reference"
                 else workloads.load_reference(args.workload))
    passes = []
    start = time.perf_counter()
    while True:
        rec = workloads.Recorder(sampler)
        mark = sampler.mark() if sampler else None
        t0 = time.perf_counter()
        ops = workloads.run_pass(inp, args.workers, rec)
        wall_s = time.perf_counter() - t0
        if sampler:  # the probes are not part of the pass
            wall_s -= sampler.handler_since(mark)
        row = {"wall_s": wall_s,
               "ops": [[o.key, o.latency_s, o.sampled, o.window] for o in ops],
               "attempted": len(ops), "triples": workloads.triples(ops)}
        if sampler:
            row["factor"] = sampler.factor(mark)
            row["probes"] = len(sampler.samples) - mark[0]
        if tracer is not None:
            out["trace"] = tracer.table(time.perf_counter() - window0)
            tracer.uninstall()
        if reference is None:
            errors = [f"{o.key}: {o.error}" for o in ops if o.error]
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            out["reference"] = workloads.write_reference(
                args.workload, workloads.outputs(ops))
        else:  # checked outside the timed region
            row["failed"], row["problems"] = workloads.check(inp, ops, reference)
        passes.append(row)
        del ops, rec  # the next pass must not see this pass's rings and kernels
        if args.mode != "plain":
            break
        elapsed = time.perf_counter() - start
        if (len(passes) >= args.min_passes
                and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
            break

    if sampler:
        sampler.stop()
    if tracer is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(vars(s)) + "\n")
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    out.update(passes=passes,
               maxrss_kb=max(self_ru.ru_maxrss, child_ru.ru_maxrss))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
