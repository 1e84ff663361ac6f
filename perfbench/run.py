"""End-to-end benchmark of repro's public query API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm_enum --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15            # every workload
    python3 perfbench/run.py --workload all --seconds 15 --trace 1  # layer table
    python3 perfbench/run.py --workload adhoc_mix --seed held-out   # held-out inputs

One closed-loop client in one process runs the workload's requests back
to back for ``--seconds`` of request time and checks every answer.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's provenance.

Times are reported at a reference host speed (see ``probe``), so that the
drift of a shared machine's speed does not show as a change of the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the workload untraced for half the time, then sets it up again and replays
the same requests for the other half with every layer's public functions
wrapped (see ``layers.py``); it reports the per-layer self times, the
tracing overhead, and whether the traced answers equal the untraced ones.

Every inherited ``REPRO_*`` variable is removed before the program is
imported, so the run measures the defaults a user gets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ["cold_load", "warm_enum", "write_read", "adhoc_mix"]
# Seeds 1-10 were used while the benchmark was built and tuned.  Claims
# are re-checked on this one, which no tuning ever ran on.
HELD_OUT_SEED = 104729
SETUPS = 5
# The host's speed drifts by up to ~40% within seconds on a shared machine,
# and a raw time inherits that drift.  Times are therefore reported at a
# reference speed: scaled by PROBE_REFERENCE_S over the time a fixed kernel
# (``probe``) takes next to them.  Raw request times are printed too.
PROBE_ITERATIONS = 6000
PROBE_REFERENCE_S = 0.001


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", default="1",
                        help="an integer, or 'held-out'")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses tiny ones)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt every third outcome before it is "
                             "checked, to prove the checks fire")
    args = parser.parse_args(argv)
    if args.seed == "held-out":
        args.seed = HELD_OUT_SEED
    else:
        try:
            args.seed = int(args.seed)
        except ValueError:
            parser.error("--seed must be an integer or 'held-out'")
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}; run from the "
                 "root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")
    return repro


def provenance(args, workload):
    import importlib.util

    import numpy

    from repro.core.plancache import (incremental_enabled,
                                      plan_cache_enabled, plan_cache)
    from repro.engine import get_engine

    return {"workload": workload.name, "seed": args.seed,
            "held_out": args.seed == HELD_OUT_SEED, "scale": args.scale,
            "sizes": workload.sizes(), "engine": get_engine().name,
            "plan_cache": plan_cache_enabled(),
            "plan_cache_maxsize": plan_cache().maxsize,
            "incremental": incremental_enabled(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------- loop


def probe():
    """Seconds a fixed pure-Python kernel takes now.  It stores only ints
    and runs with the collector off, so the program's heap cannot change
    its time; only the host's speed can."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        table = {}
        for i in range(PROBE_ITERATIONS):
            acc = (acc + i * i) % 1000003
            table[i & 1023] = acc
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_speed(probes):
    """Factor that scales a time measured next to ``probes`` to a host on
    which the probe takes ``PROBE_REFERENCE_S``."""
    return PROBE_REFERENCE_S / statistics.median(probes)


class Loop:
    """The closed loop's records.  Each request is timed right after a
    probe; its time is scaled by the median of the seven probes around
    it, so a drift of the host's speed cancels out of the figures."""

    def __init__(self):
        self.probes = []
        self.requests = []  # (seconds, probe index, enums, update_s)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.shown = 0

    def factor(self, k):
        return reference_speed(self.probes[max(0, k - 3):k + 4])

    def scaled(self):
        """Request seconds, enumerations and update seconds at the
        reference speed."""
        latencies, enums, updates = [], [], []
        for seconds, k, request_enums, update_s in self.requests:
            f = self.factor(k)
            latencies.append(seconds * f)
            enums.extend((first * f, n, drain * f)
                         for first, n, drain in request_enums)
            if update_s is not None:
                updates.append(update_s * f)
        return latencies, enums, updates

    def fail(self, index, message):
        self.failed += 1
        if self.shown < 5:
            self.shown += 1
            print(f"perfbench: request {index}: {message}", file=sys.stderr)


def corrupt(out):
    out = dict(out)
    if out.get("answers"):
        out["answers"] = out["answers"][1:]
    elif "count" in out:
        out["count"] += 1
    elif "decide" in out:
        out["decide"] = not out["decide"]
    return out


def run_loop(workload, seconds, tracer=None, inject=False, first=0,
             limit=None):
    """Requests ``first``, ``first + 1``, ... until ``seconds`` of request
    time have run, or ``limit`` requests."""
    loop = Loop()
    busy = 0.0
    wall_start = perf_counter()
    wall_cap = max(3 * seconds, seconds + 60)
    index = first
    end = first + limit if limit is not None else None
    while busy < seconds and perf_counter() - wall_start < wall_cap \
            and index != end:
        inp = workload.prepare(index)
        loop.probes.append(probe())
        loop.attempted += 1
        root = tracer.begin_request() if tracer else None
        start = perf_counter()
        try:
            out = workload.run(inp)
        except Exception:  # a failed request is counted, not fatal
            out = None
            error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        if tracer:
            tracer.end_request(root)
        busy += elapsed
        if out is None:
            loop.fail(index, error)
        else:
            loop.requests.append((elapsed, len(loop.probes) - 1,
                                  out.get("enums", ()), out.get("update_s")))
            if inject and index % 3 == 0:
                out = corrupt(out)
            problems = workload.check(inp, out)
            if problems:
                loop.fail(index, "; ".join(problems[:3]))
            loop.digests[index] = workload.digest(out)
        index += 1
    return loop


def warm_up(args, workload):
    """The workload's first ``WARMUP`` requests, run and checked but not
    timed (see ``Workload.WARMUP``)."""
    return run_loop(workload, 2 * args.seconds, limit=workload.WARMUP,
                    inject=args.inject_wrong_answer)


def timed_setups(workload):
    """Median set-up time of ``SETUPS`` set-ups, each at the reference
    speed of the probes taken just before and after it."""
    times = []
    for _ in range(SETUPS):
        probes = [probe() for _ in range(3)]
        start = perf_counter()
        workload.setup()
        seconds = perf_counter() - start
        probes += [probe() for _ in range(3)]
        times.append(seconds * reference_speed(probes))
    return statistics.median(times)


# ------------------------------------------------------------- metrics


def quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(lat):
    return {"request_s.p50": (statistics.median(lat) if lat else 0.0, "s"),
            "requests_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s")}


def operation_metrics(loop):
    """Metrics of operations only some workloads have (0 where absent)."""
    _, enums, updates = loop.scaled()
    firsts = [e[0] for e in enums]
    drained = [e for e in enums if e[1] > 1]
    drain_s = sum(e[2] for e in drained)
    return {
        "first_answer_s.p50": (statistics.median(firsts) if firsts else 0.0,
                               "s"),
        "enum_answers_per_s": (sum(e[1] - 1 for e in drained) / drain_s
                               if drain_s else 0.0, "1/s"),
        "update_s.p50": (statistics.median(updates) if updates else 0.0,
                         "s"),
        "failed_share": (loop.failed / loop.attempted
                         if loop.attempted else 0.0, "ratio"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plan_stats():
    from repro.core.plancache import plan_cache

    return plan_cache().stats()


def end_to_end(args, workload):
    setup_s = timed_setups(workload)
    warm = warm_up(args, workload)
    loop = run_loop(workload, args.seconds, inject=args.inject_wrong_answer,
                    first=workload.WARMUP)
    latencies = loop.scaled()[0]
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(latency_metrics(latencies))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    # The p90 is printed but carries no bound: it sits on the collector's
    # tail, where latency doubles between p85 and p95, and swings by ~15%
    # between seeds; requests_per_s carries the tail's cost steadily.
    p90 = quantile(latencies, 90)
    info = {"request_s.p90": (p90, "s"),
            "beyond_p90": (sum(x > p90 for x in latencies), "count")}
    info.update(operation_metrics(loop))
    info["requests"] = (len(latencies), "count")
    raw = [r[0] for r in loop.requests]
    info["raw_request_s.p50"] = (statistics.median(raw) if raw else 0.0, "s")
    info["host_speed"] = (reference_speed(loop.probes), "ratio")
    return (warm.attempted + loop.attempted, warm.failed + loop.failed,
            metrics, info)


def traced(args, workload):
    from layers import LayerTracer

    half = args.seconds / 2
    workload.setup()
    warm = [warm_up(args, workload)]
    plain = run_loop(workload, half, inject=args.inject_wrong_answer,
                     first=workload.WARMUP)
    workload.setup()
    warm.append(warm_up(args, workload))
    tracer = LayerTracer()
    before = plan_stats()
    tracer.install()
    for name in tracer.missing:
        print(f"perfbench: no {name} to time", file=sys.stderr)
    try:
        loop = run_loop(workload, half, tracer=tracer,
                        inject=args.inject_wrong_answer,
                        first=workload.WARMUP)
    finally:
        tracer.uninstall()
    after = plan_stats()
    metrics = {name: (value * reference_speed(loop.probes)
                      if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    n = max(1, tracer.requests)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics["plan.hits"] = (hits / n, "count")
    metrics["plan.misses"] = (misses / n, "count")
    metrics["plan.hit_ratio"] = (hits / (hits + misses) if hits + misses
                                 else 0.0, "ratio")
    metrics["plan.evictions"] = ((after["evictions"] - before["evictions"])
                                 / n, "count")
    metrics["plan.entries"] = (after["entries"], "count")
    plain_p50 = latency_metrics(plain.scaled()[0])["request_s.p50"][0]
    traced_p50 = latency_metrics(loop.scaled()[0])["request_s.p50"][0]
    metrics["trace.overhead_ratio"] = (traced_p50 / plain_p50
                                       if plain_p50 else 0.0, "ratio")
    common = plain.digests.keys() & loop.digests.keys()
    mismatched = [i for i in sorted(common)
                  if plain.digests[i] != loop.digests[i]]
    for i in mismatched[:5]:
        print(f"perfbench: request {i}: traced answers differ from "
              "untraced ones", file=sys.stderr)
    metrics["trace.mismatches"] = (len(mismatched), "count")
    metrics["trace.compared"] = (len(common), "count")
    metrics.update(operation_metrics(plain))
    info = {"requests": (len(plain.requests), "count"),
            "traced_requests": (len(loop.requests), "count")}
    return (sum(w.attempted for w in warm) + plain.attempted + loop.attempted,
            sum(w.failed for w in warm) + plain.failed + loop.failed
            + len(mismatched), metrics, info)


# -------------------------------------------------------------- output


def print_table(title, metrics, info):
    print(title)
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"  {name:<22} {value:>14.6g} {unit}")


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def run_one(args):
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    run = traced if args.trace else end_to_end
    attempted, failed, metrics, info = run(args, workload)
    kind = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{workload.name} seed={args.seed} {kind}", metrics, info)
    print("provenance " + json.dumps(provenance(args, workload)))
    print(result_line(attempted, failed, metrics))
    return 0


def run_all(args):
    """Each workload in a fresh interpreter, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        if args.inject_wrong_answer:
            cmd.append("--inject-wrong-answer")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    if status:
        return status
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
