"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``classify``
    Print the complexity report of a query::

        python -m repro classify "Q(x, y) :- R(x, z), S(z, y)"

``run``
    Evaluate a query against a database loaded from CSV files (one file
    per relation, named <Relation>.csv, comma-separated values; integers
    are parsed as such)::

        python -m repro run "Q(x) :- R(x, z), S(z, y)" --data ./tables \\
            [--count | --limit N]

``explain``
    Evaluate a query under tracing and print the span tree: plan-cache
    hits/misses, per-phase timings (preprocessing vs enumeration) and
    kernel counters.  Runs against ``--data`` or a synthetic database::

        python -m repro explain "Q(x) :- R(x, z), S(z, y)"

``analyze``
    Estimated vs actual: run one query under full instrumentation
    (twice, at n and 2n, when the data is synthetic) and print
    per-operator rows comparing measured cardinalities and timings
    against the classifier's predicted class::

        python -m repro analyze "Q(x) :- R(x, z), S(z, y)" [--html FILE]

``figures``
    Regenerate the paper's three figures as text.

``bench``
    Run the built-in complexity suites (free-connex delay, acyclic
    total time, Algorithm 2 delay, the triangle lower bound), record
    every case into ``benchmarks/history/*.jsonl`` under the canonical
    observatory schema, and print the verdict table (measured log-log
    slope + CI vs the shape the classifier predicts)::

        python -m repro bench --quick

    ``--gate fail`` turns a regression against the rolling baseline
    into a nonzero exit code (default: warn only).

``report``
    Render the benchmark history as a self-contained HTML/SVG dashboard
    (trajectories, scaling sweeps, verdicts, regression flags)::

        python -m repro report -o report.html [--gate fail]

``bench-delay``
    Quick built-in delay experiment: free-connex vs Algorithm 2 on
    synthetic data of a given size.

``metrics-serve``
    Serve the process-wide always-on metrics registry as an OpenMetrics
    endpoint (``/metrics``), optionally flushing the exposition text to
    a file on a timer and writing discrete events to a rotating NDJSON
    log::

        python -m repro metrics-serve --port 9464 \\
            [--metrics-out metrics.prom --interval 10] [--events ev.ndjson]

``top``
    Live terminal view of the registry: per-plan delay quantiles,
    phase latencies, counter rates, recent events — either in-process
    or scraped from a ``metrics-serve`` endpoint via ``--url``.

``run``, ``explain`` and the benchmarks accept ``--trace FILE`` (Chrome
trace-event JSON for chrome://tracing / Perfetto) and ``--metrics``
(flat JSON counters/gauges on stderr); the ``REPRO_TRACE`` environment
variable does the same without flags.

Exit codes: 0 on success; 1 when a requested check fails (``--gate
fail``, ``--strict``); 2 for a usage error (bad flags or arguments); 3
when the library rejects the query or the data (any
:class:`repro.errors.ReproError`, printed as one ``repro: error:`` line
on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Optional, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.errors import ReproError

#: exit code for a query or database the library rejects (a ReproError)
EXIT_REJECTED = 3


def _parse_value(text: str) -> Any:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def load_csv_database(directory: str) -> Database:
    """Load every ``*.csv`` in ``directory`` as one relation each.

    A missing or unreadable directory or file raises
    :class:`~repro.errors.ReproError`: the data is rejected, like a
    malformed tuple."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ReproError(
            f"cannot read data directory {directory!r}: "
            f"{exc.strerror or exc}") from None
    db = Database()
    for name in names:
        if not name.endswith(".csv"):
            continue
        rel_name = name[:-4]
        rows: List[tuple] = []
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    rows.append(tuple(_parse_value(v)
                                      for v in line.split(",")))
        except OSError as exc:
            raise ReproError(f"cannot read {path!r}: "
                             f"{exc.strerror or exc}") from None
        if not rows:
            continue
        rel = Relation(rel_name, len(rows[0]), rows)
        db.add_relation(rel)
    return db


def cmd_classify(args: argparse.Namespace) -> int:
    """Print the complexity report of the given query."""
    from repro.core.classify import classify
    from repro.logic.parser import parse_query

    query = parse_query(args.query)
    print(classify(query).render())
    return 0


def _select_engine(args: argparse.Namespace) -> None:
    """Apply a --engine flag (if given) to the process-wide selection."""
    name = getattr(args, "engine", None)
    if name:
        from repro.engine import set_engine

        set_engine(name)
    workers = getattr(args, "workers", None)
    if workers is not None:
        from repro.engine import set_default_workers

        set_default_workers(workers)
    plan_cache = getattr(args, "plan_cache", None)
    if plan_cache is not None:
        from repro.core.plancache import set_plan_cache_enabled

        set_plan_cache_enabled(plan_cache == "on")
    incremental = getattr(args, "incremental", None)
    if incremental is not None:
        from repro.core.plancache import set_incremental_enabled

        set_incremental_enabled(incremental)


def _engine_name(name: str) -> str:
    """argparse type of engine flags: a registered backend name."""
    from repro.engine import available_engines

    if name not in available_engines():
        raise argparse.ArgumentTypeError(
            f"unknown engine {name!r} (choose from "
            f"{', '.join(available_engines())})")
    return name


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """The shared enumeration-pipeline knobs (--engine and friends)."""
    p.add_argument("--engine", default=None, type=_engine_name,
                   help="relational backend: tuple (default), columnar "
                        "or parallel (also via the REPRO_ENGINE "
                        "environment variable)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the parallel backend "
                        "(default: os.cpu_count(), env REPRO_WORKERS; "
                        "1 disables pool dispatch)")
    p.add_argument("--block-size", type=int, default=None,
                   help="answers per batched emission block on the columnar "
                        "backend (default 1024, env REPRO_BLOCK_SIZE; <= 0 "
                        "forces tuple-at-a-time enumeration)")
    p.add_argument("--plan-cache", choices=("on", "off"), default=None,
                   help="toggle the cross-query plan/preprocessing cache "
                        "(default on, env REPRO_PLAN_CACHE)")
    p.add_argument("--incremental", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="delta-propagated plan maintenance: refresh cached "
                        "plans through per-relation delta logs instead of "
                        "rebuilding after updates (default off, env "
                        "REPRO_INCREMENTAL; needs the plan cache on)")


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """The shared observability knobs (--trace / --metrics)."""
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON of the run "
                        "(open in chrome://tracing or Perfetto); the "
                        "REPRO_TRACE environment variable does the same")
    p.add_argument("--metrics", action="store_true",
                   help="dump flat JSON metrics (counters, gauges, "
                        "plan-cache stats) to stderr after the run")


def _obs_setup(args: argparse.Namespace):
    """Install a fresh tracer when --trace/--metrics ask for one.

    Returns (tracer, previous) to hand to :func:`_obs_finish`; tracer is
    None when neither flag was given (the REPRO_TRACE environment path
    is then still honoured by the obs module itself)."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", False)):
        return None, None
    from repro import obs

    previous = obs.tracer()
    return obs.enable(), previous


def _obs_finish(args: argparse.Namespace, tracer, previous) -> None:
    """Emit the requested trace/metrics outputs and restore the tracer."""
    if tracer is None:
        return
    import json

    from repro import obs

    if getattr(args, "trace", None):
        obs.write_chrome_trace(args.trace, tracer)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print(json.dumps(obs.metrics(tracer), indent=2, sort_keys=True),
              file=sys.stderr)
    if previous is not None and previous.enabled:
        obs.enable(previous)
    else:
        obs.disable()


def cmd_run(args: argparse.Namespace) -> int:
    """Evaluate a query over CSV relations (count, limit supported)."""
    from repro.core.planner import count, enumerate_answers
    from repro.logic.parser import parse_query

    _select_engine(args)
    tracer, previous = _obs_setup(args)
    query = parse_query(args.query)
    db = load_csv_database(args.data)
    try:
        if args.count:
            print(count(query, db))
            return 0
        emitted = 0
        for row in enumerate_answers(query, db, block_size=args.block_size):
            print("\t".join(str(v) for v in row))
            emitted += 1
            if args.limit is not None and emitted >= args.limit:
                break
        if emitted == 0:
            print("(no answers)", file=sys.stderr)
        return 0
    finally:
        _obs_finish(args, tracer, previous)


def _synthetic_database(query, size: int, seed: int) -> Database:
    """A random database matching the query's relation schema (for
    ``explain`` without ``--data``)."""
    from repro.data import generators
    from repro.logic.cq import ConjunctiveQuery
    from repro.logic.ucq import UnionOfConjunctiveQueries

    if isinstance(query, ConjunctiveQuery):
        disjuncts = [query]
    elif isinstance(query, UnionOfConjunctiveQueries):
        disjuncts = list(query.disjuncts)
    else:
        raise SystemExit(
            "explain needs --data for this query class (synthetic data is "
            "only generated for CQs and UCQs)"
        )
    schema: dict = {}
    for d in disjuncts:
        for atom in d.atoms:
            arity = schema.setdefault(atom.relation, atom.arity)
            if arity != atom.arity:
                raise SystemExit(
                    f"relation {atom.relation} used with arities {arity} "
                    f"and {atom.arity}"
                )
    return generators.random_database(schema, max(4, size // 4), size,
                                      seed=seed)


def cmd_explain(args: argparse.Namespace) -> int:
    """Trace one evaluation and print the span tree + counters."""
    from repro import obs
    from repro.core.planner import count, enumerate_answers
    from repro.logic.parser import parse_query

    _select_engine(args)
    query = parse_query(args.query)
    if args.data:
        db = load_csv_database(args.data)
    else:
        db = _synthetic_database(query, args.size, args.seed)
    with obs.capture() as tr:
        if args.count:
            result = count(query, db)
            outcome = f"count: {result}"
        else:
            emitted = 0
            for _row in enumerate_answers(query, db,
                                          block_size=args.block_size):
                emitted += 1
                if args.limit is not None and emitted >= args.limit:
                    break
            outcome = f"answers: {emitted}"
    print(f"query: {query}")
    source = args.data if args.data else \
        f"synthetic ({args.size} tuples/relation, seed {args.seed})"
    print(f"database: {source}")
    print(outcome)
    print()
    print(obs.render_explain(tr))      # footer carries the plan-cache line
    _print_incremental_stats()
    if args.trace:
        obs.write_chrome_trace(args.trace, tr)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if args.metrics:
        import json

        print(json.dumps(obs.metrics(tr), indent=2, sort_keys=True),
              file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run one query fully instrumented and print the per-operator
    estimated-vs-actual table; ``--html`` renders the panel."""
    from repro.logic.parser import parse_query
    from repro.obs.analyze import analyze, render_text

    _select_engine(args)
    query = parse_query(args.query)
    db = load_csv_database(args.data) if args.data else None
    analysis = analyze(query, db, size=args.size, seed=args.seed,
                       scale=args.scale)
    print(render_text(analysis))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(analysis, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if args.html:
        from repro.obs.report import write_analyze_html

        write_analyze_html(args.html, analysis)
        print(f"wrote {args.html}", file=sys.stderr)
    if args.strict and analysis["flagged"]:
        print(f"analyze: {len(analysis['flagged'])} operator(s) contradict "
              f"the predicted class — failing (--strict)", file=sys.stderr)
        return 1
    return 0


def _print_plan_cache_stats() -> None:
    """Two-line plan-cache health summary (doctor, run/count --metrics)."""
    from repro.core.plancache import plan_cache

    st = plan_cache().stats()
    print(f"plan cache: {st['hits']} hits, {st['misses']} misses, "
          f"{st['evictions']} evictions ({st['entries']} entries, "
          f"maxsize {st['maxsize']})")
    print(f"plan lifetime: {st['superseded']} superseded by writes, "
          f"{st['released']} released with their databases")
    _print_incremental_stats()


def _print_incremental_stats() -> None:
    """The delta-refresh half of the summary (explain prints the
    plan-cache line through the render_explain footer already)."""
    from repro.core.plancache import incremental_enabled, plan_cache

    st = plan_cache().stats()
    print(f"incremental: {st['refreshes']} refreshes, "
          f"{st['refresh_overflows']} delta-log overflows, "
          f"{st['refresh_fallbacks']} refresher fallbacks "
          f"({'on' if incremental_enabled() else 'off'})")


#: timer-overhead sanity window for slope fitting: below 10ns the
#: calibration is suspiciously optimistic (vDSO fast path misreported),
#: above 10µs the clock itself would drown the delays being measured
TIMER_OVERHEAD_SANE_NS = (10, 10_000)

#: machine-noise bar: coefficient of variation of a fixed CPU-bound
#: workload above which log-log slope fits are untrustworthy (shared CI
#: containers routinely exceed it)
NOISE_CV_THRESHOLD = 0.25


def _doctor_environment() -> None:
    """Measurement-health checks: timer-overhead calibration sanity and
    a machine-noise estimate (both surfaced as gauges on the active
    tracer, so ``--metrics`` dumps record them alongside the run)."""
    import statistics as _stats
    import time as _time

    from repro import obs
    from repro.perf.delay import timer_overhead_ns

    overhead = timer_overhead_ns()
    lo, hi = TIMER_OVERHEAD_SANE_NS
    obs.gauge("doctor.timer_overhead_ns", overhead)
    if lo <= overhead <= hi:
        print(f"timer overhead: {overhead} ns (ok, within [{lo}ns, {hi}ns])")
    else:
        print(f"timer overhead: {overhead} ns — WARNING: outside the sane "
              f"window [{lo}ns, {hi}ns]; delay measurements and slope "
              f"fits are unreliable on this machine")
    samples = []
    for _ in range(15):
        start = _time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i
        samples.append(_time.perf_counter() - start)
    cv = _stats.stdev(samples) / _stats.fmean(samples)
    obs.gauge("doctor.noise_cv", round(cv, 4))
    obs.gauge("doctor.noise_cv_threshold", NOISE_CV_THRESHOLD)
    if cv <= NOISE_CV_THRESHOLD:
        print(f"machine noise: cv={cv:.3f} over a fixed workload (ok, "
              f"threshold {NOISE_CV_THRESHOLD})")
    else:
        print(f"machine noise: cv={cv:.3f} over a fixed workload — "
              f"WARNING: above {NOISE_CV_THRESHOLD}; this machine (a "
              f"loaded CI container?) is too noisy for trustworthy "
              f"slope fitting, expect inconclusive verdicts")
    _doctor_parallel()


def _doctor_parallel() -> None:
    """Worker-pool health: cpu budget, spawn availability, live pools."""
    import multiprocessing as _mp
    import os as _os

    from repro import obs
    from repro.engine import default_workers, pool_stats

    cpus = _os.cpu_count() or 1
    workers = default_workers()
    obs.gauge("doctor.cpu_count", cpus)
    obs.gauge("doctor.default_workers", workers)
    methods = _mp.get_all_start_methods()
    obs.gauge("doctor.spawn_available", int("spawn" in methods))
    if workers > 1:
        print(f"parallel engine: {workers} workers over {cpus} cpus")
    else:
        print(f"parallel engine: 1 worker over {cpus} cpus — pool "
              f"dispatch disabled, the parallel backend runs serially "
              f"(set REPRO_WORKERS or --workers to force a pool)")
    if "spawn" not in methods:  # pragma: no cover - all tier-1 platforms have it
        print("start methods: WARNING: no 'spawn' support; the parallel "
              "backend cannot start workers on this platform")
    else:
        print(f"start methods: {', '.join(methods)} (pool uses spawn)")
    st = pool_stats()
    if st["pools"]:
        live = ", ".join(f"{w} workers ({'up' if st['alive'][w] else 'down'})"
                         for w in st["pools"])
        print(f"live pools: {live}")
    _doctor_caches()


def _doctor_caches() -> None:
    """Cache-health lines from the always-on registry: worker-arena
    cache, pool lifecycle, per-symbol workspaces, watchdog."""
    from repro import obs
    from repro.engine.parallel import arena_cache_stats
    from repro.engine.symbols import sharing_enabled

    reg = obs.registry()
    arena = arena_cache_stats()
    print(f"arena cache: {arena['entries']} entries, {arena['bytes']} bytes "
          f"(limit {arena['limit']}); "
          f"{reg.counter('parallel.arena_cache_hits')} hits, "
          f"{reg.counter('parallel.arena_cache_misses')} misses, "
          f"{reg.counter('parallel.arena_cache_evictions')} evictions, "
          f"{reg.counter('parallel.arena_shared_columns')} shared columns")
    print(f"pool lifecycle: {reg.counter('parallel.pool_reuse')} reuses, "
          f"{reg.counter('parallel.pool_spawn')} spawns, "
          f"{reg.counter('parallel.pool_respawn')} respawns")
    print(f"symbol workspace: "
          f"{'on' if sharing_enabled() else 'OFF (REPRO_SYMBOL_SHARING=0)'}; "
          f"{reg.counter('engine.symbol_workspace_hits')} hits, "
          f"{reg.counter('engine.symbol_workspace_misses')} misses, "
          f"{reg.counter('engine.symbol_workspace_patches')} patches, "
          f"{reg.counter('engine.symbol_workspace_variant_hits')} variant "
          f"hits; {reg.counter('yannakakis.coalesced_semijoins')} "
          f"coalesced semijoins")
    from repro.obs.watchdog import watchdog as _watchdog

    wd = _watchdog()
    if wd.active:
        print(f"delay watchdog: on — "
              f"{reg.counter('watchdog.checks')} windows checked, "
              f"{reg.counter('watchdog.violations')} violations, "
              f"{reg.counter('watchdog.tail_retained')} tail traces kept")
    else:
        print("delay watchdog: off (set REPRO_WATCHDOG=1 to check live "
              "delay quantiles against the classifier's guarantees)")


def cmd_doctor(args: argparse.Namespace) -> int:
    """Minimise a query, classify its core, and suggest head extensions
    that make it free-connex (the query_doctor example, as a command);
    without a query, check the measurement environment only."""
    from itertools import combinations

    from repro.core.classify import classify
    from repro.logic.containment import core, is_minimal
    from repro.logic.cq import ConjunctiveQuery
    from repro.logic.parser import parse_query

    if args.query is None:
        _doctor_environment()
        _print_plan_cache_stats()
        return 0
    q = parse_query(args.query)
    if not isinstance(q, ConjunctiveQuery) or q.has_comparisons():
        print(classify(q).render())
        _doctor_environment()
        _print_plan_cache_stats()
        return 0
    minimal = core(q)
    if not is_minimal(q):
        print(f"core: {minimal}  (redundant atoms removed)")
    report = classify(minimal)
    print(report.render())
    if report.fact("acyclic") and report.fact("free_connex") is False:
        candidates = [v for v in minimal.variables()
                      if v not in minimal.free_variables()]
        for r in range(1, len(candidates) + 1):
            found = None
            for extra in combinations(candidates, r):
                widened = minimal.with_head(list(minimal.head) + list(extra))
                if widened.is_acyclic() and widened.is_free_connex():
                    found = extra
                    break
            if found:
                names = ", ".join(v.name for v in found)
                print(f"doctor's note: adding [{names}] to the head makes the "
                      f"query free-connex (constant delay, Theorem 4.6)")
                break
    _print_plan_cache_stats()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the paper's three figures as text."""
    from repro.figures import figure1_query, figure2_query, figure3_expected
    from repro.hypergraph.components import max_independent_subset, s_components
    from repro.hypergraph.freeconnex import free_connex_join_tree

    q1 = figure1_query()
    tree, _virtual = free_connex_join_tree(q1)
    print("Figure 1 — free-connex join tree of", q1)
    print(tree)
    print()
    q2 = figure2_query()
    h = q2.hypergraph()
    print("Figure 2 — hypergraph edges:")
    for e in h.edges:
        print("  {" + ", ".join(sorted(v.name for v in e)) + "}")
    print()
    print("Figure 3 — S-components:")
    for i, comp in enumerate(s_components(h, q2.free_variables())):
        sub = comp.subhypergraph(h)
        ind = max_independent_subset(sub, sorted(comp.s_vertices, key=str))
        print(f"  component {i}: S = "
              f"{sorted(v.name for v in comp.s_vertices)}, "
              f"max independent S-set {sorted(v.name for v in ind)}")
    print(f"quantified star size = {q2.quantified_star_size()}")
    return 0


def cmd_bench_core(args: argparse.Namespace) -> int:
    """Time the core relational kernel (full reducer, Yannakakis,
    counting) on every registered backend and write BENCH_core.json."""
    import json
    import time as _time

    from repro.counting.acq_count import count_quantifier_free_acyclic
    from repro.data import generators
    from repro.engine import available_engines
    from repro.eval.yannakakis import full_reducer, yannakakis
    from repro.logic.parser import parse_cq

    full_q = parse_cq("Q(x, z, y) :- R(x, z), S(z, y)")
    backends = args.engines or available_engines()
    rows = []
    print(f"{'op':>16} {'n':>9} {'backend':>9} {'seconds':>10}")
    for n in args.sizes:
        db = generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                        seed=7)
        for backend in backends:
            ops = {
                "full_reducer": lambda: full_reducer(full_q, db,
                                                     engine=backend),
                "yannakakis_full": lambda: yannakakis(full_q, db,
                                                      engine=backend),
                "acyclic_count": lambda: count_quantifier_free_acyclic(
                    full_q, db, engine=backend),
            }
            for op, fn in ops.items():
                fn()  # warm caches (join tree, dictionary encoding)
                best = min(
                    _timed_once(_time, fn) for _ in range(max(1, args.repeats))
                )
                rows.append({"op": op, "n": n, "backend": backend,
                             "seconds": best})
                print(f"{op:>16} {n:>9} {backend:>9} {best:>10.6f}")
    with open(args.output, "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    if args.json:
        _write_bench_core_json(args.json, rows, args.sizes)
        print(f"wrote {args.json}")
    return 0


def _write_bench_core_json(path: str, rows: List[dict],
                           sizes: List[int]) -> None:
    """Structured bench-core results: raw rows plus a log-log scaling
    slope per (op, backend) series."""
    import json

    from repro.perf.delay import timer_overhead_ns
    from repro.perf.scaling import loglog_slope

    slopes = {}
    for row in rows:
        slopes.setdefault((row["op"], row["backend"]), {})[row["n"]] = \
            row["seconds"]
    slope_rows = [
        {"op": op, "backend": backend,
         "loglog_slope": loglog_slope(sorted(series),
                                      [series[n] for n in sorted(series)])}
        for (op, backend), series in sorted(slopes.items())
    ]
    doc = {
        "benchmark": "bench-core",
        "sizes": list(sizes),
        "timer_overhead_ns": timer_overhead_ns(),
        "rows": rows,
        "slopes": slope_rows,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _timed_once(time_mod, fn) -> float:
    start = time_mod.perf_counter()
    fn()
    return time_mod.perf_counter() - start


def cmd_bench_delay(args: argparse.Namespace) -> int:
    """Quick delay experiment: free-connex vs Algorithm 2."""
    from repro.data import generators
    from repro.enumeration.acq_linear import LinearDelayACQEnumerator
    from repro.enumeration.free_connex import FreeConnexEnumerator
    from repro.logic.parser import parse_cq
    from repro.perf.delay import measure_enumerator

    _select_engine(args)

    fc = parse_cq("Q(x) :- R(x, z), S(z, y)")
    lin = parse_cq("Q(x, y) :- R(x, z), S(z, y)")
    rows = []
    print(f"{'tuples':>8} {'fc median us':>13} {'fc p95 us':>10} "
          f"{'alg2 mean us':>13}")
    for n in args.sizes:
        db = generators.random_database({"R": 2, "S": 2}, max(4, n // 4), n,
                                        seed=7)
        p_fc = measure_enumerator(
            FreeConnexEnumerator(fc, db, block_size=args.block_size),
            max_outputs=500)
        p_lin = measure_enumerator(LinearDelayACQEnumerator(lin, db),
                                   max_outputs=500)
        print(f"{n:>8} {p_fc.median_delay * 1e6:>13.2f} "
              f"{p_fc.percentile(0.95) * 1e6:>10.2f} "
              f"{p_lin.mean_delay * 1e6:>13.2f}")
        rows.append({
            "n": n,
            "free_connex": _delay_profile_row(p_fc),
            "acq_linear": _delay_profile_row(p_lin),
        })
    if args.json:
        _write_bench_delay_json(args.json, rows, args.sizes)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _delay_profile_row(profile) -> dict:
    """JSON-able summary of one DelayProfile (seconds throughout) — the
    canonical observatory statistics block."""
    return profile.summary()


def _write_bench_delay_json(path: str, rows: List[dict],
                            sizes: List[int]) -> None:
    """Structured bench-delay results with log-log scaling slopes: the
    free-connex median delay should stay flat (slope ~0) while its
    preprocessing and Algorithm 2's delay grow with the data."""
    import json

    from repro.perf.delay import timer_overhead_ns
    from repro.perf.scaling import loglog_slope

    ns = [row["n"] for row in rows]
    doc = {
        "benchmark": "bench-delay",
        "sizes": list(sizes),
        "timer_overhead_ns": timer_overhead_ns(),
        "rows": rows,
        "slopes": {
            "free_connex_delay_p50": loglog_slope(
                ns, [r["free_connex"]["delay_p50_seconds"] for r in rows]),
            "free_connex_preprocessing": loglog_slope(
                ns, [r["free_connex"]["preprocessing_seconds"] for r in rows]),
            "acq_linear_delay_mean": loglog_slope(
                ns, [r["acq_linear"]["delay_mean_seconds"] for r in rows]),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


#: ``repro bench --quick`` sweep: ~1.2 decades of ||D|| for the binary
#: joins and ~1.5 decades for the triangle instances — the smallest
#: spans wide enough that the fitter's anti-flake rule (one decade
#: minimum) cannot return `inconclusive` on a healthy machine, while the
#: whole run stays under ~10 seconds.
QUICK_SIZES = [500, 1000, 2000, 4000, 8000]
QUICK_TRIANGLE_SIZES = [12, 22, 40, 70]
QUICK_SELFJOIN_SIZES = [2000, 5000, 12000]

DEFAULT_HISTORY_DIR = "benchmarks/history"


def _print_regressions(regressions, gate: str) -> int:
    """Print the gate standing per case; return the exit code that the
    ``--gate`` policy assigns to it."""
    flagged = [r for r in regressions if r.flagged]
    if gate != "off":
        for reg in regressions:
            print(reg.describe())
    if not flagged:
        return 0
    if gate == "fail":
        print(f"regression gate: {len(flagged)} case(s) above the rolling "
              f"baseline band — failing", file=sys.stderr)
        return 1
    print(f"regression gate: {len(flagged)} case(s) above the rolling "
          f"baseline band (warn-only; use --gate fail to enforce)",
          file=sys.stderr)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the built-in complexity suites, append every case to the
    history, refresh the snapshot, and print the verdict table."""
    import datetime

    from repro.obs.observatory import Observatory, merge_snapshot, \
        run_bench_suites

    _select_engine(args)
    tracer, previous = _obs_setup(args)
    sizes = args.sizes
    triangle_sizes = args.triangle_sizes
    if args.quick:
        sizes = sizes or QUICK_SIZES
        triangle_sizes = triangle_sizes or QUICK_TRIANGLE_SIZES
    if not sizes or not triangle_sizes:
        print("bench needs --quick or explicit --sizes and "
              "--triangle-sizes", file=sys.stderr)
        return 2
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        records = run_bench_suites(sizes, triangle_sizes, timestamp,
                                   max_outputs=args.max_outputs,
                                   repeats=args.repeats, seed=args.seed)
        if args.parallel_suite:
            from repro.obs.observatory import run_parallel_suite

            records += run_parallel_suite(timestamp,
                                          size=args.parallel_size,
                                          repeats=args.repeats,
                                          seed=args.seed)
        if args.dynamic_suite:
            from repro.obs.observatory import run_dynamic_suite

            records += run_dynamic_suite(timestamp,
                                         size=args.dynamic_size,
                                         repeats=args.repeats,
                                         seed=args.seed)
        if args.selfjoin_suite:
            from repro.obs.observatory import run_selfjoin_suite

            selfjoin_sizes = args.selfjoin_sizes
            if args.quick and selfjoin_sizes is None:
                selfjoin_sizes = QUICK_SELFJOIN_SIZES
            records += run_selfjoin_suite(timestamp,
                                          sizes=selfjoin_sizes,
                                          repeats=args.repeats,
                                          seed=args.seed)
    finally:
        _obs_finish(args, tracer, previous)
    observatory = Observatory(args.history_dir)
    snapshots = {"bench": args.snapshot, "parallel": args.parallel_snapshot,
                 "dynamic": args.dynamic_snapshot,
                 "selfjoin": args.selfjoin_snapshot}
    for record in records:
        observatory.append(record)
        snapshot = snapshots.get(record["suite"])
        if snapshot:
            merge_snapshot(snapshot, record)
    print(f"{'case':>26} {'n range':>16} {'slope [95% CI]':>22} "
          f"{'verdict':>15} {'expected':>15} {'ok':>3}")
    for record in records:
        # fit is None for sub-2-point sweeps (nothing to fit a slope to)
        fit = record["fit"] or {"slope": None, "ci_low": None,
                                "ci_high": None}
        ns = [p["n"] for p in record["points"]]
        if fit["ci_low"] is None:
            ci = f"{fit['slope']:.2f} [n/a]" if fit["slope"] is not None \
                else "n/a"
        else:
            ci = (f"{fit['slope']:.2f} [{fit['ci_low']:.2f}, "
                  f"{fit['ci_high']:.2f}]")
        ok = {True: "yes", False: "NO"}.get(record["verdict_ok"], "-")
        print(f"{record['case']:>26} {min(ns):>7}-{max(ns):>8} {ci:>22} "
              f"{record['verdict']:>15} "
              f"{record['expectation'] or '-':>15} {ok:>3}")
    print(f"recorded {len(records)} cases -> {args.history_dir}"
          + (f" and {args.snapshot}" if args.snapshot else ""))
    rc = _print_regressions(observatory.regressions(), args.gate)
    if args.strict and any(r["verdict_ok"] is False for r in records):
        print("verdict check: measured shape contradicts the classifier "
              "for at least one case — failing (--strict)",
              file=sys.stderr)
        return 1
    return rc


def cmd_report(args: argparse.Namespace) -> int:
    """Render the benchmark history as the HTML/SVG dashboard."""
    from repro.obs.report import write_dashboard

    path, regressions = write_dashboard(
        args.output, args.history_dir,
        baseline_n=args.baseline_n, min_band=args.band)
    print(f"wrote {path}")
    return _print_regressions(regressions, args.gate)


def _demo_workload(stop) -> None:
    """Small synthetic enumeration loop feeding the registry, so a
    standalone ``metrics-serve --demo`` endpoint has live data to show
    (per-plan delay sketches, phase latencies, plan-cache hit rates)."""
    from repro.core.planner import enumerate_answers
    from repro.data import generators
    from repro.logic.parser import parse_query

    query = parse_query("Q(x, z, y) :- R(x, z), S(z, y)")
    db = generators.random_database({"R": 2, "S": 2}, 250, 1000, seed=7)
    import time as _time

    while not stop.is_set():
        for _row in enumerate_answers(query, db):
            pass
        _time.sleep(0.05)


def cmd_metrics_serve(args: argparse.Namespace) -> int:
    """Serve the always-on registry as an OpenMetrics endpoint, with an
    optional periodic file flusher and NDJSON event log."""
    import threading
    import time as _time

    from repro.obs.expose import (MetricsFlusher, configure_event_log,
                                  start_metrics_server)

    if args.events:
        configure_event_log(args.events)
        print(f"event log: {args.events}", file=sys.stderr)
    server = start_metrics_server(args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving OpenMetrics on http://{host}:{port}/metrics")
    flusher = None
    if args.metrics_out:
        flusher = MetricsFlusher(args.metrics_out,
                                 interval=args.interval).start()
        print(f"flushing exposition + JSON snapshot to {args.metrics_out} "
              f"every {args.interval:g}s", file=sys.stderr)
    stop = threading.Event()
    demo = None
    if args.demo:
        # The demo showcases the full telemetry surface, so install the
        # watchdog: it attributes delay observations to per-plan
        # sketches (delay.plan.<label> summaries on the endpoint).
        from repro.obs.watchdog import install as _install_watchdog

        _install_watchdog()
        demo = threading.Thread(target=_demo_workload, args=(stop,),
                                name="repro-metrics-demo", daemon=True)
        demo.start()
    deadline = None if args.duration is None \
        else _time.monotonic() + args.duration
    try:
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        if flusher is not None:
            flusher.stop()
        server.shutdown()
        server.server_close()
    return 0


def _top_snapshot(url: Optional[str]) -> dict:
    """One frame of data for ``repro top``: counters, gauges, summary
    sketches and recent events — from a remote ``metrics-serve``
    endpoint when ``url`` is given, else the in-process registry."""
    if url:
        import urllib.request

        from repro.obs.expose import parse_openmetrics

        with urllib.request.urlopen(url, timeout=5) as resp:
            parsed = parse_openmetrics(resp.read().decode())
        for s in parsed["summaries"].values():
            exs = s.get("exemplars") or {}
            ex = exs.get(0.99) or exs.get("0.99")
            s["exemplar"] = (ex or {}).get("labels", {}).get("trace_id")
        return {"counters": parsed["counters"], "gauges": parsed["gauges"],
                "summaries": parsed["summaries"], "events": []}
    from repro import obs
    from repro.obs.expose import event_log

    reg = obs.registry()
    snap = reg.snapshot()
    sketches = reg.sketches()
    summaries = {}
    for name, s in snap["sketches"].items():
        ex = sketches[name].exemplar(0.99) if name in sketches else None
        summaries[name] = {
            "quantiles": {0.5: s["p50"], 0.95: s["p95"],
                          0.99: s["p99"], 0.999: s["p999"]},
            "count": s["count"], "sum": s["sum"],
            "exemplar": ex[1] if ex is not None else None,
        }
    return {"counters": snap["counters"], "gauges": snap["gauges"],
            "summaries": summaries,
            "events": event_log().recent(limit=5)}


def _fmt_ns(ns: float) -> str:
    """Human-readable duration from nanoseconds."""
    if ns < 1_000:
        return f"{ns:.0f}ns"
    if ns < 1_000_000:
        return f"{ns / 1e3:.1f}us"
    if ns < 1_000_000_000:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e9:.2f}s"


def _render_top(data: dict, prev_counters: dict,
                dt: Optional[float], clear: bool) -> None:
    """Print one ``repro top`` frame (delay/phase quantiles, hottest
    counters with rates, recent events)."""
    import datetime as _dt

    if clear:
        print("\x1b[2J\x1b[H", end="")
    stamp = _dt.datetime.now().strftime("%H:%M:%S")
    print(f"repro top — {stamp} — {len(data['counters'])} counters, "
          f"{len(data['summaries'])} sketches")
    ctr = data["counters"]
    print(f"symbol sharing: "
          f"{ctr.get('engine.symbol_workspace_hits', 0)} workspace hits / "
          f"{ctr.get('engine.symbol_workspace_misses', 0)} misses, "
          f"{ctr.get('engine.symbol_workspace_variant_hits', 0)} variant "
          f"hits, {ctr.get('yannakakis.coalesced_semijoins', 0)} coalesced "
          f"semijoins, {ctr.get('parallel.arena_shared_columns', 0)} "
          f"arena-shared columns")
    delays = {n: s for n, s in data["summaries"].items() if "delay" in n}
    phases = {n: s for n, s in data["summaries"].items() if n not in delays}
    if delays:
        print(f"\n{'delay sketch':<44} {'count':>10} {'p50':>9} "
              f"{'p95':>9} {'p99':>9} {'p99.9':>9}  {'p99 exemplar'}")
        for name in sorted(delays):
            s = delays[name]
            q = s["quantiles"]
            print(f"{name[:44]:<44} {int(s.get('count', 0)):>10} "
                  f"{_fmt_ns(q.get(0.5, 0)):>9} {_fmt_ns(q.get(0.95, 0)):>9} "
                  f"{_fmt_ns(q.get(0.99, 0)):>9} "
                  f"{_fmt_ns(q.get(0.999, 0)):>9}  "
                  f"{s.get('exemplar') or '—'}")
    if phases:
        print(f"\n{'phase sketch':<44} {'count':>10} {'p50':>9} "
              f"{'p99':>9} {'total':>9}")
        for name in sorted(phases):
            s = phases[name]
            q = s["quantiles"]
            print(f"{name[:44]:<44} {int(s.get('count', 0)):>10} "
                  f"{_fmt_ns(q.get(0.5, 0)):>9} {_fmt_ns(q.get(0.99, 0)):>9} "
                  f"{_fmt_ns(s.get('sum', 0)):>9}")
    if data["counters"]:
        print(f"\n{'counter':<44} {'total':>12} {'rate/s':>10}")
        hottest = sorted(data["counters"].items(),
                         key=lambda kv: -kv[1])[:12]
        for name, value in hottest:
            # no rate on the first frame, and none on sub-millisecond
            # intervals (dividing by ~0 turns one scrape's worth of
            # counts into a nonsense rate); a registry reset between
            # frames makes the delta negative — clamp to 0, not print
            # a negative rate
            if dt is not None and dt > 1e-3:
                rate = max(0.0, (value - prev_counters.get(name, 0)) / dt)
                rate_s = f"{rate:,.1f}"
            else:
                rate_s = "—"
            print(f"{name[:44]:<44} {int(value):>12,} {rate_s:>10}")
    if data["events"]:
        print("\nrecent events:")
        for ev in data["events"]:
            extra = {k: v for k, v in ev.items()
                     if k not in ("ts", "event", "pid")}
            print(f"  {ev['event']}: {extra}")


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of the metrics registry (local or scraped)."""
    import time as _time

    iterations = 1 if args.once else args.iterations
    prev_counters: dict = {}
    prev_t = None
    frame = 0
    while True:
        data = _top_snapshot(args.url)
        now = _time.monotonic()
        dt = None if prev_t is None else now - prev_t
        _render_top(data, prev_counters, dt, clear=not args.once)
        prev_counters = dict(data["counters"])
        prev_t = now
        frame += 1
        if iterations is not None and frame >= iterations:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fine-grained complexity analysis of queries "
                    "(Durand, PODS 2020) — executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="complexity report of a query")
    p.add_argument("query", help='e.g. "Q(x, y) :- R(x, z), S(z, y)"')
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("run", help="evaluate a query over CSV relations")
    p.add_argument("query")
    p.add_argument("--data", required=True, help="directory of <Rel>.csv files")
    p.add_argument("--count", action="store_true", help="print |Q(D)| only")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after N answers")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explain",
                       help="trace one evaluation and print the span tree")
    p.add_argument("query")
    p.add_argument("--data", default=None,
                   help="directory of <Rel>.csv files (default: synthetic "
                        "random data matching the query's schema)")
    p.add_argument("--size", type=int, default=1000,
                   help="tuples per relation for synthetic data")
    p.add_argument("--seed", type=int, default=7,
                   help="random seed for synthetic data")
    p.add_argument("--count", action="store_true",
                   help="trace the counting pipeline instead of enumeration")
    p.add_argument("--limit", type=int, default=None,
                   help="stop enumerating after N answers")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("analyze",
                       help="estimated vs actual: run one query "
                            "instrumented and compare per-operator "
                            "cardinalities and timings against the "
                            "classifier's predicted class")
    p.add_argument("query")
    p.add_argument("--data", default=None,
                   help="directory of <Rel>.csv files (default: synthetic "
                        "random data, run at two sizes so the scaling "
                        "checks have two points)")
    p.add_argument("--size", type=int, default=4000,
                   help="tuples per relation for synthetic data (the "
                        "second run uses 2x this)")
    p.add_argument("--seed", type=int, default=7,
                   help="random seed for synthetic data")
    p.add_argument("--scale", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force/suppress the second 2x-size run (default: "
                        "on for synthetic data, off with --data)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the analysis dict as JSON")
    p.add_argument("--html", default=None, metavar="FILE",
                   help="also render the estimated-vs-actual panel as a "
                        "self-contained HTML file")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any operator's actuals "
                        "contradict the predicted class")
    _add_pipeline_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("doctor",
                       help="minimise + classify + suggest fixes; also "
                            "checks the measurement environment (timer "
                            "calibration, machine noise)")
    p.add_argument("query", nargs="?", default=None,
                   help="query to doctor (omit to run only the "
                        "environment checks)")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("bench",
                       help="run the complexity suites, record history, "
                            "print the verdict table")
    p.add_argument("--quick", action="store_true",
                   help="use the built-in quick sweep (~10s total)")
    p.add_argument("--sizes", type=int, nargs="+", default=None,
                   help="tuples per relation for the join suites")
    p.add_argument("--triangle-sizes", type=int, nargs="+", default=None,
                   help="per-side vertex counts for the triangle "
                        "lower-bound instances")
    p.add_argument("--max-outputs", type=int, default=600,
                   help="answers measured per enumeration run")
    p.add_argument("--repeats", type=int, default=2,
                   help="repetitions per point (best-of)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--history-dir", default=DEFAULT_HISTORY_DIR,
                   help="JSONL history directory (one file per suite)")
    p.add_argument("--snapshot", default="BENCH_bench.json",
                   help="snapshot file updated with the latest record "
                        "per case ('' disables)")
    p.add_argument("--parallel-suite", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="also run the worker-pool speedup-vs-workers "
                        "suite (snapshot in --parallel-snapshot)")
    p.add_argument("--parallel-size", type=int, default=60_000,
                   help="tuples per relation for the parallel suite's "
                        "fixed instance")
    p.add_argument("--parallel-snapshot", default="BENCH_parallel.json",
                   help="snapshot file for the parallel suite "
                        "('' disables)")
    p.add_argument("--dynamic-suite", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="also run the incremental-maintenance suite: "
                        "update+query cycles, warm delta refresh vs cold "
                        "re-preprocessing (snapshot in --dynamic-snapshot)")
    p.add_argument("--dynamic-size", type=int, default=100_000,
                   help="tuples per relation for the dynamic suite's "
                        "fixed instance")
    p.add_argument("--dynamic-snapshot", default="BENCH_dynamic.json",
                   help="snapshot file for the dynamic suite "
                        "('' disables)")
    p.add_argument("--selfjoin-suite", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="also run the self-join work-sharing suite: "
                        "shared per-symbol workspace vs per-atom rebuild "
                        "(REPRO_SYMBOL_SHARING=0) on same-symbol joins "
                        "(snapshot in --selfjoin-snapshot)")
    p.add_argument("--selfjoin-sizes", type=int, nargs="+", default=None,
                   help="tuples per relation for the self-join suite's "
                        "size sweep (default 10k/100k/300k)")
    p.add_argument("--selfjoin-snapshot", default="BENCH_selfjoin.json",
                   help="snapshot file for the self-join suite "
                        "('' disables)")
    p.add_argument("--gate", choices=("off", "warn", "fail"),
                   default="warn",
                   help="regression gate against the rolling baseline: "
                        "warn (default) prints flags, fail exits nonzero")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a measured verdict "
                        "contradicts the classifier's expectation")
    _add_pipeline_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report",
                       help="render the benchmark history as an "
                            "HTML/SVG dashboard")
    p.add_argument("-o", "--output", default="report.html")
    p.add_argument("--history-dir", default=DEFAULT_HISTORY_DIR)
    p.add_argument("--baseline-n", type=int, default=5,
                   help="rolling-baseline window (median of last N)")
    p.add_argument("--band", type=float, default=0.30,
                   help="minimum regression noise band (fraction)")
    p.add_argument("--gate", choices=("off", "warn", "fail"),
                   default="warn",
                   help="exit policy when a case regressed")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("metrics-serve",
                       help="serve the always-on metrics registry as an "
                            "OpenMetrics endpoint (plus optional file "
                            "flusher and NDJSON event log)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="also flush the exposition text (and FILE.json "
                        "snapshot) to disk on a timer")
    p.add_argument("--interval", type=float, default=10.0,
                   help="flush period in seconds for --metrics-out")
    p.add_argument("--events", default=None, metavar="FILE",
                   help="write discrete events (pool respawns, guarantee "
                        "violations, ...) to this NDJSON file, rotated "
                        "at 4MiB")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for N seconds then exit (default: until "
                        "interrupted)")
    p.add_argument("--demo", action="store_true",
                   help="run a small synthetic enumeration loop so the "
                        "endpoint has live data")
    p.set_defaults(fn=cmd_metrics_serve)

    p = sub.add_parser("top",
                       help="live terminal view of the metrics registry "
                            "(delay/phase quantiles, counter rates, "
                            "recent events)")
    p.add_argument("--url", default=None,
                   help="scrape a metrics-serve endpoint (e.g. "
                        "http://127.0.0.1:9464/metrics) instead of the "
                        "in-process registry")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh period in seconds")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: until interrupted)")
    p.add_argument("--once", action="store_true",
                   help="print one frame without clearing the screen")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("bench-delay", help="quick delay experiment")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[1000, 4000, 16000])
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write structured results (p50/p95/p99 delays, "
                        "preprocessing, log-log slopes) as JSON")
    _add_pipeline_flags(p)
    p.set_defaults(fn=cmd_bench_delay)

    p = sub.add_parser("bench-core",
                       help="time the relational kernel per backend")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[10000, 30000, 100000])
    p.add_argument("--engines", nargs="+", default=None, type=_engine_name,
                   help="backends to time (default: all registered)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--output", default="BENCH_core.json")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write structured results with per-(op, backend) "
                        "log-log slopes as JSON")
    p.set_defaults(fn=cmd_bench_core)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        message = " ".join(str(exc).splitlines())
        print(f"repro: error: {message}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
