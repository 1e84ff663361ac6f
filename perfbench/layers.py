"""Per-layer self times, measured from outside the program.

The traced run replaces each layer's public functions, where callers look
them up, with wrappers that time the call.  Every timed call is a frame on
one stack; a frame's *self* time is its duration minus the time of the
frames nested in it and of the garbage-collector pauses that fell inside
it.  Each request opens a root frame, so the root's self time is the part
of the request that no timed call covers (``unattributed``).

A call into a layer that is already on top of the stack is not timed
again: ``Relation.add`` inside ``Database.from_relations`` is ingest time
either way, and skipping the inner frame keeps the overhead per tuple low.

Nothing is timed while no request is open, so the benchmark's own answer
checks (which call the naive evaluator) never count.
"""

from __future__ import annotations

import functools
import gc
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer, what to count from the result)
FUNCTIONS = [
    ("repro.logic.parser", "parse_query", "parse", None),
    ("repro.core.classify", "classify", "classify", None),
    ("repro.hypergraph.jointree", "cached_join_tree", "plan", None),
    ("repro.eval.yannakakis", "materialise_atoms", "materialise",
     lambda t, args, out: t.add("materialise.rows", sum(len(r) for r in out))),
    ("repro.eval.yannakakis", "full_reducer", "reduce", None),
    ("repro.eval.yannakakis", "yannakakis_boolean", "reduce", None),
    ("repro.counting.acq_count", "derive_counting_join", "count_dp", None),
    ("repro.counting.acq_count", "count_full_acyclic_join", "count_dp", None),
    ("repro.eval.naive", "evaluate_cq_naive", "naive", None),
    ("repro.eval.naive", "cq_is_satisfiable_naive", "naive", None),
]

LAYERS = ["ingest", "parse", "classify", "plan", "materialise", "reduce",
          "count_dp", "enumerate", "emit", "naive"]


class LayerTracer:
    """Times calls into the program's layers while installed."""

    def __init__(self):
        self.stack = []  # frames: [layer, start, nested seconds]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.request_s = 0.0
        self.requests = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._undo = []
        self.missing = []

    # ------------------------------------------------------------ frames

    def add(self, name, amount):
        self.counts[name] += amount

    def _push(self, layer):
        frame = [layer, perf_counter(), 0.0]
        self.stack.append(frame)
        self.calls[layer] += 1
        return frame

    def _pop(self, frame):
        duration = perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def begin_request(self):
        self.stack.clear()
        return self._push("unattributed")

    def end_request(self, root):
        while self.stack and self.stack[-1] is not root:
            self._pop(self.stack[-1])
        if self.stack:
            self.request_s += self._pop(root)
            self.requests += 1

    def _timed(self, layer):
        stack = self.stack
        return bool(stack) and stack[-1][0] != layer

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            pause = perf_counter() - self._gc_start
            self._gc_start = None
            if self.stack:
                self.stack[-1][2] += pause
                self.gc_s += pause
                self.gc_collections += 1

    # ---------------------------------------------------------- wrappers

    def wrap_call(self, layer, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer._timed(layer):
                return fn(*args, **kwargs)
            frame = tracer._push(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if on_result is not None:
                on_result(tracer, args, out)
            return out

        return timed

    def wrap_iterator(self, layer, it, answers=None):
        """Time every ``next`` on ``it`` as a call into ``layer``."""
        try:
            while True:
                if self._timed(layer):
                    frame = self._push(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._pop(frame)
                    if answers:
                        self.counts[answers] += 1
                else:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def wrap_cached_plan(self, fn):
        """Time ``cached_plan`` as ``plan``, but hand the time its builder
        (or refresher) runs back to the layer that asked for the plan: a
        miss in ``full_reducer`` is reduce work, not plan work."""
        tracer = self

        def on_behalf(layer, build):
            if build is None:
                return None

            def run(*args, **kwargs):
                frame = tracer._push(layer)
                try:
                    return build(*args, **kwargs)
                finally:
                    tracer._pop(frame)

            return run

        @functools.wraps(fn)
        def timed(kind, query, db, engine_name, builder, extra=(),
                  refresher=None):
            if not tracer._timed("plan"):
                return fn(kind, query, db, engine_name, builder, extra,
                          refresher)
            caller = tracer.stack[-1][0]
            frame = tracer._push("plan")
            try:
                return fn(kind, query, db, engine_name,
                          on_behalf(caller, builder), extra,
                          on_behalf(caller, refresher))
            finally:
                tracer._pop(frame)

        return timed

    def wrap_generator_function(self, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return tracer.wrap_iterator(layer, fn(*args, **kwargs))

        return timed

    # ------------------------------------------------------ install/remove

    def _replace_everywhere(self, original, replacement):
        """Rebind every module-level name of the program bound to
        ``original``, so ``from x import f`` callers see the wrapper."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._undo.append((namespace, attr, original))

    def _replace_attribute(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _lookup(self, module_name, attr):
        """The program's ``module.attr``, or None (noted in ``missing``)
        when a later version renamed it: its time then counts for the
        caller's layer instead of breaking the run."""
        import importlib

        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return None

    def install(self):
        """Wrap the layers' public functions and hook the collector."""
        from repro.data.database import Database
        from repro.data.relation import Relation
        from repro.engine import get_engine
        from repro.enumeration.base import Enumerator

        for module_name, attr, layer, on_result in FUNCTIONS:
            original = self._lookup(module_name, attr)
            if original is not None:
                self._replace_everywhere(
                    original, self.wrap_call(layer, original, on_result))
        cached_plan = self._lookup("repro.core.plancache", "cached_plan")
        if cached_plan is not None:
            self._replace_everywhere(cached_plan,
                                     self.wrap_cached_plan(cached_plan))
        enumerate_answers = self._lookup("repro.core.planner",
                                         "enumerate_answers")
        if enumerate_answers is not None:
            self._replace_everywhere(
                enumerate_answers,
                self.wrap_generator_function("emit", enumerate_answers))

        from_relations = Database.__dict__["from_relations"].__func__
        self._replace_attribute(Database, "from_relations", classmethod(
            self.wrap_call("ingest", from_relations,
                           lambda t, args, db: t.add("ingest.tuples",
                                                     db.tuple_count()))))
        for attr in ("add", "discard"):
            self._replace_attribute(Relation, attr, self.wrap_call(
                "ingest", getattr(Relation, attr),
                lambda t, args, out: t.add("ingest.tuples", 1)))

        engine_cls = type(get_engine())
        self._replace_attribute(engine_cls, "materialise_atom", self.wrap_call(
            "materialise", engine_cls.materialise_atom,
            lambda t, args, out: t.add("materialise.rows", len(out))))

        tracer = self
        original_iter = Enumerator.__iter__
        original_preprocess = Enumerator.preprocess

        @functools.wraps(original_iter)
        def enumerator_iter(enumerator):
            if not tracer._timed("enumerate"):
                return original_iter(enumerator)
            frame = tracer._push("enumerate")
            try:
                it = original_iter(enumerator)
            finally:
                tracer._pop(frame)
            return tracer.wrap_iterator("enumerate", it, "enumerate.answers")

        self._replace_attribute(Enumerator, "__iter__", enumerator_iter)
        self._replace_attribute(Enumerator, "preprocess", self.wrap_call(
            "enumerate", original_preprocess))
        self._install_reduce_rows()
        gc.callbacks.append(self._gc_callback)

    def _install_reduce_rows(self):
        """Rows in and out of reductions that ran (not plan-cache hits):
        rows in are the rows materialised inside the ``full_reducer``
        call, rows out the rows it returned."""
        timed = self._lookup("repro.eval.yannakakis", "full_reducer")
        if timed is None:
            return
        tracer = self

        @functools.wraps(timed)
        def counted(*args, **kwargs):
            before = tracer.counts["materialise.rows"]
            out = timed(*args, **kwargs)
            rows_in = tracer.counts["materialise.rows"] - before
            if rows_in:
                tracer.counts["reduce.rows_in"] += rows_in
                tracer.counts["reduce.rows_out"] += sum(len(r) for r in out[1])
            return out

        self._replace_everywhere(timed, counted)

    def uninstall(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ report

    def metrics(self):
        """Per-request means of the layer figures, plus shares."""
        n = max(1, self.requests)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer] / n, "s")
        out["ingest.tuples"] = (self.counts["ingest.tuples"] / n, "count")
        for layer in ("parse", "classify", "naive"):
            out[f"{layer}.calls"] = (self.calls[layer] / n, "count")
        out["materialise.rows"] = (self.counts["materialise.rows"] / n, "count")
        rows_in = self.counts["reduce.rows_in"]
        rows_out = self.counts["reduce.rows_out"]
        out["reduce.rows_in"] = (rows_in / n, "count")
        out["reduce.rows_out"] = (rows_out / n, "count")
        out["reduce.kept_ratio"] = (rows_out / rows_in if rows_in else 0.0,
                                    "ratio")
        out["enumerate.answers"] = (self.counts["enumerate.answers"] / n,
                                    "count")
        out["gc.s"] = (self.gc_s / n, "s")
        out["gc.collections"] = (self.gc_collections / n, "count")
        out["unattributed.share"] = (
            self.self_s["unattributed"] / self.request_s
            if self.request_s else 0.0, "ratio")
        return out
