"""The four workloads: inputs from a seed, requests, and answer checks.

Every input is generated here with numpy from the seed, outside the timed
region, and handed to the program as plain Python tuples (the form
``load_csv_database`` builds).  The program is called exactly as a user
calls it: through ``repro.Database`` / ``repro.count`` / ``repro.decide`` /
``repro.enumerate_answers`` / ``repro.parse_query`` / ``repro.classify``,
with no ``engine=`` argument.  Calls go through the ``repro`` module at
call time, so the traced run's wrappers see them.

Expected answers come from numpy over the generated arrays (path-query
workloads) or from the naive evaluator run outside the timed region
(``adhoc_mix``); neither uses the engine under test.  A check returns the
list of mismatches, empty when the request's answers are right.
"""

from __future__ import annotations

from itertools import islice
from time import perf_counter

import numpy as np

import repro

PATH_BODY = "R(x, y), S(y, z), T(z, w)"
PATH_FULL = f"Q(x, y, z, w) :- {PATH_BODY}"
PATH_BOOLEAN = f"Q() :- {PATH_BODY}"


# ---------------------------------------------------------------- data


def distinct_pairs(rng, n, left, right):
    """``n`` distinct pairs ``(a, b)`` with ``a < left``, ``b < right``,
    in random order."""
    out = np.empty((0, 2), dtype=np.int64)
    while len(out) < n:
        fresh = np.stack([rng.integers(0, left, 2 * n),
                          rng.integers(0, right, 2 * n)], axis=1)
        out = np.unique(np.concatenate([out, fresh]), axis=0)
    return out[rng.permutation(len(out))[:n]]


def join(left, right):
    """Rows ``left + right[1:]`` where ``left[-1] == right[0]``."""
    order = np.argsort(right[:, 0], kind="stable")
    keys = right[order, 0]
    lo = np.searchsorted(keys, left[:, -1], "left")
    hi = np.searchsorted(keys, left[:, -1], "right")
    per_row = hi - lo
    rows = np.repeat(np.arange(len(left)), per_row)
    starts = np.repeat(lo - (np.cumsum(per_row) - per_row), per_row)
    matched = order[np.arange(len(rows)) + starts]
    return np.concatenate([left[rows], right[matched, 1:]], axis=1)


def degrees(column, size):
    return np.bincount(column, minlength=size)


def path_count(r, s, t, size):
    """|R(x,y), S(y,z), T(z,w)| = sum over S of in-deg_R(y) * out-deg_T(z)."""
    return int((degrees(r[:, 1], size)[s[:, 0]]
                * degrees(t[:, 0], size)[s[:, 1]]).sum())


def as_rows(array, *convert):
    return {tuple(f(v) for f, v in zip(convert, row))
            for row in array.tolist()}


# ----------------------------------------------------------- measuring


def drain(query, db, limit=None):
    """Answers of ``enumerate_answers`` and (first_s, n, drain_s): time
    from the call to the first answer, and from there to the last."""
    start = perf_counter()
    it = repro.enumerate_answers(query, db)
    first = next(it, None)
    first_at = perf_counter()
    if first is None:
        return [], (first_at - start, 0, 0.0)
    rest = list(islice(it, limit - 1) if limit else it)
    if limit:
        it.close()
    end = perf_counter()
    return [first] + rest, (first_at - start, 1 + len(rest), end - first_at)


def check_answers(label, answers, expected, types):
    """Set equality, no repeats, and value identity by position."""
    problems = []
    got = set(answers)
    if len(got) != len(answers):
        problems.append(f"{label}: {len(answers) - len(got)} repeated answers")
    if got != expected:
        problems.append(f"{label}: {len(got)} answers, expected "
                        f"{len(expected)}, {len(got ^ expected)} differ")
    for pos, want in enumerate(types):
        seen = {type(a[pos]) for a in answers}
        if seen - {want}:
            problems.append(f"{label}: column {pos} holds "
                            f"{sorted(t.__name__ for t in seen)}")
    return problems


def check_scalar(label, got, expected, kind):
    if type(got) is not kind or got != expected:
        return [f"{label}: got {got!r} ({type(got).__name__}), "
                f"expected {expected!r}"]
    return []


# ------------------------------------------------------------ workloads


class Workload:
    """One workload: ``setup`` builds the resident state, ``prepare(i)``
    makes request ``i``'s input (untimed), ``run`` is the timed request and
    returns its outcome, ``check`` compares the outcome with a reference
    (untimed).  Outcomes are dicts; ``enums`` holds the (first_s, n,
    drain_s) triples of each enumeration and ``update_s`` the write time.
    """

    name = ""
    # Requests run untimed before the measured ones, so that every
    # measured request sees the steady state of a long-running process.
    # The plan cache holds 256 entries; a workload whose requests each add
    # k new ones fills it after 256/k requests, and from then on every
    # request evicts and memory is recycled instead of grown.  Measuring
    # part of the filling would make the figures depend on how many
    # requests fit in a run.
    WARMUP = 0

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale

    def size(self, n, least=8):
        return max(least, int(round(n * self.scale)))

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def sizes(self):
        return {}

    def digest(self, out):
        """What the traced run must reproduce exactly."""
        return (out.get("count"), out.get("decide"),
                hash(frozenset(out.get("answers", ()))))


class ColdLoad(Workload):
    """Each request ingests a fresh database, counts the full path query
    and drains its projection Q(x, y): the ``repro run`` user.  Every
    request loads the same contents, as newly made Python objects, so all
    requests do the same work and each database is a new one to the
    program."""

    name = "cold_load"
    WARMUP = 80  # 4 plan entries per request

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n = self.size(2000)
        self.dom = max(4, self.n // 2)
        rng = self.rng(1)
        self.r, self.s, self.t = (distinct_pairs(rng, self.n, self.dom,
                                                 self.dom) for _ in range(3))
        t_out = degrees(self.t[:, 0], self.dom)
        y_ok = np.zeros(self.dom, dtype=bool)
        y_ok[self.s[t_out[self.s[:, 1]] > 0, 0]] = True
        self.expected_count = path_count(self.r, self.s, self.t, self.dom)
        self.expected = as_rows(self.r[y_ok[self.r[:, 1]]], int, self.key)

    @staticmethod
    def key(value):
        return f"id{value}"

    def sizes(self):
        return {"tuples_per_relation": self.n, "domain": self.dom}

    def setup(self):
        self.full = repro.parse_query(PATH_FULL)
        self.projected = repro.parse_query(f"Q(x, y) :- {PATH_BODY}")
        self.run(self.prepare(-1))

    def prepare(self, i):
        key = self.key
        return {"R": [(a, key(b)) for a, b in self.r.tolist()],
                "S": [(key(a), b) for a, b in self.s.tolist()],
                "T": [tuple(row) for row in self.t.tolist()]}

    def run(self, relations):
        db = repro.Database.from_relations(relations)
        total = repro.count(self.full, db)
        answers, enum = drain(self.projected, db)
        return {"count": total, "answers": answers, "enums": [enum]}

    def check(self, relations, out):
        return (check_scalar("count", out["count"], self.expected_count, int)
                + check_answers("Q(x,y)", out["answers"], self.expected,
                                (int, str)))


class WarmEnum(Workload):
    """One resident database; requests rotate over four free-connex
    queries whose plans stay cached."""

    name = "warm_enum"
    HEADS = ["x, y", "x, y, z", "y, z, w", "x, y, z, w"]

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n = self.size(15000)
        rng = self.rng(2)
        r, s, t = (distinct_pairs(rng, self.n, self.n, self.n)
                   for _ in range(3))
        self.relations = {name: [tuple(row) for row in rel.tolist()]
                          for name, rel in zip("RST", (r, s, t))}
        size = self.n
        r_in, t_out = degrees(r[:, 1], size), degrees(t[:, 0], size)
        y_ok = np.zeros(size, dtype=bool)
        y_ok[s[t_out[s[:, 1]] > 0, 0]] = True
        rs = join(r, s)
        st = join(s, t)
        self.expected = [as_rows(a, int, int, int, int) for a in (
            r[y_ok[r[:, 1]]],
            rs[t_out[rs[:, 2]] > 0],
            st[r_in[st[:, 0]] > 0],
            join(rs, t))]
        self.types = [(int,) * len(h.split(",")) for h in self.HEADS]

    def sizes(self):
        return {"tuples_per_relation": self.n, "domain": self.n}

    def setup(self):
        self.queries = [repro.parse_query(f"Q({h}) :- {PATH_BODY}")
                        for h in self.HEADS]
        self.db = repro.Database.from_relations(self.relations)
        for q in self.queries:
            drain(q, self.db)

    def prepare(self, i):
        return i % len(self.queries)

    def run(self, k):
        answers, enum = drain(self.queries[k], self.db)
        return {"answers": answers, "enums": [enum]}

    def check(self, k, out):
        return check_answers(f"Q({self.HEADS[k]})", out["answers"],
                             self.expected[k], self.types[k])


class WriteRead(Workload):
    """One resident database; each request inserts and deletes a batch
    of S tuples, then counts the path query and decides its Boolean
    version."""

    name = "write_read"
    WARMUP = 140  # 2 plan entries per request

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n = self.size(3500)
        self.batch = self.size(50, least=2)
        rng = self.rng(3)
        self.r, self.s, self.t = (distinct_pairs(rng, self.n, self.n, self.n)
                                  for _ in range(3))
        self.r_in = degrees(self.r[:, 1], self.n).tolist()
        self.t_out = degrees(self.t[:, 0], self.n).tolist()

    def sizes(self):
        return {"tuples_per_relation": self.n, "domain": self.n,
                "batch": self.batch}

    def setup(self):
        self.full = repro.parse_query(PATH_FULL)
        self.boolean = repro.parse_query(PATH_BOOLEAN)
        self.db = repro.Database.from_relations(
            {name: [tuple(row) for row in rel.tolist()]
             for name, rel in zip("RST", (self.r, self.s, self.t))})
        # the benchmark's own mirror of S and of the expected count
        self.live = [tuple(row) for row in self.s.tolist()]
        self.live_set = set(self.live)
        self.expected = path_count(self.r, self.s, self.t, self.n)
        repro.count(self.full, self.db)
        repro.decide(self.boolean, self.db)

    def weight(self, row):
        return self.r_in[row[0]] * self.t_out[row[1]]

    def prepare(self, i):
        rng = self.rng(4, i)
        removed = []
        for pos in sorted(rng.choice(len(self.live), self.batch,
                                     replace=False).tolist(), reverse=True):
            self.live[pos], self.live[-1] = self.live[-1], self.live[pos]
            removed.append(self.live.pop())
        added = []
        # new rows avoid the removed ones too: the request adds before it
        # discards, so re-adding a removed row would be a no-op
        while len(added) < self.batch:
            row = tuple(rng.integers(0, self.n, 2).tolist())
            if row not in self.live_set:
                self.live_set.add(row)
                added.append(row)
        self.live_set.difference_update(removed)
        self.live.extend(added)
        self.expected += (sum(map(self.weight, added))
                          - sum(map(self.weight, removed)))
        return added, removed, self.expected

    def run(self, inp):
        added, removed, _ = inp
        start = perf_counter()
        s = self.db.relation("S")
        for row in added:
            s.add(row)
        for row in removed:
            s.discard(row)
        update_s = perf_counter() - start
        return {"count": repro.count(self.full, self.db),
                "decide": repro.decide(self.boolean, self.db),
                "update_s": update_s}

    def check(self, inp, out):
        expected = inp[2]
        return (check_scalar("count", out["count"], expected, int)
                + check_scalar("decide", out["decide"], expected > 0, bool))


# Query shapes of the ad-hoc stream: edges between numbered variables and
# the head variables of each variant.  ``same`` shapes use one relation
# symbol throughout (self-joins); the last two are cyclic with an acyclic
# core, so the planner falls back to naive evaluation although the
# classifier finds them tractable.  The stream cycles through the shapes
# and variants in a fixed order, so every seed has the same mix of costly
# and cheap queries; the seed picks symbols and variable names.
SHAPES = [
    ("path2", [(0, 1), (1, 2)], False, [(0,), (0, 2), (1,)]),
    ("path3", [(0, 1), (1, 2), (2, 3)], False, [(0,), (0, 3), (1, 2)]),
    ("star", [(0, 1), (0, 2), (0, 3)], False, [(0,), (1, 2), (0, 1)]),
    ("tree", [(0, 1), (1, 2), (1, 3), (3, 4)], False, [(0,), (2, 4), (1, 3)]),
    ("selfjoin_path", [(0, 1), (1, 2), (2, 3)], True, [(0,), (0, 3), (1, 2)]),
    ("selfjoin_swap", [(0, 1), (1, 0), (1, 2)], True, [(0,), (0, 2), (1, 2)]),
    ("triangle", [(0, 1), (1, 2), (2, 0)], False, [(0,), (0, 1), (1, 2)]),
    ("core_triangle", [(0, 1), (1, 2), (2, 0), (3, 3), (0, 3)], True, [(3,)]),
    ("core_swap", [(0, 1), (1, 0), (2, 2), (0, 2)], True, [(2,)]),
]
NAMES = "abcdefghijkmnpqrstuvwxyz"


class AdhocQuery:
    def __init__(self, atoms, head):
        self.atoms = atoms  # [(symbol, (var, var))]
        self.head = head

    def body(self):
        return ", ".join(f"{sym}({a}, {b})" for sym, (a, b) in self.atoms)

    def text(self):
        return f"Q({', '.join(self.head)}) :- {self.body()}"

    def boolean(self):
        return f"Q() :- {self.body()}"


class AdhocMix(Workload):
    """One small resident database; each request is a new CQ from a
    seeded stream: parse, classify, decide the Boolean body, and take the
    first ``LIMIT`` answers (``repro run --limit``)."""

    name = "adhoc_mix"
    WARMUP = 70  # 4 to 5 plan entries per request
    LIMIT = 100

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n = self.size(2000)
        self.dom = max(8, self.n // 2)
        rng = self.rng(5)
        rels = {name: [tuple(row) for row in
                       distinct_pairs(rng, self.n, self.dom, self.dom).tolist()]
                for name in "EFG"}
        loops = [(v, v) for v in range(0, self.dom, 16)]
        rels["E"] = list(dict.fromkeys(rels["E"] + loops))
        self.relations = rels
        self.seen = set()
        rng = self.rng(6)
        self.warmup = [self.query(rng, k) for k in range(len(SHAPES))]
        self.stream = []
        self.reference = {}
        self.reference_db = None

    def sizes(self):
        return {"tuples": sum(map(len, self.relations.values())),
                "domain": self.dom, "limit": self.LIMIT}

    def query(self, rng, index):
        """The stream's ``index``-th shape and head variant, with a fresh
        choice of symbols and variable names."""
        _, edges, same, heads = SHAPES[index % len(SHAPES)]
        head = heads[(index // len(SHAPES)) % len(heads)]
        nvars = 1 + max(max(e) for e in edges)
        while True:
            letters = rng.choice(len(NAMES), nvars, replace=False).tolist()
            var = [NAMES[k] + str(int(rng.integers(10))) for k in letters]
            symbols = ["E"] * len(edges) if same else \
                ["EFG"[k] for k in rng.integers(0, 3, len(edges)).tolist()]
            q = AdhocQuery([(sym, (var[a], var[b]))
                            for sym, (a, b) in zip(symbols, edges)],
                           [var[k] for k in head])
            if q.text() not in self.seen:
                self.seen.add(q.text())
                return q

    def setup(self):
        self.db = repro.Database.from_relations(self.relations)
        for q in self.warmup:
            self.run(q)

    def prepare(self, i):
        while len(self.stream) <= i:
            self.stream.append(self.query(self.rng(7, len(self.stream)),
                                          len(self.stream)))
        return self.stream[i]

    def run(self, q):
        query = repro.parse_query(q.text())
        repro.classify(query)
        decided = repro.decide(repro.parse_query(q.boolean()), self.db)
        answers, enum = drain(query, self.db, limit=self.LIMIT)
        return {"decide": decided, "answers": answers, "enums": [enum]}

    def reference_answers(self, q):
        """The whole answer set, by the naive evaluator over a database of
        its own (its lazily built indexes must not serve the program's
        requests), cached per query so the traced replay reuses it."""
        from repro.eval.naive import evaluate_cq_naive

        if self.reference_db is None:
            self.reference_db = repro.Database.from_relations(self.relations)
        if q.text() not in self.reference:
            self.reference[q.text()] = evaluate_cq_naive(
                repro.parse_query(q.text()), self.reference_db)
        return self.reference[q.text()]

    def check(self, q, out):
        """A short page must be the whole answer set, a full page a subset
        of it; ``decide`` must say whether it is empty."""
        answers = out["answers"]
        full = self.reference_answers(q)
        types = (int,) * len(q.head)
        if len(answers) < self.LIMIT:
            problems = check_answers(q.text(), answers, full, types)
        else:
            problems = check_answers(q.text(), answers, set(answers), types)
            if len(answers) > self.LIMIT:
                problems.append(f"{q.text()}: {len(answers)} answers")
            outside = set(answers) - full
            if outside:
                problems.append(f"{q.text()}: {len(outside)} answers not in "
                                "the answer set")
        return problems + check_scalar(f"decide {q.text()}", out["decide"],
                                       bool(full), bool)


WORKLOADS = {w.name: w for w in (ColdLoad, WarmEnum, WriteRead, AdhocMix)}
