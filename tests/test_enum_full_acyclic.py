"""Unit tests for the constant-delay full-join kernel."""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data.database import Database
from repro.data.relation import Relation
from repro.enumeration.free_connex import FreeConnexEnumerator
from repro.enumeration.full_acyclic import FullJoinEnumerator, reduce_relations
from repro.errors import NotAcyclicError
from repro.eval.join import VarRelation
from repro.eval.naive import evaluate_cq_naive
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import build_join_tree
from repro.logic.atoms import Atom
from repro.logic.cq import ConjunctiveQuery
from repro.logic.terms import Variable

x, y, z, w = (Variable(c) for c in "xyzw")


def test_basic_join_enumeration():
    r = VarRelation((x, y), [(1, 2), (2, 3)])
    s = VarRelation((y, z), [(2, 9), (3, 8), (3, 7)])
    enum = FullJoinEnumerator([r, s], (x, y, z))
    got = list(enum)
    assert sorted(got) == [(1, 2, 9), (2, 3, 7), (2, 3, 8)]
    assert len(got) == len(set(got))


def test_head_must_cover_join_variables():
    r = VarRelation((x, y), [(1, 2)])
    with pytest.raises(ValueError):
        FullJoinEnumerator([r], (x,))


def test_cyclic_schema_rejected():
    r = VarRelation((x, y), [(1, 2)])
    s = VarRelation((y, z), [(2, 3)])
    t = VarRelation((z, x), [(3, 1)])
    enum = FullJoinEnumerator([r, s, t], (x, y, z))
    with pytest.raises(NotAcyclicError):
        enum.preprocess()


def test_empty_relation_yields_nothing():
    r = VarRelation((x, y), [(1, 2)])
    s = VarRelation((y, z))
    assert list(FullJoinEnumerator([r, s], (x, y, z))) == []


def test_dangling_tuples_filtered_by_reducer():
    r = VarRelation((x, y), [(1, 2), (5, 99)])   # (5, 99) dangles
    s = VarRelation((y, z), [(2, 9)])
    got = list(FullJoinEnumerator([r, s], (x, y, z)))
    assert got == [(1, 2, 9)]


def test_no_reduce_flag_keeps_consistent_inputs_working():
    r = VarRelation((x, y), [(1, 2)])
    s = VarRelation((y, z), [(2, 9)])
    got = list(FullJoinEnumerator([r, s], (x, y, z), reduce=False))
    assert got == [(1, 2, 9)]


def test_cartesian_components():
    r = VarRelation((x,), [(1,), (2,)])
    s = VarRelation((y,), [(5,), (6,)])
    got = set(FullJoinEnumerator([r, s], (x, y)))
    assert got == {(1, 5), (1, 6), (2, 5), (2, 6)}


def test_head_order_controls_output_order_of_columns():
    r = VarRelation((x, y), [(1, 2)])
    got = list(FullJoinEnumerator([r], (y, x)))
    assert got == [(2, 1)]


def test_no_dead_ends_during_enumeration():
    """After reduction, every probe must be non-empty: instrument by
    checking the enumerator produces steadily (every consecutive pair of
    outputs exists without long stalls is covered by perf tests; here we
    assert exact output count on a bigger random instance)."""
    import random

    rng = random.Random(0)
    r = VarRelation((x, y))
    s = VarRelation((y, z))
    for _ in range(200):
        r.add((rng.randrange(20), rng.randrange(20)))
        s.add((rng.randrange(20), rng.randrange(20)))
    expected = {(a, b, c) for (a, b) in r for (b2, c) in s if b == b2}
    got = list(FullJoinEnumerator([r, s], (x, y, z)))
    assert set(got) == expected
    assert len(got) == len(expected)


def test_reduce_relations_pairwise_consistency():
    r = VarRelation((x, y), [(1, 2), (5, 99)])
    s = VarRelation((y, z), [(2, 9), (42, 1)])
    h = Hypergraph({x, y, z}, [frozenset((x, y)), frozenset((y, z))])
    tree = build_join_tree(h)
    red = reduce_relations(tree, [r, s])
    assert set(red[0]) == {(1, 2)}
    assert set(red[1]) == {(2, 9)}


# ------------------------------------------------------ block-at-a-time kernel

#: None is the default (``REPRO_BLOCK_SIZE``, else 1024)
KERNEL_BLOCK_SIZES = (0, 1, 2, 3, None)


@st.composite
def free_connex_query(draw):
    """A random free-connex CQ over a database, with the head in a random
    order: atoms grow a tree (so the query is alpha-acyclic), a single
    atom is as likely as a join, and free-connexity is assumed."""
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    atom_vars = []
    fresh = 0
    for i in range(n_atoms):
        shared = []
        if i:
            parent = atom_vars[draw(st.integers(0, i - 1))]
            shared = draw(st.lists(st.sampled_from(parent), max_size=len(parent),
                                   unique=True))
        mine = list(shared)
        for _ in range(draw(st.integers(0 if shared else 1, 2))):
            mine.append(Variable(f"v{fresh}"))
            fresh += 1
        atom_vars.append(draw(st.permutations(mine)))
    all_vars = sorted({v for vs in atom_vars for v in vs}, key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(all_vars), unique=True, min_size=1,
                         max_size=len(all_vars)))
    cq = ConjunctiveQuery(head, [Atom(f"R{i}", vs)
                                 for i, vs in enumerate(atom_vars)])
    assume(cq.is_free_connex())
    domain = st.integers(min_value=0, max_value=3)
    db = Database([Relation(f"R{i}", len(vs), draw(st.lists(
        st.tuples(*[domain] * len(vs)), max_size=12)))
        for i, vs in enumerate(atom_vars)])
    return cq, db


@settings(max_examples=80, deadline=None)
@given(free_connex_query())
def test_tuple_path_matches_naive_at_every_block_size(instance):
    cq, db = instance
    expected = evaluate_cq_naive(cq, db)
    reference = None
    for block_size in KERNEL_BLOCK_SIZES:
        got = list(FreeConnexEnumerator(cq, db, engine="tuple",
                                        block_size=block_size))
        assert len(got) == len(set(got)), block_size
        assert set(got) == expected, block_size
        # block boundaries never reorder the stream
        reference = got if reference is None else reference
        assert got == reference, block_size


@settings(max_examples=60, deadline=None)
@given(free_connex_query(), st.data())
def test_full_join_permuted_head_matches_naive(instance, data):
    """The kernel itself on a projection-free join, head in any order
    (a single relation included)."""
    cq, db = instance
    body_vars = sorted(cq.variables(), key=lambda v: v.name)
    head = data.draw(st.permutations(body_vars))
    full = ConjunctiveQuery(head, cq.atoms)
    relations = [VarRelation(atom.terms, db.relation(atom.relation))
                 for atom in cq.atoms]
    expected = evaluate_cq_naive(full, db)
    for block_size in KERNEL_BLOCK_SIZES:
        got = list(FullJoinEnumerator(relations, head, block_size=block_size))
        assert len(got) == len(set(got)) and set(got) == expected, block_size


@pytest.mark.parametrize("block_size", KERNEL_BLOCK_SIZES)
def test_single_relation_blocks_and_head_order(block_size):
    r = VarRelation((x, y, z), [(i, i + 1, i + 2) for i in range(10)])
    got = list(FullJoinEnumerator([r], (z, x, y), block_size=block_size))
    assert got == [(i + 2, i, i + 1) for i in range(10)]


HUB = "hub"
HUB_FANOUT = 20_000


def _hub_join(block_size):
    """One hub value joined to 20k leaf tuples: whichever relation the
    join tree roots at, some probe returns a bucket larger than a block."""
    r = VarRelation((x, y), [(0, HUB), (1, HUB), (2, "other")])
    s = VarRelation((y, z), [(HUB, k) for k in range(HUB_FANOUT)]
                    + [("other", -1)])
    return FullJoinEnumerator([r, s], (x, y, z), block_size=block_size)


@pytest.mark.parametrize("block_size", [1, 3, 1024, None])
def test_heavy_hitter_blocks_respect_their_limits(block_size):
    enum = _hub_join(block_size)
    cap = max(1, enum._block_size)
    blocks = list(enum.blocks())
    limits = [min(2 ** k, cap) for k in range(len(blocks))]
    assert len(blocks[0]) == 1
    # every block is full up to its doubling limit; only the last may be short
    assert [len(b) for b in blocks[:-1]] == limits[:-1]
    assert 1 <= len(blocks[-1]) <= limits[-1]
    answers = [t for b in blocks for t in b]
    assert len(answers) == 2 * HUB_FANOUT + 1 == len(set(answers))
    assert answers == list(_hub_join(0))


def test_heavy_hitter_block_size_zero_is_per_answer():
    blocks = list(_hub_join(0).blocks())
    assert len(blocks) == 2 * HUB_FANOUT + 1
    assert all(len(b) == 1 for b in blocks)


def test_full_drain_records_every_answer_once():
    reg = obs.registry()
    assert reg.enabled
    enum = _hub_join(None)
    enum.preprocess()
    reg.reset()
    n = sum(1 for _ in enum)
    assert reg.counter("enum.answers") == n == 2 * HUB_FANOUT + 1
    assert reg.sketch("enum.delay_ns").count == n


def test_consumer_time_stays_out_of_the_delay_sketch():
    """A consumer sleeping 1 ms per answer adds ~40 ms between answers;
    the recorded delay covers block production only."""
    reg = obs.registry()
    r = VarRelation((x, y), [(i, i % 4) for i in range(40)])
    s = VarRelation((y, z), [(i % 4, i) for i in range(8)])
    enum = FullJoinEnumerator([r, s], (x, y, z))
    enum.preprocess()
    reg.reset()
    n = 0
    for _ in enum:
        n += 1
        time.sleep(0.001)
    sketch = reg.sketch("enum.delay_ns")
    assert sketch.count == n == 80
    assert sketch.total < 1_000_000  # below a single consumer pause
