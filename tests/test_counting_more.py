"""Tests for matchings (Equation 2 / Theorem 4.22), the Karp-Luby FPRAS
(Section 5.1), and #Sigma_0 counting (Theorem 5.3)."""

import pytest

from repro.counting.approx import (
    count_so_models_bruteforce,
    encode_3dnf,
    exact_dnf_count,
    exact_dnf_count_shannon,
    karp_luby_dnf,
)
from repro.counting.matchings import (
    count_perfect_matchings_bruteforce,
    count_perfect_matchings_via_acq,
    product_query,
    star_query,
)
from repro.counting.spectrum import count_sigma0, count_so_bruteforce
from repro.counting.weighted import WeightFunction
from repro.data import generators
from repro.data.database import Database
from repro.data.relation import Relation
from repro.logic.fo import And, Not, Or, RelAtom, SOAtom, SecondOrderVariable
from repro.logic.terms import Constant, Variable


# ----------------------------------------------------------------- matchings


def test_product_query_is_quantifier_free_free_connex():
    phi = product_query([0, 1, 2])
    assert phi.is_quantifier_free()
    assert phi.is_acyclic() and phi.is_free_connex()


def test_star_query_star_size_is_n():
    for n in (2, 4, 6):
        assert star_query(list(range(n))).quantified_star_size() == n


def test_perfect_matchings_on_known_graphs():
    # complete bipartite K_{3,3}: 3! = 6 perfect matchings
    a = [("a", i) for i in range(3)]
    b = [("b", i) for i in range(3)]
    rel = Relation("E", 2, [(u, v) for u in a for v in b])
    db = Database([rel])
    assert count_perfect_matchings_bruteforce(db, a, b) == 6
    assert count_perfect_matchings_via_acq(db, a, b) == 6


def test_perfect_matchings_randomized_agreement():
    for seed in range(5):
        db, a, b = generators.random_bipartite_graph(5, 0.45, seed=seed)
        assert count_perfect_matchings_bruteforce(db, a, b) == \
            count_perfect_matchings_via_acq(db, a, b), seed


def test_perfect_matchings_empty_graph():
    a = [("a", 0)]
    b = [("b", 0)]
    rel = Relation("E", 2)
    db = Database([rel], domain=a + b)
    assert count_perfect_matchings_bruteforce(db, a, b) == 0
    assert count_perfect_matchings_via_acq(db, a, b) == 0


def test_perfect_matchings_unbalanced_sides():
    db, a, b = generators.random_bipartite_graph(3, 0.5, seed=0)
    assert count_perfect_matchings_bruteforce(db, a, b[:2]) == 0


# -------------------------------------------------------------------- FPRAS


def test_exact_counters_agree():
    for seed in range(6):
        terms = generators.random_kdnf(8, 5, k=3, seed=seed)
        assert exact_dnf_count(terms, 8) == \
            exact_dnf_count_shannon(terms, 8), seed


def test_shannon_count_matches_brute_force_on_small_instances():
    def brute(terms, n):
        return sum(
            any(all(((bits >> (abs(lit) - 1)) & 1) == (lit > 0)
                    for lit in t) for t in terms)
            for bits in range(1 << n))

    cases = [([], 4), ([[]], 3), ([[1, -1]], 3), ([[1, 1, -2]], 3),
             ([[1], [-1]], 2), ([[2, 3], [-3, 4], [1, -2, 4]], 6)]
    cases += [(generators.random_kdnf(9, m, k=3, seed=seed), 9)
              for seed in range(4) for m in (1, 6, 14)]
    for terms, n in cases:
        exact = exact_dnf_count_shannon(terms, n)
        assert exact == exact_dnf_count(terms, n) == brute(terms, n), terms


def test_karp_luby_within_epsilon():
    failures = 0
    for seed in range(8):
        terms = generators.random_kdnf(10, 8, k=3, seed=seed)
        exact = exact_dnf_count_shannon(terms, 10)
        est = karp_luby_dnf(terms, 10, epsilon=0.1, seed=seed)
        if abs(est - exact) > 0.1 * max(exact, 1):
            failures += 1
    # Definition 5.4 allows failure probability < 1/4 per call
    assert failures <= 2


def test_karp_luby_edge_cases():
    assert karp_luby_dnf([], 5, epsilon=0.1) == 0.0
    with pytest.raises(ValueError):
        karp_luby_dnf([[1]], 5, epsilon=0.0)
    # single full-width term: exactly 1 satisfying assignment
    est = karp_luby_dnf([[1, 2, 3]], 3, epsilon=0.05, seed=0)
    assert est == pytest.approx(1.0, rel=0.2)


def test_3dnf_encoding_bijection():
    for seed in range(4):
        terms = generators.random_kdnf(5, 4, k=3, seed=seed)
        enc = encode_3dnf(terms, 5)
        assert count_so_models_bruteforce(enc) == exact_dnf_count(terms, 5), seed


def test_3dnf_encoding_rejects_wrong_width():
    with pytest.raises(ValueError):
        encode_3dnf([[1, 2]], 3)


# ------------------------------------------------------------------ #Sigma_0


def test_count_sigma0_matches_bruteforce():
    X = SecondOrderVariable("X", 1)
    x = Variable("x")
    rel = Relation("P", 1, [(0,), (1,)])
    db = Database([rel], domain=[0, 1, 2])
    cases = [
        SOAtom(X, [Constant(0)]),
        And(RelAtom("P", [x]), SOAtom(X, [x])),
        Or(SOAtom(X, [Constant(1)]), Not(SOAtom(X, [Constant(2)]))),
    ]
    for phi in cases:
        assert count_sigma0(phi, db) == count_so_bruteforce(phi, db)


def test_count_sigma0_two_so_variables():
    X = SecondOrderVariable("X", 1)
    Y = SecondOrderVariable("Y", 1)
    db = Database.from_relations({"P": [(0,)]})
    db.add_domain_values([1])
    phi = And(SOAtom(X, [Constant(0)]), Not(SOAtom(Y, [Constant(1)])))
    assert count_sigma0(phi, db) == count_so_bruteforce(phi, db)


def test_count_sigma0_rejects_quantifiers():
    from repro.errors import UnsupportedQueryError
    from repro.logic.fo import Exists

    X = SecondOrderVariable("X", 1)
    db = Database.from_relations({"P": [(0,)]})
    with pytest.raises(UnsupportedQueryError):
        count_sigma0(Exists(["x"], SOAtom(X, ["x"])), db)


def test_count_sigma0_is_exact_big_integer():
    """Polynomial time even when the count is astronomically large."""
    X = SecondOrderVariable("X", 2)
    db = Database.from_relations({"P": [(i, i) for i in range(12)]})
    phi = SOAtom(X, [Constant(0), Constant(0)])
    got = count_sigma0(phi, db)
    assert got == 2 ** (12 * 12 - 1)


def test_weight_function_interface():
    w = WeightFunction({1: 3})
    assert w(1) == 3 and w(99) == 1
    assert w.tuple_weight((1, 1)) == 9
    fn = WeightFunction(lambda v: 2)
    assert fn.tuple_weight((0, 0, 0)) == 8
    assert WeightFunction.ones()(5) == 1
