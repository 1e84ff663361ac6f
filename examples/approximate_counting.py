"""Approximate counting: the Karp-Luby FPRAS (Section 5.1 of the paper,
live) on a reliability workload.

A content delivery network is up if ANY of its delivery paths works; each
path is a conjunction of link states.  "In how many link-state worlds is
the CDN up?" is exactly #DNF — #P-complete to answer exactly, but
admitting a fully polynomial randomised approximation scheme (Definition
5.4).  We:

* compare the estimator against the exact count (Shannon expansion)
  across epsilon values — watching the error obey the bound while the
  sample budget grows like 1/epsilon^2;
* push the instance beyond brute force (60 variables) where ONLY the
  FPRAS and the memoised Shannon expansion still run;
* rebuild Example 5.1: the same formula as a Sigma^rel_1 structure whose
  satisfying relations are in bijection with the DNF's models.

Run:  python examples/approximate_counting.py
"""

import time

from repro.counting.approx import (
    count_so_models_bruteforce,
    encode_3dnf,
    exact_dnf_count,
    exact_dnf_count_shannon,
    karp_luby_dnf,
)
from repro.data.generators import random_kdnf
from repro.logic.prefix import classify_prefix


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("1. FPRAS accuracy vs epsilon (Definition 5.4)")
    n_vars, n_terms = 16, 12
    terms = random_kdnf(n_vars, n_terms, k=3, seed=7)
    exact = exact_dnf_count_shannon(terms, n_vars)
    print(f"paths (terms): {n_terms}, links (vars): {n_vars}, "
          f"exact #up-worlds = {exact}")
    print(f"{'epsilon':>8} {'estimate':>12} {'rel. error':>11} {'time (ms)':>10}")
    for eps in (0.5, 0.2, 0.1, 0.05):
        start = time.perf_counter()
        est = karp_luby_dnf(terms, n_vars, epsilon=eps, seed=1)
        ms = (time.perf_counter() - start) * 1e3
        rel = abs(est - exact) / exact
        print(f"{eps:>8} {est:>12.0f} {rel:>11.4f} {ms:>10.1f}")

    banner("2. Beyond brute force: 60 variables")
    big_terms = random_kdnf(60, 25, k=3, seed=2)
    exact_big = exact_dnf_count_shannon(big_terms, 60)
    est_big = karp_luby_dnf(big_terms, 60, epsilon=0.1, seed=3)
    print(f"exact (Shannon expansion over 2^60 assignments, memoised on")
    print(f"residual formulas): {exact_big}")
    print(f"Karp-Luby estimate: {est_big:.3e} "
          f"(rel. error {abs(est_big - exact_big) / exact_big:.4f})")

    banner("3. Example 5.1: #3DNF as a #Sigma^rel_1 problem")
    small = random_kdnf(5, 4, k=3, seed=5)
    enc = encode_3dnf(small, 5)
    print(f"Phi_0(T) lives in {classify_prefix(enc.formula)}")
    assert count_so_models_bruteforce(enc) == exact_dnf_count(small, 5)
    print(f"|{{T : A_phi |= Phi_0(T)}}| = {count_so_models_bruteforce(enc)} "
          f"= #models of the 3-DNF  (bijection verified)")


if __name__ == "__main__":
    main()
