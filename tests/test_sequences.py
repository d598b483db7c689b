import importlib.util
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaut.sequences import (SequenceError, SubdegreeSequence, _best_products, _tables, canonical_bound,
                               classification_search, enumerate_sequences, fermat_order, jc,
                               mixed_sequence_scan, ratio, ratio_with_groups, survivors_for,
                               uniform_bounds_check)

from lemmas import binomial_supermultiplicativity, lambda_addr0, ratio_quotient_law, ratioprod_check

rng = random.Random(424242)


def random_sequence(max_total=14):
    v = rng.randint(1, max_total)
    parts = []
    while v:
        p = rng.randint(1, v)
        parts.append(p)
        v -= p
    return SubdegreeSequence(parts)


def test_jc_values():
    table = {1: 1, 2: 60, 3: 360, 4: 25920, 5: 25920, 6: 6531840,
             7: 1451520, 8: 348364800, 9: 4199040, 12: 448345497600}
    for r, value in table.items():
        assert jc(r) == value
    assert jc(10) == factorial(11)
    assert jc(11) == factorial(12)
    assert jc(13) == factorial(14)
    assert jc(20) == factorial(21)


def test_sequence_parsing_and_type():
    s = SubdegreeSequence.from_text("8^1 6^2 1^3")
    assert s.parts == (8, 6, 6, 1, 1, 1)
    assert s.exponential_type() == "8^1 6^2 1^3"
    assert s.total == 23 and len(s.parts) == 6
    assert s.multiplicities() == [(8, 1), (6, 2), (1, 3)]
    assert SubdegreeSequence.from_text("3 2 1").parts == (3, 2, 1)


def test_ratio_known_values():
    assert ratio("1^7", 5) == 1
    assert ratio("2^13", 3) == Fraction(16000000000, 12649365729)
    assert ratio("3^1 2^1 1^1", 3) == Fraction(10, 9)
    assert ratio("2^5", 3) == Fraction(20000, 189)
    assert ratio("6^1 1^1", 4) == Fraction(81, 64)
    # the auxiliary list used in the decay arguments
    aux = {"3^1": (20, 3), "3^3": (200, 189), "4^1": (40, 1), "4^2": (320, 7),
           "4^3": (2560, 231), "5^1": (8, 3), "6^1": (112, 3), "6^2": (896, 297),
           "8^1": (320, 81)}
    for seq, (num, den) in aux.items():
        assert ratio(seq, 3) == Fraction(num, den)


def test_ratio_with_groups():
    assert ratio_with_groups([(2, 24), (2, 24)], 6) == Fraction(4, 3)
    assert ratio_with_groups([(2, 60), (2, 60)], 12) == Fraction(25, 12)
    assert ratio_with_groups([(1, 1)], 9) == 1
    with pytest.raises(SequenceError):
        ratio_with_groups([(2, 61)], 3)
    # never exceeds the JC ratio
    for _ in range(200):
        seq = random_sequence(10)
        groups = [(p, rng.randint(1, jc(p))) for p in seq.parts]
        d = rng.randint(3, 9)
        assert ratio_with_groups(groups, d) <= ratio(seq, d)


def test_canonical_bound():
    assert canonical_bound([(2, 24), (1, 1), (1, 1), (1, 1)], (1, 2, 1), 5) == 30000
    assert canonical_bound([(1, 1)] * 5, (5,), 3) == 3 ** 5 * factorial(5)
    assert canonical_bound([(3, 168)], (1,), 4) == 672
    with pytest.raises(SequenceError):
        canonical_bound([(2, 24), (1, 1)], (2,), 5)   # mixed subdegrees in one summand
    with pytest.raises(SequenceError):
        canonical_bound([(2, 24)], (2,), 5)           # multiplicities do not sum


def test_ratio_quotient_law():
    assert ratio_quotient_law("2^1", 6, 3)
    assert ratio("2^13", 4) / ratio("2^13", 3) == Fraction(3, 4) ** 13
    for _ in range(200):
        seq = random_sequence()
        d, d2 = rng.randint(3, 20), rng.randint(3, 20)
        assert ratio_quotient_law(seq, d, d2)
        if d > d2:
            assert ratio(seq, d) <= ratio(seq, d2)


def test_lambda_addr0():
    assert lambda_addr0("2^5", 2, 5, 3) == Fraction(10, 11)
    assert lambda_addr0("3^1", 3, 1, 3) < 1
    with pytest.raises(SequenceError):
        lambda_addr0("2^5", 3, 1, 3)
    count = 0
    while count < 200:
        seq = random_sequence(10)
        big = [p for p in set(seq.parts) if p > 1]
        if not big:
            continue
        r0 = rng.choice(big)
        lam = lambda_addr0(seq, r0, seq.count(r0), rng.randint(3, 12))
        assert lam > 0
        count += 1


def test_factorial_inequality():
    for _ in range(200):
        ks = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        prod = 1
        for k in ks:
            prod *= factorial(k)
        assert prod <= factorial(sum(ks))
        if len(ks) > 1:
            assert prod < factorial(sum(ks))


def test_binomial_supermultiplicativity():
    for _ in range(200):
        l1, l2 = random_sequence(10), random_sequence(10)
        d = rng.randint(3, 12)
        lhs, rhs, disjoint = binomial_supermultiplicativity(l1, l2, d)
        assert lhs >= rhs
        assert (lhs == rhs) == disjoint


def test_enumerate_sequences():
    assert len(list(enumerate_sequences(4))) == 5
    # independent oracle: Euler's pentagonal-number recurrence
    pcache = {0: 1}

    def p(n):
        if n < 0:
            return 0
        if n in pcache:
            return pcache[n]
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * (p(n - g1) + p(n - g2))
            k += 1
        pcache[n] = total
        return total

    for v in [1, 5, 9, 14, 20, 28]:
        assert len(list(enumerate_sequences(v))) == p(v)
    assert p(28) == 3718
    # deterministic descending-lex order
    seqs = [s.parts for s in enumerate_sequences(6)]
    assert seqs == sorted(seqs, reverse=True)


def _all_partitions(total, cap=None):
    """Every partition of total into parts <= cap, as tuples, in no particular order."""
    cap = total if cap is None else cap
    if total == 0:
        return [()]
    return [(p,) + rest for p in range(1, min(cap, total) + 1) for rest in _all_partitions(total - p, p)]


def _run_product(parts, d):
    """prod over the runs (r, k) of k! * (d * JC(r))^k."""
    prod = 1
    for r in set(parts):
        k = parts.count(r)
        prod *= factorial(k) * (d * jc(r)) ** k
    return prod


@settings(deadline=None)
@given(v=st.integers(1, 30), d=st.integers(3, 20))
def test_pruned_walk_is_the_filtered_walk(v, d):
    pruned = [s.parts for s in enumerate_sequences(v, d)]
    assert pruned == [s.parts for s in enumerate_sequences(v) if ratio(s, d) >= 1]
    assert pruned[-1] == (1,) * v


@settings(deadline=None)
@given(v=st.integers(1, 30), d=st.integers(3, 20))
def test_survivors_match_brute_force(v, d):
    brute = sorted(((parts, ratio(parts, d)) for parts in _all_partitions(v)
                    if parts[0] > 1 and ratio(parts, d) >= 1), reverse=True)
    assert [(s.parts, r) for s, r in survivors_for(v, d)] == brute


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 20])
def test_best_products_table(d):
    table = _best_products(12, d)
    for c in range(13):
        for m in range(13):
            parts = [p for p in _all_partitions(m) if not p or p[0] <= c]
            assert table[c][m] == max((_run_product(p, d) for p in parts), default=0)
            if c:
                assert table[c][m] >= table[c - 1][m]
    # the Fermat test's three formulas are the run product over the Fermat order
    for v in range(1, 13):
        assert fermat_order(v, d) == _run_product((1,) * v, d)
        for parts in _all_partitions(v):
            want = Fraction(_run_product(parts, d), fermat_order(v, d))
            groups = [(r, jc(r)) for r in parts]
            runs = [parts.count(r) for r in sorted(set(parts), reverse=True)]
            assert ratio(parts, d) == ratio_with_groups(groups, d) == want
            assert Fraction(canonical_bound(groups, runs, d), fermat_order(v, d)) == want


def test_enumerate_sequences_refuses_small_degree():
    with pytest.raises(SequenceError):
        list(enumerate_sequences(5, 2))


@pytest.mark.parametrize("d", [3, 4, 8, 20])
def test_grown_table_keeps_its_cells(d):
    _best_products(40, d)
    test_best_products_table(d)     # the small cells of a larger table still hold
    _tables.cache_clear()
    for total in (5, 17, 40):
        grown = _best_products(total, d)
    grown = [row[:] for row in grown]
    _tables.cache_clear()
    assert _best_products(40, d) == grown


def test_survivors_do_not_depend_on_the_visiting_order():
    _tables.cache_clear()
    grid = [(v, d) for v in range(3, 31) for d in range(3, 9)]
    down = {(v, d): survivors_for(v, d) for v, d in reversed(grid)}
    assert {(v, d): survivors_for(v, d) for v, d in grid} == down


def test_bench_clear_caches_empties_the_tables(monkeypatch):
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    _best_products(10, 3)
    assert _tables.cache_info().currsize >= 1
    run.clear_caches()
    assert _tables.cache_info().currsize == 0


def test_no_survivors_from_28_to_200():
    # R is non-increasing in d, so these empty scans hold for every d >= 3
    for v in range(28, 201):
        assert survivors_for(v, 3) == [], "survivor at total %d, d = 3" % v


def test_survivor_examples():
    assert any(str(s) == "2^2" and r == Fraction(25, 3) for s, r in survivors_for(4, 6))
    assert survivors_for(28, 3) == []
    report = classification_search([2], [6])
    assert any(str(rec["sequence"]) == "2^2" for rec in report["survivors"])


def test_uniform_bounds_sampled():
    for v in range(1, 22):
        for seq in enumerate_sequences(v):
            assert uniform_bounds_check(seq, 3)["ok"]
    for _ in range(200):
        seq = random_sequence(16)
        d = rng.randint(3, 20)
        assert uniform_bounds_check(seq, d)["ok"]


def test_mixed_sequence_scan_small():
    hits = mixed_sequence_scan(12, 8)
    for s, d, r in hits:
        assert 1 in s.parts and s.parts[0] > 1 and r >= 1
        assert all(p in (1, 2, 3, 4, 6) for p in s.parts)


def test_ratioprod():
    ok, q = ratioprod_check((2, 2))
    assert ok and q == Fraction(25, 24)
    ok, q = ratioprod_check((2, 1))
    assert not ok and q == Fraction(5, 6)
    assert not ratioprod_check((3, 2))[0]
