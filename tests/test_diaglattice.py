import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from formaut import diaglattice
from formaut.cli import main
from formaut.cyclotomic import CycNum, root_of_unity
from formaut.diaglattice import (LatticeError, _Torus, block_scalar_group, root_exponent, semi_permutation_group,
                                 smith_normal_form)
from formaut.forms import Form, FormError, act, block_degrees, parse
from formaut.smoothness import split_prime

from lemmas import check_diag_bound
from oracles import fermat_form, reference_root_exponent, reference_solve_torus

rng = random.Random(31337)


def exact_det(M):
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = -d
        d *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return d


def test_snf_random():
    for _ in range(250):
        t, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(t)]
        diag, U, W = smith_normal_form(rows)
        S = np.array(U, dtype=object) @ np.array(rows, dtype=object) @ np.array(W, dtype=object)
        for i in range(t):
            for j in range(m):
                assert S[i][j] == (diag[i] if i == j else 0)
        assert abs(exact_det(U)) == 1
        assert abs(exact_det(W)) == 1
        chain = [x for x in diag if x]
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0


def brute_block_scalar_order(form, blocks):
    """Independent oracle: count root-of-unity tuples by integer arithmetic.

    Any solution satisfies lambda_i^K = 1 for K the determinant of a
    nonsingular square minor of the exponent matrix (adjugate argument), so
    counting solutions of V a = 0 (mod K) is exhaustive.
    """
    rows = sorted({block_degrees(e, blocks) for e in form.terms})
    V = [list(r) for r in rows]
    m = len(blocks)
    K = None
    for comb_rows in combinations(range(len(V)), m):
        det = exact_det([V[i] for i in comb_rows])
        if det:
            K = abs(int(det))
            break
    if K is None:
        return None
    grid = np.indices((K,) * m).reshape(m, -1).T
    Vm = np.array(V, dtype=np.int64)
    return int(np.all(grid @ Vm.T % K == 0, axis=1).sum())


def test_multiplicative_orders():
    # root_exponent is a/m in [0, 1); its denominator is the multiplicative order
    for n in [1, 2, 3, 4, 5, 6, 8, 12, 15, 24, 60]:
        assert root_exponent(root_of_unity(n)) == Fraction(1, n) % 1
        assert root_exponent(root_of_unity(n)).denominator == n
    assert root_exponent(root_of_unity(12, 8)) == Fraction(2, 3)
    assert root_exponent(CycNum.from_int(1)) == 0
    assert root_exponent(CycNum.from_int(-1)) == Fraction(1, 2)
    assert root_exponent(CycNum.from_int(2)) is None
    assert root_exponent(root_of_unity(5) + 1) is None


def test_root_exponent_matches_the_linear_scan():
    """Every zeta_m^a with m <= 60, 1 + zeta_3 = -zeta_3^2 (a root), zeta_5 + 1 and 2 (no roots).

    1 + p has the residue of 1 at the prime p the discrete log draws, so only
    the exact comparison refuses it.
    """
    values = [root_of_unity(m, a) for m in range(1, 61) for a in range(m)]
    values += [1 + root_of_unity(3), root_of_unity(5) + 1, CycNum.from_int(2)]
    for x in values:
        assert root_exponent(x) == reference_root_exponent(x), x
    assert root_exponent(1 + root_of_unity(3)) == Fraction(1, 6)
    assert root_exponent(CycNum.from_int(1 + split_prime(2, 1))) is None


def _peak_mib(fn):
    tracemalloc.start()
    try:
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_large_conductors_stay_bounded(tmp_path, capsys):
    """The loop quintic has order 7,777 = 7 * 11 * 101: its roots live at conductor 7,777."""
    form = tmp_path / "loop.txt"
    form.write_text("x1^6*x2 + x2^6*x3 + x3^6*x4 + x4^6*x5 + x5^6*x1\n")
    code, peak = _peak_mib(lambda: main(["diag-group", str(form), "--blocks", "1,1,1,1,1"]))
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and (payload["order"], payload["divisors"]) == (7777, [1, 1, 1, 1, 7777])
    assert peak < 50, peak
    value, peak = _peak_mib(lambda: root_exponent(root_of_unity(7777, 5000)))
    assert value == Fraction(5000, 7777) and peak < 50, peak


def test_klein_quartic_diag_order_28():
    klein = parse("x1^3*x2 + x2^3*x3 + x3^3*x1")
    g = block_scalar_group(klein, (1, 1, 1))
    assert g.order == 28
    assert brute_block_scalar_order(klein, (1, 1, 1)) == 28
    assert check_diag_bound(klein, (1, 1, 1))
    for m in g.generators:
        assert act(klein, m) == klein


def test_fermat_equality_and_single_block():
    F = fermat_form(5, 3)
    assert block_scalar_group(F, (1, 1, 1)).order == 125
    assert block_scalar_group(F, (3,)).order == 5
    assert check_diag_bound(F, (1, 1, 1))


@pytest.mark.parametrize("blocks", [(-1, 4), (0, 3)])
def test_block_sizes_must_be_positive(blocks):
    with pytest.raises(FormError):
        block_scalar_group(fermat_form(3, 3), blocks)


def test_loop_form_strictly_below():
    loop = parse("x1^2*x2 + x2^2*x3 + x3^2*x1")
    g = block_scalar_group(loop, (1, 1, 1))
    assert g.order == 9 < 27


def test_infinite_stabilizer_detected():
    F = parse("x1^2*x2", nvars=3)
    g = block_scalar_group(F, (1, 1, 1))
    assert g.order is None
    assert not check_diag_bound(F, (1, 1, 1))


def test_snf_order_matches_brute_force_random():
    checked = 0
    while checked < 60:
        r = rng.randint(2, 3)
        d = rng.randint(3, 5)
        terms = {}
        for i in range(r):
            e = [0] * r
            e[i] = d - 1
            e[rng.randrange(r)] += 1
            terms[tuple(e)] = CycNum.from_int(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            e = [0] * r
            for _ in range(d):
                e[rng.randrange(r)] += 1
            terms[tuple(e)] = CycNum.from_int(1)
        form = Form(r, terms, d)
        blocks = (1,) * r
        expected = brute_block_scalar_order(form, blocks)
        got = block_scalar_group(form, blocks).order
        assert got == expected
        checked += 1


def _solve_torus(rows, targets=None):
    """What _Torus answers for lambda^V = c; targets default to all-ones and must be roots of unity."""
    torus = _Torus(rows)
    exponents = [Fraction(0)] * torus.t if targets is None else [root_exponent(c) for c in targets]
    if None in exponents:
        raise LatticeError("a target is not a root of unity")
    consistent, particular = torus.solve(exponents)
    return SimpleNamespace(consistent=consistent, order=torus.order, divisors=torus.divisors,
                           kernel_generators=torus.kernel_generators, particular=particular)


def test_torus_targets_consistency():
    # lambda^2 = -1 on a 1-torus: coset of size 2 with particular solution
    sol = _solve_torus([[2]], [CycNum.from_int(-1)])
    assert sol.consistent and sol.order == 2
    lam = sol.particular[0]
    assert lam ** 2 == -1
    # inconsistent system: lambda^1 = 1 and lambda^1 = -1
    sol = _solve_torus([[1], [1]], [CycNum.from_int(1), CycNum.from_int(-1)])
    assert not sol.consistent


def test_semi_permutation_fermat():
    F = fermat_form(3, 3)
    sp = semi_permutation_group(F)
    assert sp.order == 27 * 6 and len(sp.permutations) == 6
    for m in sp.generators:
        assert act(F, m) == F
    F = fermat_form(4, 4)
    assert semi_permutation_group(F).order == 4 ** 4 * 24


def test_semi_permutation_loop_form():
    loop = parse("x1^2*x2 + x2^2*x3 + x3^2*x1")
    sp = semi_permutation_group(loop)
    assert len(sp.permutations) == 3  # only the rotations survive
    assert sp.order == 27
    for m in sp.generators:
        assert act(loop, m) == loop


def test_semi_permutation_block_form_divides_closure():
    F = parse("x1^5*x2 + x2^5*x1 + x3^5*x4 + x4^5*x3")
    sp = semi_permutation_group(F)
    # diagonal part: two independent 2-variable lattices of order 24 each
    assert sp.diagonal_order == 576
    assert len(sp.permutations) == 8
    assert sp.order == 4608
    assert 41472 % sp.order == 0        # subgroup of the full stabilizer


def test_semi_permutation_generic_cubic():
    # a generic-looking smooth ternary cubic: scalars only
    F = parse("x1^3 + x2^3 + x3^3 + x1*x2*x3 + 2*x1^2*x2")
    sp = semi_permutation_group(F)
    assert len(sp.permutations) == 1
    assert sp.order == sp.diagonal_order == 3


NON_ROOTS = [CycNum.from_int(2), root_of_unity(5) + 1]
ROOTS = st.builds(root_of_unity, st.sampled_from([1, 2, 3, 4, 6, 8, 12]), st.integers(0, 23))


def _power_product(lam, row):
    value = CycNum.one()
    for x, e in zip(lam, row):
        value = value * x ** e
    return value


@st.composite
def torus_systems(draw):
    """rows up to 5 x 5 over -6..6 and targets: none, random roots, or lambda^V for a root tuple lambda."""
    t, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=t, max_size=t))
    # a finite system builds roots of unity of order up to 24 * d_m, the largest
    # invariant factor; keep those fields small so the reference stays fast
    diag = smith_normal_form(rows)[0]
    assume(sum(1 for d in diag if d) < m or max(diag) <= 12)
    mode = draw(st.sampled_from(["image", "random", "image", "none"]))
    if mode == "none":
        return rows, None
    if mode == "random":
        targets = draw(st.lists(ROOTS, min_size=t, max_size=t))
    else:
        lam = draw(st.lists(ROOTS, min_size=m, max_size=m))
        targets = [_power_product(lam, row) for row in rows]
    if draw(st.integers(1, 8)) == 8:    # now and then one target is not a root of unity
        targets[draw(st.integers(0, t - 1))] = draw(st.sampled_from(NON_ROOTS))
    return rows, targets


def _outcome(solve, rows, targets):
    try:
        return solve(rows, targets)
    except LatticeError:
        return None


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(torus_systems())
def test_solve_torus_matches_the_cyclotomic_reference(system):
    rows, targets = system
    got = _outcome(_solve_torus, rows, targets)
    ref = _outcome(reference_solve_torus, rows, targets)
    if targets is not None and any(c in NON_ROOTS for c in targets):
        # a non-root target is refused outright; the reference refuses it too,
        # unless its U leaves the target to a row past the rank, where it
        # makes the system inconsistent
        assert got is None
        assert ref is None or not ref.consistent
        return
    assert got is not None and ref is not None
    assert (got.consistent, got.order, got.divisors) == (ref.consistent, ref.order, ref.divisors)
    assert got.kernel_generators == ref.kernel_generators
    assert got.particular == ref.particular
    if got.particular is not None and targets is not None:
        assert [_power_product(got.particular, row) for row in rows] == targets


def test_one_smith_normal_form_per_search(monkeypatch):
    calls = []
    snf = diaglattice.smith_normal_form
    monkeypatch.setattr(diaglattice, "smith_normal_form", lambda rows: calls.append(1) or snf(rows))
    for text in ["x1^3 + x2^3 + x3^3 + x4^3", "x1^3 + z3*x2^3 + x3^3", "x1^2*x2 + x2^2*x3 + x3^2*x1"]:
        calls.clear()
        semi_permutation_group(parse(text))
        assert len(calls) == 1


ALL_S3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


# order, diagonal order and permutation list as the CycNum-power solver found them
@pytest.mark.parametrize("text, order, diagonal_order, perms", [
    ("x1^3 + z3*x2^3 + x3^3", 162, 27, ALL_S3),
    ("x1^4 + z4*x2^4 + x3^4", 384, 64, ALL_S3),
    ("x1^3 + z8*x2^3 + z8^3*x3^3", 162, 27, ALL_S3),
    ("x1^3 - x2^3 + x3^3", 162, 27, ALL_S3),
    ("x1^2*x2 + z3*x2^2*x3 + x3^2*x1", 27, 9, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
    ("x1^3*x2 + z4*x2^3*x1 + x3^4", 64, 32, [(0, 1, 2), (1, 0, 2)]),
])
def test_semi_permutation_root_of_unity_ratios(text, order, diagonal_order, perms):
    F = parse(text)
    sp = semi_permutation_group(F)
    assert (sp.order, sp.diagonal_order, sp.permutations) == (order, diagonal_order, perms)
    for m in sp.generators:
        assert act(F, m) == F


def test_semi_permutation_refuses_a_non_root_ratio():
    with pytest.raises(LatticeError, match="coefficient ratio 2 of x2\\^3 to x3\\^3"):
        semi_permutation_group(parse("x1^3 + 2*x2^3 + x3^3"))
    with pytest.raises(LatticeError, match="not a root of unity"):
        _solve_torus([[3]], [CycNum.from_int(2)])
