import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from formaut.cyclotomic import CycNum
from formaut.diaglattice import block_scalar_group, semi_permutation_group, smith_normal_form, solve_torus
from formaut.forms import Form, FormError, act, block_degrees, parse

from lemmas import check_diag_bound

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


def test_klein_quartic_diag_order_28():
    klein = parse("x1^3*x2 + x2^3*x3 + x3^3*x1")
    g = block_scalar_group(klein, (1, 1, 1))
    assert g.order == 28
    assert brute_block_scalar_order(klein, (1, 1, 1)) == 28
    assert check_diag_bound(klein, (1, 1, 1))
    for m in g.generators:
        assert act(klein, m) == klein


def test_fermat_equality_and_single_block():
    F = Form.fermat(5, 3)
    assert block_scalar_group(F, (1, 1, 1)).order == 125
    assert block_scalar_group(F, (3,)).order == 5
    assert check_diag_bound(F, (1, 1, 1))


@pytest.mark.parametrize("blocks", [(-1, 4), (0, 3)])
def test_block_sizes_must_be_positive(blocks):
    with pytest.raises(FormError):
        block_scalar_group(Form.fermat(3, 3), blocks)


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


def test_torus_targets_consistency():
    # lambda^2 = -1 on a 1-torus: coset of size 2 with particular solution
    sol = solve_torus([[2]], [CycNum.from_int(-1)])
    assert sol.consistent and sol.order == 2
    lam = sol.particular[0]
    assert lam ** 2 == -1
    # inconsistent system: lambda^1 = 1 and lambda^1 = -1
    sol = solve_torus([[1], [1]], [CycNum.from_int(1), CycNum.from_int(-1)])
    assert not sol.consistent


def test_semi_permutation_fermat():
    F = Form.fermat(3, 3)
    sp = semi_permutation_group(F)
    assert sp.order == 27 * 6 and sp.image_order == 6
    for m in sp.generators:
        assert act(F, m) == F
    F = Form.fermat(4, 4)
    assert semi_permutation_group(F).order == 4 ** 4 * 24


def test_semi_permutation_loop_form():
    loop = parse("x1^2*x2 + x2^2*x3 + x3^2*x1")
    sp = semi_permutation_group(loop)
    assert sp.image_order == 3          # only the rotations survive
    assert sp.order == 27
    for m in sp.generators:
        assert act(loop, m) == loop


def test_semi_permutation_block_form_divides_closure():
    F = parse("x1^5*x2 + x2^5*x1 + x3^5*x4 + x4^5*x3")
    sp = semi_permutation_group(F)
    # diagonal part: two independent 2-variable lattices of order 24 each
    assert sp.diagonal_order == 576
    assert sp.image_order == 8
    assert sp.order == 4608
    assert 41472 % sp.order == 0        # subgroup of the full stabilizer


def test_semi_permutation_generic_cubic():
    # a generic-looking smooth ternary cubic: scalars only
    F = parse("x1^3 + x2^3 + x3^3 + x1*x2*x3 + 2*x1^2*x2")
    sp = semi_permutation_group(F)
    assert sp.image_order == 1
    assert sp.order == sp.diagonal_order == 3
