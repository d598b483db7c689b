"""Block-scalar and semi-permutation stabilizers via integer lattice reduction.

A diagonal matrix diag(l_1 I_{r_1}, ..., l_m I_{r_m}) preserves a form F
exactly when every term's block-degree functional evaluates to 1 on the
lambdas.  That is a system lambda^V = c over the torus, solved by the Smith
normal form of the integer exponent matrix V.  All matrices here are tiny;
the arithmetic is plain Python integers.
"""

from __future__ import annotations

from itertools import permutations

from .cyclotomic import CycNum, root_of_unity
from .forms import ExactMatrix, Form, FormError, block_degrees
from .matgroups import Orbit

# The semi-permutation search walks up to r! permutations.
MAX_VARS = 10


class LatticeError(ValueError):
    pass


def smith_normal_form(rows):
    """Transform-tracking Smith normal form.

    Returns (diag, U, W) with U @ A @ W diagonal, U and W unimodular and the
    diagonal entries nonnegative with d_1 | d_2 | ...; the chain holds because
    each pivot is forced to divide the whole trailing block before moving on.
    """
    A = [list(map(int, r)) for r in rows]
    t = len(A)
    m = len(A[0]) if t else 0
    U = [[int(i == j) for j in range(t)] for i in range(t)]
    W = [[int(i == j) for j in range(m)] for i in range(m)]

    def improve(k):
        while True:
            piv = None
            for i in range(k, t):
                for j in range(k, m):
                    if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return False
            if piv != (k, k):
                i, j = piv
                if i != k:
                    A[i], A[k] = A[k], A[i]
                    U[i], U[k] = U[k], U[i]
                if j != k:
                    for r in range(t):
                        A[r][j], A[r][k] = A[r][k], A[r][j]
                    for r in range(m):
                        W[r][j], W[r][k] = W[r][k], W[r][j]
            clean = True
            for i in range(k + 1, t):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    A[i] = [a - q * b for a, b in zip(A[i], A[k])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[k])]
                    if A[i][k]:
                        clean = False
            for j in range(k + 1, m):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    for r in range(t):
                        A[r][j] -= q * A[r][k]
                    for r in range(m):
                        W[r][j] -= q * W[r][k]
                    if A[k][j]:
                        clean = False
            if not clean:
                continue
            for i in range(k + 1, t):
                for j in range(k + 1, m):
                    if A[i][j] % A[k][k]:
                        A[k] = [a + b for a, b in zip(A[k], A[i])]
                        U[k] = [a + b for a, b in zip(U[k], U[i])]
                        clean = False
                        break
                if not clean:
                    break
            if clean:
                return True

    k = 0
    while k < min(t, m) and improve(k):
        if A[k][k] < 0:
            A[k] = [-a for a in A[k]]
            U[k] = [-a for a in U[k]]
        k += 1
    diag = [A[i][i] for i in range(min(t, m))]
    return diag, U, W


class TorusSolution:
    """Solutions of lambda^V = c over the torus (C*)^m.

    order is None when the solution group is infinite.  Kernel generators are
    m-tuples of roots of unity; a particular solution is attached when the
    targets are nontrivial and consistent.
    """

    def __init__(self, consistent, order, divisors, kernel_generators, particular):
        self.consistent = consistent
        self.order = order
        self.divisors = divisors
        self.kernel_generators = kernel_generators
        self.particular = particular


def solve_torus(rows, targets=None) -> TorusSolution:
    """Solve lambda^V = c where rows are integer exponent vectors.

    targets defaults to all-ones.  Roots of unity are returned as CycNum.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise LatticeError("need at least one constraint row")
    m = len(rows[0])
    t = len(rows)
    diag, U, W = smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    finite = rank == m

    if targets is None:
        cU = None
        consistent = True
    else:
        targets = list(targets)
        if len(targets) != t:
            raise LatticeError("need one target per row")
        cU = []
        for i in range(t):
            acc = CycNum.one()
            for j in range(t):
                e = U[i][j]
                if e:
                    acc = acc * (targets[j] ** e)
            cU.append(acc)
        consistent = all(cU[i] == 1 for i in range(rank, t))
        for i in range(rank):
            if cU[i].root_of_unity_order() is None:
                raise LatticeError("target functional is not a root of unity")

    order = 1
    for i in range(rank):
        order *= diag[i]
    if not finite:
        order = None

    kernel_generators = []
    if finite:
        for i in range(m):
            s = diag[i]
            if s <= 1:
                continue
            z = root_of_unity(s)
            gen = tuple(z ** W[j][i] for j in range(m))
            kernel_generators.append(gen)

    particular = None
    if consistent and targets is not None and finite:
        mu = []
        for i in range(m):
            if i < rank and cU is not None:
                mu.append(_nth_root_of_unity(cU[i], diag[i]))
            else:
                mu.append(CycNum.one())
        particular = tuple(
            _prod(mu[k] ** W[j][k] for k in range(m)) for j in range(m)
        )
    elif consistent and targets is None and finite:
        particular = tuple(CycNum.one() for _ in range(m))

    return TorusSolution(consistent, order, [d for d in diag if d], kernel_generators, particular)


def _prod(items):
    acc = CycNum.one()
    for x in items:
        acc = acc * x
    return acc


def _nth_root_of_unity(c: CycNum, n: int) -> CycNum:
    """Some n-th root of a root of unity c, exact in a larger cyclotomic field."""
    o = c.root_of_unity_order()
    if o is None:
        raise LatticeError("cannot extract a root of a non-torsion value")
    if n == 1:
        return c
    z = root_of_unity(o)
    for a in range(o):
        if z ** a == c:
            return root_of_unity(o * n, a)
    raise LatticeError("discrete log failed")  # unreachable


class BlockScalarGroup:
    """The group of block-scalar matrices preserving a form."""

    def __init__(self, form, block_sizes, order, divisors, generators):
        self.form = form
        self.block_sizes = tuple(block_sizes)
        self.order = order          # None means infinite
        self.divisors = divisors
        self.generators = generators  # list of diagonal ExactMatrix

    @property
    def finite(self):
        return self.order is not None


def block_scalar_group(form: Form, block_sizes) -> BlockScalarGroup:
    """Full group of matrices diag(l_1 I_{r_1}, .., l_m I_{r_m}) fixing the form."""
    blocks = tuple(int(b) for b in block_sizes)
    if any(b < 1 for b in blocks):
        raise FormError("block sizes must be positive")
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if not form.terms:
        raise FormError("the zero form has an infinite stabilizer")
    rows = sorted({block_degrees(e, blocks) for e in form.terms})
    sol = solve_torus([list(r) for r in rows])
    gens = []
    if sol.order is not None:
        for gen in sol.kernel_generators:
            diag_entries = []
            for lam, size in zip(gen, blocks):
                diag_entries.extend([lam] * size)
            gens.append(ExactMatrix.diagonal(diag_entries))
    return BlockScalarGroup(form, blocks, sol.order, sol.divisors, gens)


class SemiPermutationGroup:
    """The subgroup of Aut(F) consisting of semi-permutation matrices."""

    def __init__(self, order, diagonal_order, permutations_, image_order, generators):
        self.order = order
        self.diagonal_order = diagonal_order
        self.permutations = permutations_
        self.image_order = image_order
        self.generators = generators


def semi_permutation_group(form: Form) -> SemiPermutationGroup:
    """All matrices diag * permutation preserving the form.

    The permutation search runs over coordinate permutations compatible with
    the support of the form; each candidate reduces to a torus system with
    the same exponent matrix and twisted targets.
    """
    r = form.nvars
    if r > MAX_VARS:
        raise FormError("semi-permutation search limited to %d variables" % MAX_VARS)
    if not form.terms:
        raise FormError("the zero form has an infinite stabilizer")
    support = sorted(form.terms, key=lambda e: (-max(e), e))
    rows = [list(e) for e in support]
    base = solve_torus(rows)
    if base.order is None:
        return SemiPermutationGroup(None, None, [], 0, [])

    col_profile = []
    for i in range(r):
        col_profile.append(tuple(sorted(e[i] for e in support)))
    support_set = set(form.terms)

    good = []
    reps = {}
    for sigma in permutations(range(r)):
        if any(col_profile[i] != col_profile[sigma[i]] for i in range(r)):
            continue
        ok = True
        targets = []
        for e in support:
            img = [0] * r
            for i, ei in enumerate(e):
                img[sigma[i]] = ei
            img = tuple(img)
            if img not in support_set:
                ok = False
                break
            targets.append(form.terms[img] / form.terms[e])
        if not ok:
            continue
        sol = solve_torus(rows, targets)
        if sol.consistent:
            good.append(sigma)
            reps[sigma] = sol.particular
    order = base.order * len(good)
    generators = []
    for gen in base.kernel_generators:
        generators.append(ExactMatrix.diagonal(list(gen)))
    for sigma in _generating_subset(good):
        diag_part = reps[sigma]
        gen_rows = []
        zero = CycNum.zero()
        for i in range(r):
            row = [zero] * r
            row[sigma[i]] = diag_part[i] if diag_part is not None else CycNum.one()
            gen_rows.append(row)
        generators.append(ExactMatrix(gen_rows))
    return SemiPermutationGroup(order, base.order, good, len(good), generators)


def _generating_subset(perms):
    """A small subset of the permutation list generating the same group.

    The span of the chosen ones is the orbit of the identity under them (a finite monoid is a group).
    """
    target = set(perms)
    identity = tuple(range(len(perms[0]))) if perms else ()
    chosen = []
    span = {identity}
    for sigma in perms:
        if sigma in span:
            continue
        chosen.append(sigma)
        span = Orbit([identity], lambda batch: [[_pcompose(x, g) for g in chosen] for x in batch]).index
        if span.keys() == target:
            break
    return chosen


def _pcompose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))
