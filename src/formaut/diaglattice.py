"""Block-scalar and semi-permutation stabilizers via integer lattice reduction.

A diagonal matrix diag(l_1 I_{r_1}, ..., l_m I_{r_m}) preserves a form F
exactly when every term's block-degree functional evaluates to 1 on the
lambdas.  That is a system lambda^V = c over the torus, solved by the Smith
normal form of the integer exponent matrix V.  All matrices here are tiny;
the arithmetic is plain Python integers.

Roots of unity are carried as exponents in Q/Z (Cohen, A Course in
Computational Algebraic Number Theory, 1993, sec. 2.4.4), which makes the
system linear: with c_j = zeta^(t_j) (root_exponent), lambda =
zeta^theta and U V W = D = diag(d_1, .., d_s), s = rank V, it reads
V theta = t (mod 1).  It is consistent iff (U t)_i = 0 (mod 1) for every
i >= s; theta = W phi with phi_i = ((U t)_i mod 1) / d_i, reduced mod 1
before the division, is a particular solution; and when s = m the kernel,
of order d_1 * .. * d_m, is generated by the tuples (zeta_(d_i)^(W[j][i]))_j.
The targets share one denominator M, so this is integer arithmetic; only
the results are built as CycNum values.  _Torus is the one torus object: it
factors V once and holds the order (None if infinite), the invariant
factors and the kernel generators, which block_scalar_group reads directly.
Its solve() returns (consistent, particular), particular None unless the
torus is finite, so one factorisation serves every target vector against
the same V: the semi-permutation search solves each candidate permutation
against the one Smith normal form of the support matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .cyclotomic import CycNum, root_of_unity
from .forms import ExactMatrix, Form, FormError, _monomial_str, block_degrees
from .matgroups import Orbit
from .smoothness import GF, split_prime

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


def root_exponent(x: CycNum):
    """a/m in [0, 1) with x = zeta_m^a, m = lcm(2, x.n), or None if x is not a root of unity.

    Every root of unity of Q(zeta_n) is a power of zeta_m: if zeta_k lies in
    Q(zeta_n), so does zeta_l, l = lcm(k, n) = q*n, and phi(l) = phi(n)
    forces q = 1, or q = 2 with n odd.  The exponent is a discrete log at a
    split prime p = 1 (mod m) dividing no denominator of x (split_prime):
    reduction at a prime over p is a ring map, injective on mu_m as p does
    not divide m, so at most one a < m has r^a = x mod p (r the image of
    zeta_m), and the exact comparison x == zeta_m^a decides.
    """
    m = math.lcm(2, x.n)
    field = GF(split_prime(m, x.den), m)
    target = field.from_cyc(x)
    a = next((a for a in range(m) if pow(field.root, a, field.p) == target), None)
    return None if a is None or x != root_of_unity(m, a) else Fraction(a, m)


class _Torus:
    """The torus lambda^V = c, V factored once as U V W = D (module docstring).

    order is None when the solution group is infinite, divisors are the
    nonzero d_i, and kernel_generators, m-tuples of roots of unity, generate
    the solutions of lambda^V = 1 when it is finite.
    """

    def __init__(self, rows):
        rows = [list(map(int, r)) for r in rows]
        if not rows:
            raise LatticeError("need at least one constraint row")
        self.t, m = len(rows), len(rows[0])
        self.diag, self.U, self.W = smith_normal_form(rows)
        self.rank = sum(1 for d in self.diag if d)
        self.divisors = [d for d in self.diag if d]
        self.order = math.prod(self.diag) if self.rank == m else None
        self.kernel_generators = []
        if self.order is not None:
            self.kernel_generators = [tuple(root_of_unity(d, w[i]) for w in self.W)
                                      for i, d in enumerate(self.diag) if d > 1]

    def solve(self, exponents):
        """(consistent, particular) for lambda^V = (zeta^(t_1), .., zeta^(t_t)), each t_j a Fraction read mod 1.

        particular is an m-tuple of roots of unity solving the system, or
        None unless the system is consistent and the torus is finite.
        """
        M = math.lcm(*(t.denominator for t in exponents))
        a = [t.numerator * (M // t.denominator) for t in exponents]
        Ua = [sum(u * x for u, x in zip(row, a) if x) for row in self.U]
        consistent = all(Ua[i] % M == 0 for i in range(self.rank, self.t))
        if not consistent or self.order is None:
            return consistent, None
        L = math.lcm(*self.diag)
        phi = [Ua[k] % M * (L // d) for k, d in enumerate(self.diag)]
        return True, tuple(root_of_unity(L * M, sum(w * f for w, f in zip(row, phi) if f)) for row in self.W)


class BlockScalarGroup:
    """The group of block-scalar matrices preserving a form."""

    def __init__(self, block_sizes, order, divisors, generators):
        self.block_sizes = tuple(block_sizes)
        self.order = order          # None means infinite
        self.divisors = divisors
        self.generators = generators  # list of diagonal ExactMatrix


def block_scalar_group(form: Form, block_sizes) -> BlockScalarGroup:
    """Full group of matrices diag(l_1 I_{r_1}, .., l_m I_{r_m}) fixing the form."""
    blocks = tuple(int(b) for b in block_sizes)
    if any(b < 1 for b in blocks):
        raise FormError("block sizes must be positive")
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if not form.terms:
        raise FormError("the zero form has an infinite stabilizer")
    torus = _Torus(sorted({block_degrees(e, blocks) for e in form.terms}))
    gens = [ExactMatrix.diagonal([lam for lam, size in zip(gen, blocks) for _ in range(size)])
            for gen in torus.kernel_generators]
    return BlockScalarGroup(blocks, torus.order, torus.divisors, gens)


class SemiPermutationGroup:
    """The subgroup of Aut(F) consisting of semi-permutation matrices."""

    def __init__(self, order, diagonal_order, permutations_, generators):
        self.order = order          # None, like diagonal_order, when the diagonal torus is infinite
        self.diagonal_order = diagonal_order
        self.permutations = permutations_
        self.generators = generators


def semi_permutation_group(form: Form) -> SemiPermutationGroup:
    """All matrices diag * permutation preserving the form.

    The permutation search runs over coordinate permutations compatible with
    the support of the form; each candidate is a torus system with the same
    exponent matrix, factored once, and its coefficient ratios as targets.
    The ratios must be roots of unity (else LatticeError).
    """
    r = form.nvars
    if r > MAX_VARS:
        raise FormError("semi-permutation search limited to %d variables" % MAX_VARS)
    if not form.terms:
        raise FormError("the zero form has an infinite stabilizer")
    support = sorted(form.terms, key=lambda e: (-max(e), e))
    torus = _Torus(support)

    col_profile = [tuple(sorted(e[i] for e in support)) for i in range(r)]
    exponents = {}      # (coefficient of the image, coefficient of the term) -> exponent of their ratio

    def ratio_exponent(img, e):
        a, b = form.terms[img], form.terms[e]
        key = (a.n, a.num, a.den, b.n, b.num, b.den)
        if key not in exponents:
            exponents[key] = root_exponent(a / b)
            if exponents[key] is None:
                raise LatticeError("coefficient ratio %s of %s to %s is not a root of unity; the "
                                   "semi-permutation search handles root-of-unity ratios only"
                                   % (a / b, _monomial_str(img), _monomial_str(e)))
        return exponents[key]

    good = []
    reps = {}
    for sigma in permutations(range(r)):
        if any(col_profile[i] != col_profile[sigma[i]] for i in range(r)):
            continue
        images = []
        for e in support:
            img = [0] * r
            for i, ei in enumerate(e):
                img[sigma[i]] = ei
            images.append(tuple(img))
        if any(img not in form.terms for img in images):
            continue
        consistent, particular = torus.solve([ratio_exponent(img, e) for img, e in zip(images, support)])
        if consistent:
            good.append(sigma)
            reps[sigma] = particular
    generators = [ExactMatrix.diagonal(list(gen)) for gen in torus.kernel_generators]
    if torus.order is None:     # an infinite torus has no kernel generators and no particular solutions
        return SemiPermutationGroup(None, None, good, generators)
    zero = CycNum.zero()
    for sigma in _generating_subset(good):
        gen_rows = []
        for i in range(r):
            row = [zero] * r
            row[sigma[i]] = reps[sigma][i]
            gen_rows.append(row)
        generators.append(ExactMatrix(gen_rows))
    return SemiPermutationGroup(torus.order * len(good), torus.order, good, generators)


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
