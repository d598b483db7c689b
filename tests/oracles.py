"""Exact references that live only in the tests.

form_product multiplies two forms term by term; the action and invariant
references build on it.  permutation_matrix is the substitution matrix of a
coordinate permutation, and fermat_form is x1^d + ... + xr^d.

partitions is the unpruned walk: every partition of a total in
descending-lex order, the reference for the pruned
sequences.enumerate_sequences.

The binary resultant oracle: a binary form of degree d >= 2 is smooth iff
its two partials have no common projective zero, i.e. iff their resultant
is nonzero.  The resultant is the Sylvester determinant, computed by
fraction-free Bareiss elimination over Z (every form the oracle sees has
integer coefficients), so the oracle shares no arithmetic with the code it
checks.

Two smoothness references.  reference_char0_verdict is the homogeneous
pure-power criterion: a complete reduced Groebner basis of the Jacobian
ideal over the cyclotomic field K, under the same degree cap as is_smooth,
whose leading-term ideal holds a pure power of every variable iff the form
is smooth.  macaulay_smooth needs no Groebner basis at all: for a form with
rational coefficients in at most three variables it reads smoothness off the
exact rank over Q of one Macaulay matrix of the partials (Macaulay, The
Algebraic Theory of Modular Systems, 1916).

The closure reference, residue_bfs, is the per-element BFS that
MatGroup.close ran before its coset closure: one product per stored residue
and generator, each image probed on its own, so its keys are the residue
group in BFS order.

The scalar-coset reference, reference_scalar_cosets, is the per-residue
walk, the slow reference for matgroups.pgl_keys: it tests every residue for
scalarity on its own and multiplies each coset out one scalar at a time.

Two cyclotomic references.  reference_reduce finds the least conductor by
linear algebra: for each divisor d of n in increasing order it solves for
the value in the power basis of Q(zeta_d) embedded in Q(zeta_n), by
Gaussian elimination over Q.  reference_root_exponent scans every a < m,
m = lcm(2, n), and compares the value with zeta_m^a.

The torus reference, reference_solve_torus, solves lambda^V = c from the
same Smith normal form as diaglattice._Torus but in CycNum arithmetic:
it raises the targets to the powers in U, takes d-th roots through a
discrete logarithm and multiplies the particular solution out of powers.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from formaut.cyclotomic import CycNum, euler_phi, root_of_unity
from formaut.diaglattice import LatticeError, smith_normal_form
from formaut.forms import ExactMatrix, Form, partials
from formaut.matgroups import GroupError, _is_block_scalar, _monomials, _mulmod
from formaut.sequences import SubdegreeSequence
from formaut.smoothness import CycField, buchberger, form_to_poly


def form_product(f: Form, g: Form) -> Form:
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return Form(f.nvars, out, f.degree + g.degree)


def fermat_form(degree: int, nvars: int) -> Form:
    return Form(nvars, {tuple(degree * (i == j) for j in range(nvars)): 1 for i in range(nvars)})


def partitions(total: int):
    """Every partition of total, as a SubdegreeSequence, in descending-lex order."""
    def walk(rest, cap):
        if rest == 0:
            yield ()
        for p in range(min(cap, rest), 0, -1):
            for tail in walk(rest - p, p):
                yield (p,) + tail
    return (SubdegreeSequence(parts) for parts in walk(total, total))


def permutation_matrix(perm) -> ExactMatrix:
    """Matrix sending x_i to x_perm(i) under the substitution action."""
    one, zero = CycNum.one(), CycNum.zero()
    return ExactMatrix([[one if perm[i] == j else zero for j in range(len(perm))] for i in range(len(perm))])


def _integer(c: CycNum) -> int:
    value = c.as_fraction()
    if value.denominator != 1:
        raise ValueError("the resultant oracle takes integer coefficients, not %s" % value)
    return value.numerator


def bareiss_determinant(rows) -> int:
    """Determinant of an integer matrix; every division in the Bareiss step is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            m[i] = [0] * (k + 1) + [(m[i][j] * pivot - mik * m[k][j]) // prev for j in range(k + 1, n)]
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def sylvester_resultant(f: Form, g: Form) -> CycNum:
    """Resultant of two binary forms with integer coefficients via the Sylvester determinant."""
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("resultant oracle is for binary forms")
    m, n = f.degree, g.degree
    fc = [_integer(f.terms.get((m - i, i), CycNum.zero())) for i in range(m + 1)]
    gc = [_integer(g.terms.get((n - i, i), CycNum.zero())) for i in range(n + 1)]
    size = m + n
    rows = [[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)]
    return CycNum.from_int(bareiss_determinant(rows))


def smooth_by_resultant(form: Form) -> bool:
    """Independent r = 2 oracle: smooth iff the partials have nonzero resultant."""
    if form.nvars != 2:
        raise ValueError("resultant oracle is for binary forms")
    p1, p2 = partials(form)
    if not p1.terms or not p2.terms:
        return False
    return not sylvester_resultant(p1, p2).is_zero()


def reference_char0_verdict(form: Form, pair_budget=200000):
    """True smooth, False singular, None incomplete: the homogeneous pure-power criterion over K.

    The Jacobian ideal J is m-primary, m = (x_1, ..., x_r), iff its zero set
    is the origin, and that holds iff every x_i has a power in J, i.e. iff
    the leading-term ideal of a Groebner basis holds a pure power of every
    variable.  The run is capped at degree 4 * deg(form), as is_smooth caps
    its chart runs.
    """
    field = CycField()
    gb = buchberger([form_to_poly(f, field) for f in partials(form)], field,
                    degree_cap=4 * form.degree, pair_budget=pair_budget)
    if not gb.complete:
        return None
    lms = [g.lm for g in gb.basis]
    return all(any(0 < lm[i] == sum(lm) for lm in lms) for i in range(form.nvars))


def _rank(rows) -> int:
    """Rank over Q of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def macaulay_smooth(form: Form) -> bool:
    """Independent r <= 3 oracle: smooth iff the partials span every form of degree D = r(d - 2) + 1.

    The Macaulay matrix has one row m * dF/dx_i for each partial and each
    monomial m of degree D - (d - 1), and one column per monomial of degree
    D; its rank over Q is the dimension of J_D, J the Jacobian ideal.
    Lemma: F is smooth iff rank = dim R_D, R = Q[x_1..x_r].  If F is smooth
    the partials have only the origin as common zero, so r forms in r
    variables cut out a zero-dimensional scheme: they are a regular
    sequence, R/J has Hilbert series ((1 - t^(d-1)) / (1 - t))^r, a
    polynomial of degree r(d - 2), and so (R/J)_D = 0.  If F is singular, J
    has a common zero besides the origin, so J is not m-primary, and
    J_D != R_D for every D (J_D = R_D would put m^D inside J).
    """
    r, d = form.nvars, form.degree
    if r > 3:
        raise ValueError("the Macaulay oracle is for at most three variables")
    top = r * (d - 2) + 1
    column = {e: i for i, e in enumerate(_monomials(r, top))}
    rows = []
    for p in partials(form):
        coeffs = [(e, c.as_fraction()) for e, c in p.terms.items()]
        for m in _monomials(r, top - d + 1):
            row = [Fraction(0)] * len(column)
            for e, c in coeffs:
                row[column[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    return _rank(rows) == len(column)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _order(c: CycNum):
    """Multiplicative order of a root of unity, else None (every root of Q(zeta_n) has order | lcm(2, n))."""
    return next((d for d in _divisors(math.lcm(2, c.n)) if c ** d == 1), None)


def reference_root_exponent(x: CycNum):
    """a/m in [0, 1) with x = zeta_m^a, m = lcm(2, x.n), by comparing x with every zeta_m^a."""
    m = math.lcm(2, x.n)
    return next((Fraction(a, m) for a in range(m) if x == root_of_unity(m, a)), None)


def _project_to_subfield(x: CycNum, d: int):
    """x over conductor d | x.n if the value lies in Q(zeta_d), else None, by elimination over Q."""
    n = x.n
    step = n // d
    basis = [CycNum(n, [0] * (j * step) + [1]).num for j in range(euler_phi(d))]
    phi_n, phi_d = euler_phi(n), len(basis)
    mat = [[Fraction(basis[j][i]) for j in range(phi_d)] + [Fraction(x.num[i])] for i in range(phi_n)]
    piv_rows = []
    row = 0
    for col in range(phi_d):
        sel = next((r for r in range(row, phi_n) if mat[r][col] != 0), None)
        if sel is None:
            return None
        mat[row], mat[sel] = mat[sel], mat[row]
        pv = mat[row][col]
        for r in range(phi_n):
            if r != row and mat[r][col] != 0:
                f = mat[r][col] / pv
                for cc in range(col, phi_d + 1):
                    mat[r][cc] -= f * mat[row][cc]
        piv_rows.append((row, col))
        row += 1
    if any(mat[r][phi_d] != 0 for r in range(row, phi_n)):
        return None
    coeffs = [Fraction(0)] * phi_d
    for r, c in piv_rows:
        coeffs[c] = mat[r][phi_d] / mat[r][c]
    scale = math.lcm(*(q.denominator for q in coeffs))
    return CycNum(d, [int(q * scale) for q in coeffs], x.den * scale)


def reference_reduce(x: CycNum) -> CycNum:
    """x over the least conductor d | x.n whose field holds the value."""
    return next(y for y in (_project_to_subfield(x, d) for d in _divisors(x.n)) if y is not None)


def _nth_root(c: CycNum, n: int) -> CycNum:
    """The n-th root zeta_(o*n)^a of c = zeta_o^a, 0 <= a < o, by a discrete logarithm."""
    o = _order(c)
    if n == 1:
        return c
    z = root_of_unity(o)
    a = next(a for a in range(o) if z ** a == c)
    return root_of_unity(o * n, a)


def reference_solve_torus(rows, targets=None) -> SimpleNamespace:
    """lambda^V = c in CycNum arithmetic: targets powered by U, roots by discrete log."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise LatticeError("need at least one constraint row")
    m, t = len(rows[0]), len(rows)
    diag, U, W = smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    finite = rank == m
    cU = None
    consistent = True
    if targets is not None:
        targets = list(targets)
        if len(targets) != t:
            raise LatticeError("need one target per row")
        cU = []
        for i in range(t):
            acc = CycNum.one()
            for j in range(t):
                if U[i][j]:
                    acc = acc * (targets[j] ** U[i][j])
            cU.append(acc)
        consistent = all(cU[i] == 1 for i in range(rank, t))
        if any(_order(cU[i]) is None for i in range(rank)):
            raise LatticeError("target functional is not a root of unity")
    order = None
    if finite:
        order = 1
        for d in diag:
            order *= d
    kernel_generators = []
    if finite:
        for i, s in enumerate(diag):
            if s > 1:
                kernel_generators.append(tuple(root_of_unity(s) ** W[j][i] for j in range(m)))
    particular = None
    if consistent and finite:
        mu = [_nth_root(cU[i], diag[i]) if cU is not None else CycNum.one() for i in range(m)]
        particular = []
        for j in range(m):
            acc = CycNum.one()
            for k in range(m):
                acc = acc * mu[k] ** W[j][k]
            particular.append(acc)
        particular = tuple(particular)
    return SimpleNamespace(consistent=consistent, order=order, divisors=[d for d in diag if d],
                           kernel_generators=kernel_generators, particular=particular)


def reference_scalar_cosets(residues, p: int):
    """(class_of, reps): the PGL classes of a group's residues, numbered in order of first appearance."""
    members = {a.tobytes(): a for a in residues}
    scalars = [a for a in members.values() if _is_block_scalar(a, [len(a)])]
    class_of = {}
    reps = []
    for key, a in members.items():
        if key in class_of:
            continue
        coset = {_mulmod(s, a, p).tobytes() for s in scalars}
        if len(coset) != len(scalars) or key not in coset or \
                any(k not in members or k in class_of for k in coset):
            raise GroupError("a scalar coset does not have |L ∩ scalars| = %d elements of L"
                             % len(scalars))
        for k in coset:
            class_of[k] = len(reps)
        reps.append(a)
    return class_of, reps


def residue_bfs(grp, cap):
    """A group's residue closure by one product per element: (keys, parent, gen), stopped past cap keys."""
    r = grp.dim
    keys, parent, gen = [np.eye(r, dtype=np.int32).tobytes()], [-1], [-1]
    index = {keys[0]: 0}
    head = 0
    while head < len(keys):
        residue = np.frombuffer(keys[head], dtype=np.int32).reshape(r, r)
        for g, product in enumerate(_mulmod(residue, grp._gens, grp.p)):
            key = product.tobytes()
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                parent.append(head)
                gen.append(g)
                if len(keys) > cap:
                    return keys, parent, gen
        head += 1
    return keys, parent, gen
