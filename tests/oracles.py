"""Exact references that live only in the tests.

form_product multiplies two forms term by term; the action and invariant
references build on it.

The binary resultant oracle: a binary form of degree d >= 2 is smooth iff
its two partials have no common projective zero, i.e. iff their resultant
is nonzero.  The resultant is the Sylvester determinant, computed by
fraction-free Bareiss elimination over Z (every form the oracle sees has
integer coefficients), so the oracle shares no arithmetic with the code it
checks.

The torus reference, reference_solve_torus, solves lambda^V = c from the
same Smith normal form as diaglattice.solve_torus but in CycNum arithmetic:
it raises the targets to the powers in U, takes d-th roots through a
discrete logarithm and multiplies the particular solution out of powers.
"""

from formaut.cyclotomic import CycNum, _divisors, root_of_unity
from formaut.diaglattice import LatticeError, TorusSolution, smith_normal_form
from formaut.forms import Form, partials


def form_product(f: Form, g: Form) -> Form:
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return Form(f.nvars, out, f.degree + g.degree)


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
    fc = [_integer(f.coeff((m - i, i))) for i in range(m + 1)]
    gc = [_integer(g.coeff((n - i, i))) for i in range(n + 1)]
    size = m + n
    rows = [[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)]
    return CycNum.from_int(bareiss_determinant(rows))


def smooth_by_resultant(form: Form) -> bool:
    """Independent r = 2 oracle: smooth iff the partials have nonzero resultant."""
    if form.nvars != 2:
        raise ValueError("resultant oracle is for binary forms")
    p1, p2 = partials(form)
    if p1.is_zero() or p2.is_zero():
        return False
    return not sylvester_resultant(p1, p2).is_zero()


def _order(c: CycNum):
    """Multiplicative order of a root of unity, else None (every root of Q(zeta_n) has order | lcm(2, n))."""
    bound = c.n if c.n % 2 == 0 else 2 * c.n
    return next((d for d in _divisors(bound) if c ** d == 1), None)


def _nth_root(c: CycNum, n: int) -> CycNum:
    """The n-th root zeta_(o*n)^a of c = zeta_o^a, 0 <= a < o, by a discrete logarithm."""
    o = _order(c)
    if n == 1:
        return c
    z = root_of_unity(o)
    a = next(a for a in range(o) if z ** a == c)
    return root_of_unity(o * n, a)


def reference_solve_torus(rows, targets=None) -> TorusSolution:
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
    return TorusSolution(consistent, order, [d for d in diag if d], kernel_generators, particular)
