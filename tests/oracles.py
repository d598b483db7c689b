"""Exact references that live only in the tests.

form_product multiplies two forms term by term; the action and invariant
references build on it.

The binary resultant oracle: a binary form of degree d >= 2 is smooth iff
its two partials have no common projective zero, i.e. iff their resultant
is nonzero.  The resultant is the Sylvester determinant, computed by
fraction-free Bareiss elimination over Z (every form the oracle sees has
integer coefficients), so the oracle shares no arithmetic with the code it
checks.
"""

from formaut.cyclotomic import CycNum
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
