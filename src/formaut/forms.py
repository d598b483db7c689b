"""Homogeneous multivariate forms over cyclotomic fields and the matrix action.

A Form maps exponent tuples (length nvars, entries summing to the degree) to
nonzero CycNum coefficients.  Variables are always x1..xr.  serialize
orders terms in graded-lexicographic order, so a text round-trip is
deterministic.  Forms and matrices are immutable; every operation is pure.
forms has no parser of its own: parse maps the monomials that
cyclotomic.parse_polynomial reads to exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import (CycNum, ScalarSyntaxError, conductor, parse_polynomial, parse_scalar,
                         scalar_to_str)


class FormError(ValueError):
    pass


def _grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class Form:
    """A homogeneous polynomial with CycNum coefficients."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, terms: dict, degree: int | None = None):
        if nvars < 1:
            raise FormError("need at least one variable")
        clean = {}
        deg = degree
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise FormError("bad exponent vector %r" % (exps,))
            coeff = _as_cyc(coeff)
            if coeff.is_zero():
                continue
            d = sum(exps)
            if deg is None:
                deg = d
            elif d != deg:
                raise FormError(
                    "not homogeneous: monomial %s has degree %d, expected %d"
                    % (_monomial_str(exps), d, deg)
                )
            if exps in clean:
                coeff = clean[exps] + coeff
                if coeff.is_zero():
                    del clean[exps]
                    continue
            clean[exps] = coeff
        if deg is None:
            raise FormError("zero form has no degree; pass degree explicitly")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    def monomials(self):
        return sorted(self.terms, key=_grlex_key)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.nvars != other.nvars or self.degree != other.degree:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(other.terms[e] == c for e, c in self.terms.items())

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset((e, c.canonical_key()) for e, c in self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.nvars != other.nvars:
            raise FormError("variable count mismatch")
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.degree != other.degree:
            raise FormError("degree mismatch in sum of forms")
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, CycNum.zero()) + c
        return Form(self.nvars, merged, self.degree)

    def __repr__(self):
        return "Form(%r)" % serialize(self)

    def __str__(self):
        return serialize(self)


class ExactMatrix:
    """A square matrix with CycNum entries."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_as_cyc(x) for x in row) for row in entries)
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise FormError("matrix must be square")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, dim: int) -> ExactMatrix:
        return cls.diagonal([1] * dim)

    @classmethod
    def diagonal(cls, values) -> ExactMatrix:
        return cls([[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise FormError("dimension mismatch")
        zero = CycNum.zero()
        cols = [[(k, b) for k, b in enumerate(col) if not b.is_zero()] for col in zip(*other.entries)]
        out = []
        for row in self.entries:
            nonzero = [not a.is_zero() for a in row]
            out_row = []
            for col in cols:
                # one dot per entry, at the lcm of the entry's own operands
                pairs, n = [], 1
                for k, b in col:
                    if nonzero[k]:
                        pairs.append((row[k], b))
                        n = lcm(n, row[k].n, b.n)
                out_row.append(CycNum.dot(pairs, n) if pairs else zero)
            out.append(out_row)
        return ExactMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for ra, rb in zip(self.entries, other.entries) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(tuple(c.canonical_key() for row in self.entries for c in row))

    def _gauss_jordan(self, right):
        """Gauss-Jordan on [A | right]: (det A, the reduced right block A^-1 * right).

        A singular A gives (0, None).
        """
        n = self.dim
        mat = [list(row) + list(r) for row, r in zip(self.entries, right)]
        det = CycNum.one()
        for col in range(n):
            piv = next((r for r in range(col, n) if not mat[r][col].is_zero()), None)
            if piv is None:
                return CycNum.zero(), None
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                det = -det
            pv = mat[col][col]
            det = det * pv
            inv = pv.inverse()
            mat[col] = [x * inv for x in mat[col]]
            for r in range(n):
                if r != col and not mat[r][col].is_zero():
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
        return det, [row[n:] for row in mat]

    def determinant(self) -> CycNum:
        return self._gauss_jordan([()] * self.dim)[0]

    def inverse(self) -> ExactMatrix:
        _, inv = self._gauss_jordan(ExactMatrix.identity(self.dim).entries)
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix(inv)

    def is_invertible(self) -> bool:
        return not self.determinant().is_zero()

    def __repr__(self):
        return "ExactMatrix(%d x %d)" % (self.dim, self.dim)


def _as_cyc(x) -> CycNum:
    """A CycNum, a Fraction, scalar text or an integer that is not a bool (a float or a bool is inexact)."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, Fraction) or isinstance(x, int) and not isinstance(x, bool):
        return CycNum.from_fraction(Fraction(x))
    raise FormError("scalar %r is neither a string nor an integer" % (x,))


# -- operations --------------------------------------------------------------


def act(form: Form, matrix: ExactMatrix) -> Form:
    """Substitution action: x_k is replaced by the k-th row L_k of the matrix.

    Satisfies the contravariance identity act(F, A1*A2) = act(act(F, A1), A2).
    Evaluated by Horner's rule in one variable at a time (Knuth, TAOCP vol. 2,
    sec. 4.6.4): write F = sum_j x_i^j * G_j(x_(i+1), ..., x_r); then
    act(F) = H_0, where H_jmax = act(G_jmax) and H_j = act(G_j) + L_i * H_(j+1),
    recursing on the G_j, a degree-0 remainder being its coefficient.  This is
    a ring identity, so the result is exact, and each step multiplies by one
    linear form: every coefficient of H_j is one CycNum.dot over the pairs
    that reach its monomial, a term of act(G_j) entering as (c, 1).  Every
    coefficient and matrix entry is lifted once to the least common
    conductor, so no product or sum re-embeds an operand.
    """
    if matrix.dim != form.nvars:
        raise FormError("matrix dimension %d != variable count %d" % (matrix.dim, form.nvars))
    n = form.nvars
    if not form.terms:
        return Form(n, {}, form.degree)
    rows = [[(k, c) for k, c in enumerate(row) if not c.is_zero()] for row in matrix.entries]
    N = conductor(list(form.terms.values()) + [c for row in rows for _, c in row])
    rows = [[(k, c.to_conductor(N)) for k, c in row] for row in rows]
    one = CycNum.one(N)

    def times_row_plus(poly, row, addend):
        # L_i * poly + addend, one dot per output monomial
        pairs: dict = {}
        for e, c in poly.items():
            for k, a in row:
                pairs.setdefault(e[:k] + (e[k] + 1,) + e[k + 1:], []).append((c, a))
        for e, c in addend.items():
            pairs.setdefault(e, []).append((c, one))
        return {m: CycNum.dot(ps, N) for m, ps in pairs.items()}

    def horner(terms, i):
        # terms maps exponent tails (e_i, ..., e_(r-1)) to coefficients
        if i == n:
            return {(0,) * n: terms[()].to_conductor(N)}
        groups: dict = {}
        for e, c in terms.items():
            groups.setdefault(e[0], {})[e[1:]] = c
        acc: dict = {}
        for j in range(max(groups), -1, -1):
            sub = horner(groups.pop(j), i + 1) if j in groups else {}
            acc = times_row_plus(acc, rows[i], sub) if acc else sub   # H_(j+1) is dropped here
        return acc

    return Form(n, horner(form.terms, 0), form.degree)


def block_degrees(exps, block_sizes):
    """Total degree of an exponent vector in each variable block."""
    out = []
    start = 0
    for b in block_sizes:
        out.append(sum(exps[start:start + b]))
        start += b
    return tuple(out)


def partials(form: Form) -> list[Form]:
    """The formal partial derivatives, each homogeneous of degree d - 1."""
    if form.degree < 1:
        raise FormError("degree must be at least 1")
    out = []
    for i in range(form.nvars):
        terms = {}
        for e, c in form.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        out.append(Form(form.nvars, terms, form.degree - 1))
    return out


# -- text format --------------------------------------------------------------


def parse(text: str, nvars: int | None = None) -> Form:
    """Parse a homogeneous form, e.g. 'x1^3*x2 + x2^3*x3 + x3^3*x1'."""
    try:
        poly = parse_polynomial(text)
    except ScalarSyntaxError as exc:
        raise FormError(str(exc)) from exc
    poly = {m: c for m, c in poly.items() if not c.is_zero()}
    maxvar = max((idx for m in poly for idx, _ in m), default=0)
    r = nvars if nvars is not None else maxvar
    if r < 1:
        raise FormError("form has no variables; pass nvars explicitly")
    if maxvar > r:
        raise FormError("variable x%d exceeds nvars=%d" % (maxvar, r))
    if not poly:
        raise FormError("form is identically zero")
    terms = {}
    for m, c in poly.items():
        exps = [0] * r
        for idx, e in m:
            exps[idx - 1] = e
        terms[tuple(exps)] = c
    return Form(r, terms)


def _monomial_str(exps) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append("x%d" % (i + 1))
        elif e > 1:
            parts.append("x%d^%d" % (i + 1, e))
    return "*".join(parts) if parts else "1"


def serialize(form: Form) -> str:
    """Canonical text form in graded-lex term order."""
    if not form.terms:
        return "0"
    parts = []
    for e in form.monomials():
        c = form.terms[e]
        mono = _monomial_str(e)
        cs = scalar_to_str(c)
        if mono == "1":
            body, neg = _wrap_scalar(cs)
        elif cs == "1":
            body, neg = mono, False
        elif cs == "-1":
            body, neg = mono, True
        else:
            head, neg = _wrap_scalar(cs)
            body = "%s*%s" % (head, mono)
        parts.append(("-" if neg else "+") + body)
    out = "".join(p if i == 0 else " %s %s" % (p[0], p[1:]) for i, p in enumerate(parts))
    return out[1:] if out.startswith("+") else out


def _wrap_scalar(cs: str):
    neg = False
    if cs.startswith("-") and "+" not in cs and "-" not in cs[1:]:
        neg = True
        cs = cs[1:]
    if "+" in cs or "-" in cs:
        return "(%s)" % cs, neg
    return cs, neg
