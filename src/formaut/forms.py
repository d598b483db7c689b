"""Homogeneous multivariate forms over cyclotomic fields and the matrix action.

A Form maps exponent tuples (length nvars, entries summing to the degree) to
nonzero CycNum coefficients.  Variables are always x1..xr.  Serialization
orders terms in graded-lexicographic order, so text and JSON round-trips are
deterministic.  Forms and matrices are immutable; every operation is pure.
forms has no parser of its own: parse maps the monomials that
cyclotomic.parse_polynomial reads to exponent tuples.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cyclotomic import CycNum, ScalarSyntaxError, parse_polynomial, parse_scalar, scalar_to_str


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
            if not isinstance(coeff, CycNum):
                coeff = CycNum.from_fraction(Fraction(coeff))
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

    @classmethod
    def fermat(cls, degree: int, nvars: int) -> Form:
        """x1^d + ... + xr^d."""
        one = CycNum.one()
        terms = {}
        for i in range(nvars):
            e = [0] * nvars
            e[i] = degree
            terms[tuple(e)] = one
        return cls(nvars, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self):
        return sorted(self.terms, key=_grlex_key)

    def coeff(self, exps) -> CycNum:
        return self.terms.get(tuple(exps), CycNum.zero())

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

    def __neg__(self):
        return Form(self.nvars, {e: -c for e, c in self.terms.items()}, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Form):
            if self.nvars != other.nvars:
                raise FormError("variable count mismatch")
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    acc = out.get(e)
                    out[e] = c1 * c2 if acc is None else acc + c1 * c2
            return Form(self.nvars, out, self.degree + other.degree)
        return Form(self.nvars, {e: c * other for e, c in self.terms.items()}, self.degree)

    __rmul__ = __mul__

    def scale(self, scalar) -> Form:
        return Form(self.nvars, {e: c * scalar for e, c in self.terms.items()}, self.degree)

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
        one, zero = CycNum.one(), CycNum.zero()
        return cls([[one if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def scalar(cls, dim: int, value) -> ExactMatrix:
        v = _as_cyc(value)
        zero = CycNum.zero()
        return cls([[v if i == j else zero for j in range(dim)] for i in range(dim)])

    @classmethod
    def diagonal(cls, values) -> ExactMatrix:
        vals = [_as_cyc(v) for v in values]
        zero = CycNum.zero()
        return cls([[vals[i] if i == j else zero for j in range(len(vals))] for i in range(len(vals))])

    @classmethod
    def permutation(cls, perm) -> ExactMatrix:
        """Matrix sending x_i to x_perm(i) under the substitution action."""
        dim = len(perm)
        one, zero = CycNum.one(), CycNum.zero()
        return cls([[one if perm[i] == j else zero for j in range(dim)] for i in range(dim)])

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
                terms = [row[k] * b for k, b in col if nonzero[k]]
                acc = terms[0] if terms else zero
                for t in terms[1:]:
                    acc = acc + t
                out_row.append(acc)
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
    if isinstance(x, CycNum):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    return CycNum.from_fraction(Fraction(x))


# -- operations --------------------------------------------------------------


def act(form: Form, matrix: ExactMatrix) -> Form:
    """Substitution action: x_k is replaced by the k-th row of the matrix.

    Satisfies the contravariance identity act(F, A1*A2) = act(act(F, A1), A2).
    """
    if matrix.dim != form.nvars:
        raise FormError("matrix dimension %d != variable count %d" % (matrix.dim, form.nvars))
    n = form.nvars
    linear = []
    for i in range(n):
        linear.append(Form(n, {tuple(1 if j == k else 0 for j in range(n)): matrix.entries[i][k]
                               for k in range(n) if not matrix.entries[i][k].is_zero()}, 1))
    power_cache = [{} for _ in range(n)]
    acc_terms: dict = {}
    for exps, coeff in form.terms.items():
        prod = None
        for i, e in enumerate(exps):
            if e == 0:
                continue
            p = _power(linear[i], e, power_cache[i])
            prod = p if prod is None else prod * p
        contribution = {tuple([0] * n): coeff} if prod is None else prod.scale(coeff).terms
        for e, c in contribution.items():
            cur = acc_terms.get(e)
            acc_terms[e] = c if cur is None else cur + c
    return Form(n, acc_terms, form.degree)


def _power(base: Form, e: int, cache: dict) -> Form:
    got = cache.get(e)
    if got is not None:
        return got
    if e == 1:
        cache[1] = base
        return base
    half = _power(base, e // 2, cache)
    result = half * half
    if e % 2:
        result = result * base
    cache[e] = result
    return result


def component(form: Form, block_sizes, exponents) -> Form:
    """Terms whose total degree in the i-th variable block is exponents[i]."""
    blocks = tuple(int(b) for b in block_sizes)
    exps = tuple(int(e) for e in exponents)
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if len(exps) != len(blocks):
        raise FormError("need one exponent per block")
    if sum(exps) != form.degree:
        raise FormError("block exponents sum to %d, expected degree %d" % (sum(exps), form.degree))
    bounds = []
    start = 0
    for b in blocks:
        bounds.append((start, start + b))
        start += b
    picked = {}
    for e, c in form.terms.items():
        if all(sum(e[a:b]) == k for (a, b), k in zip(bounds, exps)):
            picked[e] = c
    return Form(form.nvars, picked, form.degree)


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


def has_monomial_pattern(form: Form, block_sizes, pattern):
    """Search for a term matching per-block degree constraints.

    Each pattern entry is an exact degree or an inclusive (lo, hi) range.
    Returns (True, witness exponent tuple) or (False, None).
    """
    blocks = tuple(int(b) for b in block_sizes)
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if len(pattern) != len(blocks):
        raise FormError("need one pattern entry per block")
    ranges = []
    for p in pattern:
        if isinstance(p, tuple):
            ranges.append((int(p[0]), int(p[1])))
        else:
            ranges.append((int(p), int(p)))
    for e in sorted(form.terms, key=_grlex_key):
        degs = block_degrees(e, blocks)
        if all(lo <= d <= hi for d, (lo, hi) in zip(degs, ranges)):
            return True, e
    return False, None


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


def to_json(form: Form) -> str:
    payload = {
        "nvars": form.nvars,
        "degree": form.degree,
        "terms": [{"exps": list(e), "coeff": scalar_to_str(form.terms[e])} for e in form.monomials()],
    }
    return json.dumps(payload)


def from_json(text: str) -> Form:
    payload = json.loads(text)
    terms = {tuple(t["exps"]): parse_scalar(t["coeff"]) for t in payload["terms"]}
    return Form(payload["nvars"], terms, payload.get("degree"))

