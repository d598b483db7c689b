"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
reduced modulo the N-th cyclotomic polynomial, as an integer coefficient
vector over a common positive denominator.  This representation is canonical
per conductor: two values over the same conductor are equal iff their
normalized (num, den) pairs are equal.  Values are immutable.

Phi_n is the kernel's one object.  It is the Moebius product
Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): the factors with mu = +1 are
multiplied in, then each factor with mu = -1 is divided out exactly.  One
reduction serves every vector, one pass from the top down to x^phi(n): a
coefficient past x^(n-1) is folded by x^n = 1, any other is cleared by
subtracting a multiple of the monic Phi_n, whose nonzero low terms are kept
per conductor.

Least conductors come by descent, one prime at a time (_descend).  The
descent lemma: Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b))
(Washington, Introduction to Cyclotomic Fields, ch. 2), so the d | n with x
in Q(zeta_d) are the multiples of one least d0.  Step n -> n/p while x lies
in Q(zeta_(n/p)), then move to the next prime: a step refused at n fails at
every divisor of n with the same p-part too, its field lying in
Q(zeta_(n/p)); so the pass ends at an n' with x in no Q(zeta_(n'/p)), and
d0 | n' then forces d0 = n'.

Sums of products are reduced once (CycNum.dot).  The fused-sum lemma: the
map Z[x] -> Z[x]/(Phi_n) is a ring map, so reducing sum_k a_k(x)*b_k(x)
once, after convolving every pair over a common denominator, gives the
same class as reducing each product and each partial sum; and (num, den)
is canonical per conductor, so the result has exactly the num and den of
the left fold a_1*b_1 + a_2*b_2 + ... .  The unreduced vector lives only
inside one call.

Inverses use the norm (Cohen, A Course in Computational Algebraic Number
Theory, 1993, sec. 4.3): for x != 0, N(x) = prod_{k in (Z/n)*} sigma_k(x),
sigma_k mapping zeta to zeta^k, is a nonzero rational, so 1/x = adj / N(x)
with adj = prod_{k != 1} sigma_k(x).  A doubling tower builds adj: from
H = {1} and b = x, for a unit g outside H, of order o modulo H,
rel = prod_{0<j<o} sigma_(g^j)(b) is sigma_g(P(o - 1)), where
P(m) = prod_{j<m} sigma_(g^j)(b) doubles as P(s + t) = P(s)·sigma_(g^s)(P(t));
adj and b gain rel and H becomes H·<g>, so b = prod_{h in H} sigma_h(x)
throughout.  inverse() checks the lemma at runtime: x * adj must be
rational, or as_fraction raises.

One text syntax serves scalars and forms: integers, z<k>^<j> (zeta_k^j) and
variables x<i>^<e>, combined with + - * / ^ ( ) and unary minus, products
written with an explicit '*'.  parse_polynomial returns {sparse monomial:
CycNum}; parse_scalar is the same parser with no variable allowed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

# Tables kept per conductor (Phi_n and its low terms): a bound keeps a
# long-lived process fed many conductors from holding every table.
KERNEL_CACHE = 64


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    primes = _prime_factors(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


@lru_cache(maxsize=KERNEL_CACHE)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of Phi_n = prod_{d | n} (x^d - 1)^mu(n/d)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    factors = [(n, 1)]                  # (d, mu(n/d)) for every squarefree n/d
    for p in _prime_factors(n):
        factors += [(d // p, -mu) for d, mu in factors]
    poly = [1]
    for d, mu in sorted(factors, key=lambda f: -f[1]):
        if mu > 0:                      # poly * (x^d - 1)
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
        else:                           # poly / (x^d - 1), exact: q[i] = q[i - d] - poly[i]
            q = []
            for i in range(len(poly) - d):
                q.append((q[i - d] if i >= d else 0) - poly[i])
            poly = q
    return tuple(poly)


@lru_cache(maxsize=KERNEL_CACHE)
def _low_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n), and the nonzero terms of Phi_n below its leading x^phi(n) as (index, coefficient) pairs."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((i, c) for i, c in enumerate(poly[:-1]) if c)


def _reduce_vector(vec, n: int) -> list[int]:
    """Reduce an integer vector of any length mod Phi_n into a new list, by the one top-down pass."""
    phi, terms = _low_terms(n)
    out = list(vec)
    if len(out) < phi:
        out += [0] * (phi - len(out))
    for k in range(len(out) - 1, phi - 1, -1):
        c = out.pop()
        if c:
            if k >= n:
                out[k % n] += c
            else:
                for i, t in terms:
                    out[k - phi + i] -= c * t
    return out


def _convolve(out: list[int], a, b) -> None:
    """out[i + j] += a[i] * b[j]: the one product loop of CycNum.__mul__ and CycNum.dot."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y


class CycNum:
    """An element of Q(zeta_n) in the reduced power basis."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        vec = _reduce_vector(num, n)
        if den < 0:
            den = -den
            vec = [-c for c in vec]
        g = math.gcd(den, *vec)     # den itself when vec is zero, so zero gets den 1
        if g > 1:
            vec = [c // g for c in vec]
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", tuple(vec))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, k: int, n: int = 1) -> CycNum:
        return cls(n, [k])

    @classmethod
    def from_fraction(cls, q, n: int = 1) -> CycNum:
        q = Fraction(q)
        return cls(n, [q.numerator], q.denominator)

    @classmethod
    def zero(cls, n: int = 1) -> CycNum:
        return cls(n, [])

    @classmethod
    def one(cls, n: int = 1) -> CycNum:
        return cls(n, [1])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % (self,))
        return Fraction(self.num[0], self.den)

    def to_conductor(self, m: int) -> CycNum:
        """Embed into Q(zeta_m) for a multiple m of the conductor."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError("conductor %d does not divide %d" % (self.n, m))
        step = m // self.n
        vec = [0] * (len(self.num) * step)
        vec[::step] = self.num
        return CycNum(m, vec, self.den)

    def reduce(self) -> CycNum:
        """Rewrite over the least conductor whose field contains the value (descent lemma)."""
        if self.is_rational():
            return CycNum(1, [self.num[0]], self.den) if self.n != 1 else self
        n, num = self.n, self.num
        for p in _prime_factors(self.n):
            while n % p == 0:
                down = _descend(num, n, p)
                if down is None:
                    break
                n, num = n // p, down
        return self if n == self.n else CycNum(n, num, self.den)

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, CycNum):
            if self.n == other.n:
                return self, other
            m = math.lcm(self.n, other.n)
            return self.to_conductor(m), other.to_conductor(m)
        if isinstance(other, int):
            return self, CycNum(self.n, [other])
        if isinstance(other, Fraction):
            return self, CycNum(self.n, [other.numerator], other.denominator)
        return None, None

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return CycNum(a.n, [x + y for x, y in zip(a.num, b.num)], da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return CycNum(a.n, [x * ma + y * mb for x, y in zip(a.num, b.num)], da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        out = [0] * (2 * len(a.num) - 1)
        _convolve(out, a.num, b.num)
        return CycNum(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs, n: int) -> CycNum:
        """sum_k a_k * b_k over Q(zeta_n), reduced mod Phi_n and normalised once.

        Every operand is lifted to conductor n, which must be a multiple of
        its own (else ValueError).  The products are convolved into one unreduced integer vector over the
        lcm D of the denominators a_k.den * b_k.den, each scaled by
        D / (a_k.den * b_k.den).  By the fused-sum lemma (module docstring)
        the result has exactly the n, num and den of the left fold
        a_1*b_1 + a_2*b_2 + ... at conductor n; no pairs give zero.
        """
        out = [0] * (2 * euler_phi(n) - 1)
        den = 1
        for a, b in pairs:
            if a.n != n:
                a = a.to_conductor(n)
            if b.n != n:
                b = b.to_conductor(n)
            x, d = a.num, a.den * b.den
            if d != den:
                lcm = math.lcm(den, d)
                if lcm != den:
                    out = [c * (lcm // den) for c in out]
                    den = lcm
                if d != den:
                    x = [c * (den // d) for c in x]
            _convolve(out, x, b.num)
        return CycNum(n, out, den)

    def inverse(self) -> CycNum:
        """1/x = adj / N(x), adj the product of the conjugates sigma_k(x), k != 1, by the doubling tower.

        N(x) = x * adj is rational by the norm lemma; as_fraction checks it.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.n)
        if self.is_rational():
            return CycNum(self.n, [self.den] + [0] * (len(self.num) - 1), self.num[0])
        n, adj, b, group = self.n, CycNum.one(self.n), self, {1}

        def conj(y, k):                     # sigma_k(y): a scatter of the coefficients, then the one reduction
            vec = [0] * n
            for i, c in enumerate(y.num):
                vec[i * k % n] = c
            return CycNum(n, vec, y.den)

        for g in range(2, n):
            if math.gcd(g, n) == 1 and g not in group:
                o = next(j for j in range(2, n) if pow(g, j, n) in group)
                prod, s = b, 1              # P(s), doubled along the bits of o - 1
                for bit in bin(o - 1)[3:]:
                    prod, s = prod * conj(prod, pow(g, s, n)), 2 * s
                    if bit == "1":
                        prod, s = prod * conj(b, pow(g, s, n)), s + 1
                rel = conj(prod, g)
                adj, b = adj * rel, b * rel
                group = {h * pow(g, j, n) % n for h in group for j in range(o)}
        norm = (self * adj).as_fraction()
        return CycNum(n, [c * norm.denominator for c in adj.num], adj.den * norm.numerator)

    def __truediv__(self, other):
        # invert at the divisor's own conductor, not at the common one
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_fraction(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return CycNum.one(self.n)
        result = self               # left-to-right square-and-multiply from the top bit down
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.is_rational():
                return False
            return self.as_fraction() == other
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.n == other.n:
            return self.num == other.num and self.den == other.den
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash(self.canonical_key())

    def canonical_key(self) -> bytes:
        """Injective byte key, stable across conductors representing the value."""
        r = self.reduce()
        return b"%d:%d:%s" % (r.n, r.den, repr(r.num).encode())

    def __repr__(self):
        return "CycNum(%r)" % scalar_to_str(self)

    def __str__(self):
        return scalar_to_str(self)


def root_of_unity(k: int, power: int = 1) -> CycNum:
    """zeta_k ** power as an element of Q(zeta_k)."""
    if k < 1:
        raise ValueError("order of the root must be positive")
    power %= k
    if power == 0:
        return CycNum.one(1)
    # zeta_k^power is a primitive (k/g)-th root; build it there directly.
    g = math.gcd(power, k)
    return CycNum(k // g, [0] * (power // g) + [1])


def conductor(values) -> int:
    """The least conductor holding all the given CycNum values."""
    return math.lcm(*(c.n for c in values))


def _descend(num, n: int, p: int):
    """The reduced vector at conductor n/p of the value num at n, or None if it does not lie in Q(zeta_(n/p)).

    With p^2 | n, Phi_n(t) = Phi_(n/p)(t^p), so the value lies in
    Q(zeta_(n/p)) iff its coefficients vanish off the multiples of p.  With
    p || n and m = n/p, zeta_n = zeta_m^u * zeta_p^v for u = 1/p (mod m) and
    v = 1/m (mod p); the coefficients group into sum_j g_j(zeta_m) * zeta_p^j,
    and zeta_p^(p-1) = -(1 + .. + zeta_p^(p-2)) rewrites the top group.  As
    gcd(m, p) = 1, the zeta_p^j with j < p - 1 are a basis of Q(zeta_n) over
    Q(zeta_m), so the value lies in Q(zeta_m) iff every rewritten g_j with
    j >= 1 vanishes mod Phi_m.
    """
    m = n // p
    if m % p == 0:
        return None if any(c for i, c in enumerate(num) if i % p) else list(num[::p])
    u, v = pow(p, -1, m), pow(m, -1, p)
    groups = [[0] * m for _ in range(p)]
    for i, c in enumerate(num):
        if c:
            groups[v * i % p][u * i % m] += c
    rewritten = (_reduce_vector([a - b for a, b in zip(g, groups[-1])], m) for g in groups[:-1])
    low = next(rewritten)
    return None if any(map(any, rewritten)) else low


# -- text syntax ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([xz]?\d+|[()+\-*/^])|(\S))")


class ScalarSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


class _Parser:
    """Recursive-descent parser for the one text syntax of scalars and forms.

    Atoms: integers, z<k> and z<k>^<j> (k >= 1), x<i> and x<i>^<e> (i >= 1,
    e >= 0); combined with + - * / ^ ( ) and unary minus.  Products need an
    explicit '*'.  Values map sparse monomials (sorted tuples of (variable,
    exponent)) to CycNum coefficients; a scalar is the monomial ().  Every
    error is a ScalarSyntaxError carrying its 0-based position.
    """

    def __init__(self, text: str):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            if m.group(2):
                raise ScalarSyntaxError("unexpected character %r" % m.group(2), m.start(2))
            self.tokens.append((m.group(1), m.start(1)))
        self.tokens.append(("", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> dict:
        v = self.expr()
        if self.peek() != "":
            raise ScalarSyntaxError("trailing input", self.tokens[self.i][1])
        return v

    def expr(self) -> dict:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        v = self.term()
        if sign < 0:
            v = _poly_neg(v)
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            v = _poly_add(v, t if op == "+" else _poly_neg(t))
        return v

    def term(self) -> dict:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op, pos = self.next()
            f = self.factor()
            v = _poly_mul(v, f if op == "*" else self._inverse(f, pos))
        return v

    def factor(self) -> dict:
        tok, pos = self.next()
        if tok == "-":
            return _poly_neg(self.factor())
        if tok == "(":
            v = self.expr()
            if self.peek() != ")":
                raise ScalarSyntaxError("missing ')'", self.tokens[self.i][1])
            self.next()
            return self._maybe_power(v)
        if tok.isdigit():
            return self._maybe_power({(): CycNum.from_int(int(tok))})
        if tok[:1] in ("x", "z"):
            idx = int(tok[1:])
            if idx < 1:
                raise ScalarSyntaxError("root order must be positive" if tok[0] == "z"
                                        else "bad variable index", pos)
            power = 1
            if self.peek() == "^":
                self.next()
                power = self._exponent()
            if tok[0] == "z":
                return {(): root_of_unity(idx, power)}
            if power < 0:
                raise ScalarSyntaxError("negative variable exponent", pos)
            return {((idx, power),): CycNum.one()} if power else {(): CycNum.one()}
        raise ScalarSyntaxError("expected an atom, got %r" % tok, pos)

    def _maybe_power(self, v: dict) -> dict:
        if self.peek() != "^":
            return v
        pos = self.next()[1]
        e = self._exponent()
        if e < 0:
            v = self._inverse(v, pos)
            e = -e
        out = {(): CycNum.one()}
        while e:
            if e & 1:
                out = _poly_mul(out, v)
            v = _poly_mul(v, v)
            e >>= 1
        return out

    def _exponent(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.next()
            sign = -1
        tok, pos = self.next()
        if not tok.isdigit():
            raise ScalarSyntaxError("expected integer exponent", pos)
        return sign * int(tok)

    @staticmethod
    def _inverse(a: dict, pos: int) -> dict:
        nz = {m: c for m, c in a.items() if not c.is_zero()}
        if list(nz) not in ([], [()]):
            raise ScalarSyntaxError("division by a non-scalar", pos)
        if not nz:
            raise ScalarSyntaxError("division by zero", pos)
        return {(): nz[()].inverse()}


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        cur = out.get(m)
        out[m] = c if cur is None else cur + c
    return out


def _poly_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            merged = dict(m1)
            for idx, e in m2:
                merged[idx] = merged.get(idx, 0) + e
            key = tuple(sorted(merged.items()))
            c = c1 * c2
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return out


def parse_polynomial(text: str) -> dict:
    """Parse the text syntax into {sparse monomial: CycNum}, e.g. '9*(x1^5+x2^5)*x3'."""
    return _Parser(text).parse()


def parse_scalar(text: str) -> CycNum:
    """Parse the text syntax with no variable, e.g. '(1+2*z3)' or '3/4*z8^3'."""
    parser = _Parser(text)
    for tok, pos in parser.tokens:
        if tok.startswith("x"):
            raise ScalarSyntaxError("variable %s in a scalar" % tok, pos)
    return parser.parse()[()]


def scalar_to_str(x: CycNum) -> str:
    """Canonical text form, parseable by parse_scalar."""
    r = x.reduce()
    if r.is_rational():
        f = r.as_fraction()
        return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)
    parts = []
    for k, c in enumerate(r.num):
        if c == 0:
            continue
        g = math.gcd(c, r.den)
        coeff = str(abs(c) // g) if g == r.den else "%d/%d" % (abs(c) // g, r.den // g)
        if k == 0:
            body = coeff
        else:
            z = "z%d" % r.n if k == 1 else "z%d^%d" % (r.n, k)
            body = z if coeff == "1" else "%s*%s" % (coeff, z)
        parts.append(("-" if c < 0 else "+") + body)
    s = "".join(parts)
    return s[1:] if s.startswith("+") else s
