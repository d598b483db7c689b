"""Smoothness certification for homogeneous forms.

A form is smooth when its partial derivatives vanish simultaneously only at
the origin.  The certifiers here are exact:

* coordinate-point: a standard basis vector e_i at which every partial
  vanishes is a singular point;
* split-variables: a sum of forms in disjoint variables is smooth iff each
  summand is;
* groebner-modp and groebner-char0: one chart criterion, run over F_p or
  over the cyclotomic coefficient field K.  The charts
  U_k = {x_k = 1, x_j = 0 for j > k}, k = r, ..., 1, cover P^(r-1): a point
  lies in the chart of its last nonzero coordinate.  On U_k the partials
  restrict to polynomials in x_1..x_(k-1), and by the weak Nullstellensatz
  (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 4) they have no
  common zero over the algebraic closure iff they generate the unit ideal.
  So the form is smooth over the field iff every chart's Groebner run
  reaches 1.  Over K a chart whose complete basis is not {1} holds a
  singular point.  Over F_p the properness lemma applies: if p = 1 (mod N),
  N the conductor, and p divides no coefficient denominator, a singular
  point in characteristic 0, scaled to be primitive at a prime above p,
  reduces to a nonzero common zero of the reduced partials; so one complete
  run in which every chart reaches 1 proves smoothness, while a chart that
  does not only shows a possible bad reduction.

Both fields run one Buchberger engine on packed-int monomials; the
coefficient field (F_p or the cyclotomic field) is a parameter that supplies
only the coefficient arithmetic.  The exponent bound of the packing comes
from the degree cap, and the exactness lemma at the engine shows that no
exponent ever exceeds it.

A singular verdict is only ever issued from characteristic 0, with either an
exact witness point or the chart over K whose Groebner basis is not {1} as
certificate.
"""

from __future__ import annotations

import heapq
import json
import random
from math import lcm
from typing import NamedTuple

from .cyclotomic import CycNum, conductor, cyclotomic_polynomial, scalar_to_str
from .forms import Form, partials


class SmoothnessError(ValueError):
    pass


# -- coefficient fields -------------------------------------------------------
#
# The Buchberger engine below is the same for every field; a field supplies
# only its coefficient arithmetic: from_cyc, inv, mul, and submul, the one
# inner loop of reduction.


class GF:
    """Prime field F_p with a reduction map from a cyclotomic field."""

    def __init__(self, p: int, conductor: int = 1):
        self.p = p
        self.conductor = conductor
        self.root = self._find_root(conductor) if conductor > 1 else 1

    def _find_root(self, n: int) -> int:
        """The first r = a^((p-1)/n), a = 2, 3, ..., with Phi_n(r) = 0 (mod p).

        This r has order exactly n: p = 1 (mod n) gives p not dividing n, so
        x^n - 1 is separable mod p, and its roots that are roots of Phi_n
        are exactly the elements of order n.
        """
        p = self.p
        if (p - 1) % n:
            raise SmoothnessError("p = %d does not split conductor %d" % (p, n))
        phi = cyclotomic_polynomial(n)
        for a in range(2, p):
            r = pow(a, (p - 1) // n, p)
            val = 0
            for c in reversed(phi):
                val = (val * r + c) % p
            if val == 0:
                return r
        raise SmoothnessError("no primitive root of the cyclotomic polynomial mod %d" % p)

    def from_cyc(self, c: CycNum) -> int:
        if c.n > 1 and self.conductor % c.n:
            raise SmoothnessError("coefficient conductor %d not handled by this prime" % c.n)
        if c.n == 1:
            num = c.num[0]
        else:
            cc = c.to_conductor(self.conductor) if c.n != self.conductor else c
            r = self.root
            num = 0
            for coef in reversed(cc.num):
                num = (num * r + coef) % self.p
        return num * pow(c.den, -1, self.p) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def mul(self, a, b):
        return a * b % self.p

    def submul(self, terms, tail, delta, factor):
        """terms -= factor * x^delta * tail; returns the keys it created."""
        p = self.p
        new = []
        for e, c in tail:
            key = e + delta
            old = terms.get(key)
            if old is None:
                terms[key] = -factor * c % p
                new.append(key)
            else:
                v = (old - factor * c) % p
                if v:
                    terms[key] = v
                else:
                    del terms[key]
        return new


class CycField:
    """The cyclotomic coefficient field, used directly."""

    p = 0

    @staticmethod
    def from_cyc(c):
        return c

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def submul(terms, tail, delta, factor):
        """terms -= factor * x^delta * tail; returns the keys it created."""
        neg = -factor
        new = []
        for e, c in tail:
            key = e + delta
            v = neg * c
            old = terms.get(key)
            if old is None:
                terms[key] = v
                new.append(key)
            else:
                v = old + v
                if v.is_zero():
                    del terms[key]
                else:
                    terms[key] = v
        return new


# -- packed-monomial Buchberger -------------------------------------------------
#
# For a bound M, an exponent vector e with every e_i <= M is packed into one
# int laid out as
#   [total degree | M - e_{n-1} | ... | M - e_0]
# in fields of w = bitlength(M) + 1 bits, the top bit of each field a zero
# guard bit.  Native int comparison is then exactly grevlex order, monomial
# multiplication and division are int additions and subtractions (exact while
# every resulting exponent is in [0, M]), and a | b is a borrow test on the
# guard bits: (a | guard) - b keeps every guard bit iff each field of a is at
# least the field of b.
#
# Exactness lemma.  Grevlex is degree-compatible: the leading monomial of a
# polynomial has the largest total degree among its terms.  So processing a
# pair whose lcm has degree D (forming its S-polynomial, then subtracting
# multiples x^delta * g whose leading term cancels a present term) only
# creates terms of degree <= D; likewise reducing an element never raises its
# degree.  M is at least the degree cap and twice the input degree, and a pair
# whose lcm degree exceeds the cap is never processed (it marks the run
# incomplete), so every exponent ever packed is <= M.


def _packing(nvars, bound):
    """(pack, unpack, guard, offset, shift) of the layout above for exponents <= bound.

    offset is the packed constant monomial 1; m >> shift is the degree of m.
    """
    width = bound.bit_length() + 1
    shift = nvars * width
    guard = offset = 0
    for i in range(nvars):
        guard |= 1 << (i * width + width - 1)
        offset |= bound << (i * width)
    fmask = (1 << width) - 1

    def pack(exps):
        return (sum(exps) << shift) + offset - sum(e << (i * width) for i, e in enumerate(exps))

    def unpack(m):
        return tuple(bound - ((m >> (i * width)) & fmask) for i in range(nvars))

    return pack, unpack, guard, offset, shift


def _divides(a, b, guard):
    """Packed a | b: every exponent of a is at most the same exponent of b."""
    return ((a | guard) - b) & guard == guard


class Poly(NamedTuple):
    """A basis element: {exponent tuple: coeff} and its leading monomial."""

    terms: dict
    lm: tuple


class GroebnerResult(NamedTuple):
    basis: list
    complete: bool
    pairs_processed: int


def buchberger(polys, field, degree_cap, pair_budget=200000):
    """Reduced Groebner basis under grevlex, smallest lcm first, Gebauer-Moeller pair update.

    polys are {exponent tuple: coeff} dicts with coefficients in field.
    At most pair_budget pairs are processed.  Exceeding the pair budget or
    needing a pair above the degree cap yields complete=False (never a wrong
    basis).  The run stops as soon as a nonzero constant enters the basis:
    the ideal is then the unit ideal, whose reduced basis is {1}, complete
    whatever pairs are left.

    Monomials are packed (`_packing`) with exponents at most
    max(degree_cap, 2·deg, 1), deg the largest input degree.  Basis elements are monic.

    Pairs are kept by the Gebauer-Moeller update (Gebauer-Moeller, J. Symb.
    Comput. 6, 1988; the UPDATE procedure of Becker-Weispfenning, Groebner
    Bases, 1993, 5.5).  When h enters the basis:
      B  a live pair (i, j) is dropped when lm(h) divides its lcm L and
         lcm(i, h) != L != lcm(j, h);
      M  a new pair (t, h) is dropped when the lcm of another new pair
         properly divides lcm(t, h);
      F  of new pairs with one lcm only one is kept, and none when one of
         them has coprime leading monomials (Buchberger's first criterion
         then drops that one too).
    The criteria are sound: if every surviving pair reduces to zero, the
    basis is a Groebner basis, whatever the degrees of the pruned pairs.  So
    a pruned pair above the degree cap needs no processing and leaves the
    run complete, while every surviving pair above the cap makes it
    incomplete when popped.  Only elements whose leading monomial no later
    one divides take new pairs; older pairs of the other elements stay live.

    Reduction keeps a max-heap of the packed terms (duplicates and cancelled
    keys are skipped when popped) and finds reducers through a memo that
    lasts the whole run: found[m] is the index of an element whose leading
    monomial divides m, scanned[m] the number of elements none of which does.
    The basis is append-only, so a found reducer stays valid and a miss
    rescans only the elements added since.  Any element whose leading
    monomial divides m gives a valid reduction step.
    """
    polys = [t for t in ({e: c for e, c in t.items() if c != 0} for t in polys) if t]
    if not polys:
        return GroebnerResult([], True, 0)
    nvars = len(next(iter(polys[0])))
    bound = max(degree_cap, 2 * max(sum(e) for t in polys for e in t), 1)
    pack, unpack, guard, offset, shift = _packing(nvars, bound)
    one = field.from_cyc(CycNum.one())

    lms = []        # packed leading monomials, in insertion order
    tails = []      # monic tails [(m, c)], without the leading term
    exps = []       # unpacked leading monomials
    active = []     # elements whose leading monomial no later one divides
    live = {}       # surviving pairs (i, j), i > j: packed lcm
    pairs = []      # heap of (lcm, i, j); entries no longer in live are stale
    found = {}
    scanned = {}
    heappush, heappop = heapq.heappush, heapq.heappop

    def reduce(terms):
        """Full normal form of terms, as a dict in descending term order."""
        heap = [-m for m in terms]
        heapq.heapify(heap)
        out = {}
        while heap:
            m = -heappop(heap)
            c = terms.pop(m, None)
            if c is None:
                continue
            k = found.get(m)
            if k is None:
                n = len(lms)
                k = scanned.get(m, 0)
                while k < n and not _divides(lms[k], m, guard):
                    k += 1
                if k == n:
                    scanned[m] = n
                    out[m] = c
                    continue
                found[m] = k
            for key in field.submul(terms, tails[k], m - lms[k], c):
                heappush(heap, -key)
        return out

    def insert(terms):
        """Add a reduced nonzero element and update the pairs."""
        lm = next(iter(terms))
        h = len(lms)
        e = unpack(lm)
        lcms = {}

        def lcm_with(t):
            if t not in lcms:
                lcms[t] = pack(tuple(map(max, e, exps[t])))
            return lcms[t]

        for (i, j), l in list(live.items()):                        # B
            if _divides(lm, l, guard) and lcm_with(i) != l and lcm_with(j) != l:
                del live[i, j]
        # ascending lcm, so a proper divisor of an lcm comes before it; a pair
        # is coprime iff its lcm is the product lm + lm_t - offset, and
        # coprime pairs come first among equal lcms
        new = sorted((lcm_with(t), lcm_with(t) != lm + lms[t] - offset, t) for t in active)
        kept = []
        for l, not_coprime, t in new:                               # M, F
            if not any(_divides(q, l, guard) for q in kept):
                kept.append(l)
                if not_coprime:
                    live[h, t] = l
                    heappush(pairs, (l, h, t))
        active[:] = [t for t in active if not _divides(lm, lms[t], guard)]
        active.append(h)
        inv = field.inv(terms[lm])
        lms.append(lm)
        tails.append([(m, field.mul(c, inv)) for m, c in terms.items() if m != lm])
        exps.append(e)

    def unit_basis(processed):
        return GroebnerResult([Poly({(0,) * nvars: one}, (0,) * nvars)], True, processed)

    for terms in sorted(({pack(e): c for e, c in t.items()} for t in polys), key=max):
        terms = reduce(terms)
        if terms:
            if next(iter(terms)) == offset:
                return unit_basis(0)
            insert(terms)

    processed = 0
    complete = True
    while pairs:
        l, i, j = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        if l >> shift > degree_cap:
            complete = False
            continue
        if processed >= pair_budget:
            complete = False
            break
        processed += 1
        di = l - lms[i]
        terms = {m + di: c for m, c in tails[i]}
        field.submul(terms, tails[j], l - lms[j], one)
        terms = reduce(terms)
        if terms:
            if next(iter(terms)) == offset:
                return unit_basis(processed)
            insert(terms)

    # the active elements have the minimal leading monomials, one each; a
    # complete run's elements form a Groebner basis, so reducing a tail by
    # any of them (the memo's choice) gives the one normal form
    basis = []
    for k in sorted(active, key=lms.__getitem__):
        g = {lms[k]: one}
        g.update(reduce(dict(tails[k])))
        basis.append(Poly({unpack(m): c for m, c in g.items()}, unpack(lms[k])))
    return GroebnerResult(basis, complete, processed)


def form_to_poly(form: Form, field) -> dict:
    return {e: field.from_cyc(c) for e, c in form.terms.items()}


# -- smoothness ----------------------------------------------------------------


class SmoothnessCertificate:
    def __init__(self, verdict, method, witness=None, primes=None, detail=None):
        self.verdict = verdict      # smooth | singular | undecided
        self.method = method        # coordinate-point | split-variables | groebner-modp | groebner-char0
        self.witness = witness      # tuple of CycNum for singular, when found
        self.primes = primes or []
        self.detail = detail or {}

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "method": self.method,
            "witness": [scalar_to_str(w) for w in self.witness] if self.witness else None,
            "primes": self.primes,
            "detail": self.detail,
        }
        return json.dumps(payload)

    def __repr__(self):
        return "SmoothnessCertificate(%s via %s)" % (self.verdict, self.method)


def good_primes(conductor: int, count: int, seed: int = 0, lo: int = 1 << 20, hi: int = 1 << 21):
    """Random primes p = 1 (mod conductor) in [lo, hi), deterministic per seed.

    p = k * conductor + 1 for a drawn k.  When [lo, hi) holds no such p with
    k >= 1 (a conductor near or above hi), k is drawn from the 2^10 values
    from max(1, lo // conductor) up instead, and p may exceed hi.  Once every
    candidate of the window has been drawn with fewer than `count` primes
    found, the draws go on in [hi, 2 hi) from the same generator, so every
    draw that succeeds inside the first window is unaffected.
    """
    k_lo, k_hi = lo // conductor, hi // conductor
    if k_hi <= max(k_lo, 1):
        k_lo = max(k_lo, 1)
        k_hi = k_lo + (1 << 10)
        hi = k_hi * conductor
    rng = random.Random(seed)
    found = []
    seen = set()
    attempts = 0
    while len(found) < count:
        # drawable k with k * conductor + 1 in [lo, hi)
        candidates = min(k_hi, (hi - 2) // conductor + 1) - max(k_lo, -(-(lo - 1) // conductor))
        if len(seen) >= candidates:
            lo, hi = hi, 2 * hi
            k_lo, k_hi = lo // conductor, hi // conductor
            seen = set()
            continue
        attempts += 1
        if attempts > 200000:
            raise SmoothnessError("cannot find enough split primes for conductor %d" % conductor)
        k = rng.randrange(k_lo, k_hi)
        p = k * conductor + 1
        if p < lo or p >= hi or p in seen:
            continue
        seen.add(p)
        if _is_prime(p):
            found.append(p)
    return found


def split_prime(conductor: int, den: int, seed: int = 0, lo: int = 1 << 20) -> int:
    """The first seeded prime p = 1 (mod conductor), p >= lo, not dividing den.

    Lemma: at most log_lo(den) primes >= lo divide den, and log_lo(den) is
    below den.bit_length() / (lo.bit_length() - 1), so one more draw than
    that always leaves a prime.
    """
    primes = good_primes(conductor, 1 + den.bit_length() // (lo.bit_length() - 1), seed, lo=lo)
    return next(p for p in primes if den % p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def variable_components(form: Form):
    """Connected components of variables linked by shared monomials."""
    r = form.nvars
    parent = list(range(r))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in form.terms:
        support = [i for i, x in enumerate(e) if x]
        for a, b in zip(support, support[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comps = {}
    for i in range(r):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values())


def restrict_to_variables(form: Form, variables) -> Form:
    """Subform of the terms supported exactly on the given variables."""
    variables = list(variables)
    idx = {v: i for i, v in enumerate(variables)}
    terms = {}
    for e, c in form.terms.items():
        if all((x == 0) or (i in idx) for i, x in enumerate(e)):
            terms[tuple(e[v] for v in variables)] = c
    return Form(len(variables), terms, form.degree)


def _coordinate_witness(form: Form):
    """A standard basis vector e_i killing every partial, if one exists.

    The partials at e_i are the coefficients of the terms x_i^(d-1) * x_j
    times nonzero exponents, so e_i kills them iff no term has e[i] >= d - 1.
    An unused variable always gives one, since d >= 2; and a witness of a
    summand in disjoint variables is one of the whole form.
    """
    for i in range(form.nvars):
        if all(e[i] < form.degree - 1 for e in form.terms):
            return tuple(CycNum.one() if j == i else CycNum.zero() for j in range(form.nvars))
    return None


def _only_origin(form: Form, field, degree_cap, pair_budget):
    """(verdict, chart, pairs): do the partials vanish over the closure of field only at 0?

    verdict is True when every chart reaches the unit ideal, False when a
    chart is empty (every restricted partial is zero) or its complete basis
    is not {1}, and None when a run is incomplete.  For False and None,
    chart is the 1-based k of the chart U_k that decided and pairs the pairs
    its run processed.  On U_k a term survives iff it uses no variable
    after x_k, and homogeneity fixes its exponent of x_k by the others, so
    truncating the kept exponent tuples to x_1..x_(k-1) merges no two terms.
    """
    polys = [form_to_poly(f, field) for f in partials(form)]
    for chart in range(form.nvars - 1, -1, -1):
        chart_polys = [t for t in ({e[:chart]: c for e, c in poly.items()
                                    if c != 0 and not any(e[chart + 1:])} for poly in polys) if t]
        if not chart_polys:
            return False, chart + 1, 0
        if chart == 0:
            break       # only constants are left, and one of them is nonzero
        gb = buchberger(chart_polys, field, degree_cap=degree_cap, pair_budget=pair_budget)
        if not gb.complete:
            return None, chart + 1, gb.pairs_processed
        if not (len(gb.basis) == 1 and sum(gb.basis[0].lm) == 0):
            return False, chart + 1, gb.pairs_processed
    return True, None, 0


def is_smooth(form: Form, strategy: str = "auto", primes=None, seed: int = 0,
              pair_budget=200000) -> SmoothnessCertificate:
    """Certify the smooth/singular verdict for a homogeneous form.

    strategy is one of auto, modp, char0.  Under every strategy a
    coordinate point e_i that kills every partial is checked first: it is a
    singular witness, method coordinate-point.  auto then runs
    split-variables, then the chart criterion over F_p, then the same chart
    criterion over the cyclotomic field K.  The primes (by default the one
    `split_prime` draws from the seed) are tried in order; the first run in
    which every chart reaches the unit ideal is the certificate, method
    groebner-modp with primes [p] and detail {"conductor": N}.  modp is
    undecided once every prime refuses (detail per_prime maps each prime to
    its verdict: False for a chart that is empty or not the unit ideal, None
    for an incomplete run); auto falls through to characteristic 0 at the
    first refusal, so a singular reduction mod p is never reported as
    singular.  Over K the detail is {"charts": r} when smooth, {"chart": k}
    when singular and {"chart": k, "pairs": n} when undecided, k the 1-based
    variable set to 1 in the chart that decided and n the pairs its run
    processed.  Every Groebner run is capped at degree 4 * deg(form).  A
    supplied prime that is not a prime p = 1 (mod N), N the conductor,
    dividing no coefficient denominator (the properness lemma's hypotheses)
    is refused with SmoothnessError.
    """
    if form.degree < 2:
        raise SmoothnessError("smoothness needs degree >= 2")
    n = conductor(form.terms.values())
    den = lcm(*(c.den for c in form.terms.values()))
    for p in primes or ():
        if not _is_prime(p) or (p - 1) % n or den % p == 0:
            raise SmoothnessError("%d is not a prime = 1 (mod %d) dividing no denominator" % (p, n))
    degree_cap = 4 * form.degree

    witness = _coordinate_witness(form)
    if witness is not None:
        return SmoothnessCertificate("singular", "coordinate-point", witness,
                                     detail={"reason": "coordinate point kills all partials"})

    if strategy == "auto":
        comps = variable_components(form)
        if len(comps) > 1:
            for comp in comps:
                sub = restrict_to_variables(form, comp)
                cert = is_smooth(sub, "auto", primes=primes, seed=seed, pair_budget=pair_budget)
                if cert.verdict == "singular":
                    return SmoothnessCertificate("singular", "split-variables",
                                                 detail={"component": [v + 1 for v in comp],
                                                         "inner": cert.detail})
                if cert.verdict == "undecided":
                    return SmoothnessCertificate("undecided", "split-variables",
                                                 detail={"component": [v + 1 for v in comp]})
            return SmoothnessCertificate("smooth", "split-variables",
                                         detail={"components": [[v + 1 for v in c] for c in comps]})

    if strategy in ("auto", "modp"):
        tried = []
        for p in primes or [split_prime(n, den, seed)]:
            only_origin = _only_origin(form, GF(p, n), degree_cap, pair_budget)[0]
            if only_origin:
                return SmoothnessCertificate("smooth", "groebner-modp", primes=[p],
                                             detail={"conductor": n})
            tried.append((p, only_origin))
            if strategy == "auto":
                break       # possible bad reduction: characteristic 0 decides
        if strategy == "modp":
            return SmoothnessCertificate("undecided", "groebner-modp", primes=[p for p, _ in tried],
                                         detail={"per_prime": {str(p): v for p, v in tried}})

    only_origin, chart, pairs = _only_origin(form, CycField(), degree_cap, pair_budget)
    if only_origin:
        return SmoothnessCertificate("smooth", "groebner-char0", detail={"charts": form.nvars})
    if only_origin is None:
        return SmoothnessCertificate("undecided", "groebner-char0", detail={"chart": chart, "pairs": pairs})
    return SmoothnessCertificate("singular", "groebner-char0", detail={"chart": chart})
