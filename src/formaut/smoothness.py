"""Smoothness certification for homogeneous forms.

A form is smooth when its partial derivatives vanish simultaneously only at
the origin.  The certifiers here are exact:

* split-variables: a sum of forms in disjoint variables is smooth iff each
  summand is;
* groebner-modp: the partials are reduced modulo primes p = 1 (mod N) that
  split the coefficient field; emptiness of the projective zero locus over
  the closure of F_p (checked chart by chart as unit-ideal Groebner runs)
  implies smoothness in characteristic 0 by properness;
* groebner-char0: a reduced Groebner basis of the Jacobian ideal over the
  cyclotomic coefficient field; the form is smooth iff the leading-term
  ideal contains a pure power of every variable.

Both Groebner routes run one Buchberger engine on packed-int monomials; the
coefficient field (F_p or the cyclotomic field) is a parameter that supplies
only the coefficient arithmetic.  The exponent bound of the packing comes
from the degree cap, and the exactness lemma at the engine shows that no
exponent ever exceeds it.

A singular verdict is only ever issued from characteristic 0, with either an
exact witness point or the leading-term defect as certificate.
"""

from __future__ import annotations

import heapq
import json
import random
from typing import NamedTuple

from .cyclotomic import CycNum, conductor, cyclotomic_polynomial, scalar_to_str
from .forms import Form, partials


class SmoothnessError(ValueError):
    pass


# -- monomial order (graded reverse lexicographic) ---------------------------


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


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
        if c.den % self.p == 0:
            raise SmoothnessError("denominator divisible by p = %d" % self.p)
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


def _buchberger_packed(polys, field, nvars, bound, cap, pair_budget, stop_at_unit):
    """Grevlex Buchberger on packed monomials, exponents at most bound.

    polys: nonzero {exponent tuple: coeff} dicts of total degree <= bound.
    Returns (basis, capped, exhausted, processed): the reduced basis as
    monic {exponent tuple: coeff} dicts, whether a surviving pair above the
    degree cap was skipped, whether the pair budget ran out, and the pairs
    processed (at most pair_budget).

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
    a pruned pair above the degree cap needs no processing and leaves capped
    unset, while every surviving pair above the cap sets it when popped.
    Only elements whose leading monomial no later one divides take new
    pairs; older pairs of the other elements stay live.

    Reduction keeps a max-heap of the packed terms (duplicates and cancelled
    keys are skipped when popped) and finds reducers through a memo that
    lasts the whole run: found[m] is the index of an element whose leading
    monomial divides m, scanned[m] the number of elements none of which does.
    The basis is append-only, so a found reducer stays valid and a miss
    rescans only the elements added since.  Any element whose leading
    monomial divides m gives a valid reduction step.
    """
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
        return [{(0,) * nvars: one}], False, False, processed

    for terms in sorted(({pack(e): c for e, c in t.items()} for t in polys), key=max):
        terms = reduce(terms)
        if terms:
            if stop_at_unit and next(iter(terms)) == offset:
                return unit_basis(0)
            insert(terms)

    processed = 0
    capped = exhausted = False
    while pairs:
        l, i, j = heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        if l >> shift > cap:
            capped = True
            continue
        if processed >= pair_budget:
            exhausted = True
            break
        processed += 1
        di = l - lms[i]
        terms = {m + di: c for m, c in tails[i]}
        field.submul(terms, tails[j], l - lms[j], one)
        terms = reduce(terms)
        if terms:
            if stop_at_unit and next(iter(terms)) == offset:
                return unit_basis(processed)
            insert(terms)

    # the active elements have the minimal leading monomials, one each; a
    # complete run's elements form a Groebner basis, so reducing a tail by
    # any of them (the memo's choice) gives the one normal form
    basis = []
    for k in sorted(active, key=lms.__getitem__):
        g = {lms[k]: one}
        g.update(reduce(dict(tails[k])))
        basis.append({unpack(m): c for m, c in g.items()})
    return basis, capped, exhausted, processed


class Poly(NamedTuple):
    """A basis element: {exponent tuple: coeff} and its leading monomial."""

    terms: dict
    lm: tuple


class GroebnerResult:
    def __init__(self, basis, complete, pairs_processed):
        self.basis = basis
        self.complete = complete
        self.pairs_processed = pairs_processed

    def leading_monomials(self):
        return [g.lm for g in self.basis]


def buchberger(polys, field, degree_cap=None, pair_budget=200000, stop_at_unit=False):
    """Reduced Groebner basis under grevlex, smallest lcm first, Gebauer-Moeller pair update.

    polys are {exponent tuple: coeff} dicts with coefficients in field.
    At most pair_budget pairs are processed.  Exceeding the pair budget or
    needing a pair above the degree cap yields complete=False (never a wrong
    basis).  With degree_cap None there is no
    cap: a run that outgrows its packing bound restarts with the bound
    doubled.  With stop_at_unit the run aborts as soon as a nonzero constant
    enters the basis.
    """
    polys = [t for t in ({e: c for e, c in t.items() if c != 0} for t in polys) if t]
    if not polys:
        return GroebnerResult([], True, 0)
    nvars = len(next(iter(polys[0])))
    bound = max(degree_cap or 0, 2 * max(sum(e) for t in polys for e in t), 1)
    while True:
        basis, capped, exhausted, processed = _buchberger_packed(
            polys, field, nvars, bound, bound if degree_cap is None else degree_cap,
            pair_budget, stop_at_unit)
        if degree_cap is not None or not capped or exhausted:
            break
        bound *= 2
    basis = [Poly(g, max(g, key=grevlex_key)) for g in basis]
    return GroebnerResult(basis, not (capped or exhausted), processed)


def form_to_poly(form: Form, field) -> dict:
    return {e: field.from_cyc(c) for e, c in form.terms.items()}


def groebner_basis(forms, field=None, degree_cap=None, pair_budget=200000):
    """Reduced grevlex Groebner basis of a list of Forms (or coefficient dicts)."""
    field = field or CycField()
    polys = [form_to_poly(f, field) if isinstance(f, Form) else f for f in forms]
    return buchberger(polys, field, degree_cap=degree_cap, pair_budget=pair_budget)


# -- smoothness ----------------------------------------------------------------


class SmoothnessCertificate:
    def __init__(self, verdict, method, witness=None, primes=None, detail=None):
        self.verdict = verdict      # smooth | singular | undecided
        self.method = method        # groebner-char0 | groebner-modp | split-variables
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
    """A standard basis vector killing every partial, if one exists."""
    ps = partials(form)
    for i in range(form.nvars):
        point = [CycNum.zero()] * form.nvars
        point[i] = CycNum.one()
        ok = True
        for p in ps:
            e_pure = tuple(form.degree - 1 if j == i else 0 for j in range(form.nvars))
            val = p.terms.get(e_pure)
            if val is not None and not val.is_zero():
                ok = False
                break
        if ok:
            return tuple(point)
    return None


def _char0_verdict(form: Form, degree_cap, pair_budget):
    gb = groebner_basis(partials(form), CycField(), degree_cap=degree_cap, pair_budget=pair_budget)
    if not gb.complete:
        return None, gb
    lms = gb.leading_monomials()
    missing = []
    for i in range(form.nvars):
        if not any(all(x == 0 for j, x in enumerate(lm) if j != i) and lm[i] > 0 for lm in lms):
            missing.append(i + 1)
    return missing, gb


def _modp_only_origin(form: Form, p: int, degree_cap, pair_budget):
    """True/False/None: is the zero locus of the partials mod p just the origin?"""
    field = GF(p, conductor(form.terms.values()))
    polys = [form_to_poly(f, field) for f in partials(form)]
    r = form.nvars
    for chart in range(r - 1, -1, -1):
        chart_polys = []
        for poly in polys:
            terms = {}
            for e, c in poly.items():
                if any(e[j] for j in range(chart + 1, r)):
                    continue
                key = e[:chart]
                terms[key] = (terms.get(key, 0) + c) % p
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                chart_polys.append(terms)
        if not chart_polys:
            return False  # entire chart satisfies the system
        if chart == 0:
            # variables exhausted: constants; system infeasible iff some constant != 0
            continue
        gb = buchberger(chart_polys, field, degree_cap=degree_cap,
                        pair_budget=pair_budget, stop_at_unit=True)
        if not gb.complete:
            return None
        if not (len(gb.basis) == 1 and sum(gb.basis[0].lm) == 0):
            return False
    return True


def is_smooth(form: Form, strategy: str = "auto", primes=None, seed: int = 0,
              pair_budget=200000) -> SmoothnessCertificate:
    """Certify the smooth/singular verdict for a homogeneous form.

    strategy is one of auto, modp, char0.  The default pipeline is
    split-variables, then three mod-p certificates, then the characteristic-0
    Groebner fallback.  A singular reduction mod p is never reported as
    singular; it falls through to characteristic 0.  Every Groebner run is
    capped at degree 4 * deg(form).  Supplied primes must be primes
    p = 1 (mod N), N the conductor of the coefficients: the split-prime
    hypothesis of groebner-modp; any other is refused with SmoothnessError.
    """
    if form.degree < 2:
        raise SmoothnessError("smoothness needs degree >= 2")
    n = conductor(form.terms.values())
    for p in primes or ():
        if not _is_prime(p) or (p - 1) % n:
            raise SmoothnessError("%d is not a prime = 1 (mod %d)" % (p, n))
    degree_cap = 4 * form.degree

    if strategy == "auto":
        comps = variable_components(form)
        used = {i for e in form.terms for i, x in enumerate(e) if x}
        for i in range(form.nvars):
            if i not in used:
                point = [CycNum.zero()] * form.nvars
                point[i] = CycNum.one()
                return SmoothnessCertificate("singular", "split-variables", tuple(point),
                                             detail={"reason": "unused variable x%d" % (i + 1)})
        if len(comps) > 1:
            for comp in comps:
                sub = restrict_to_variables(form, comp)
                cert = is_smooth(sub, "auto", primes=primes, seed=seed, pair_budget=pair_budget)
                if cert.verdict == "singular":
                    witness = [CycNum.zero()] * form.nvars
                    if cert.witness:
                        for v, w in zip(comp, cert.witness):
                            witness[v] = w
                        return SmoothnessCertificate("singular", "split-variables", tuple(witness),
                                                     detail={"component": [v + 1 for v in comp]})
                    return SmoothnessCertificate("singular", "split-variables", None,
                                                 detail={"component": [v + 1 for v in comp],
                                                         "inner": cert.detail})
                if cert.verdict == "undecided":
                    return SmoothnessCertificate("undecided", "split-variables",
                                                 detail={"component": [v + 1 for v in comp]})
            return SmoothnessCertificate("smooth", "split-variables",
                                         detail={"components": [[v + 1 for v in c] for c in comps]})

    if form.nvars == 1:
        # x^d with nonzero coefficient: the only critical point is the origin
        return SmoothnessCertificate("smooth", "groebner-char0",
                                     detail={"reason": "single variable pure power"})

    witness = _coordinate_witness(form)
    if witness is not None:
        return SmoothnessCertificate("singular", "groebner-char0", witness,
                                     detail={"reason": "coordinate point kills all partials"})

    if strategy in ("auto", "modp"):
        ps = list(primes) if primes else good_primes(n, 3, seed=seed)
        verdicts = []
        for p in ps:
            v = _modp_only_origin(form, p, degree_cap, pair_budget)
            verdicts.append((p, v))
        if all(v is True for _, v in verdicts):
            return SmoothnessCertificate("smooth", "groebner-modp", primes=[p for p, _ in verdicts],
                                         detail={"conductor": n})
        if strategy == "modp":
            return SmoothnessCertificate("undecided", "groebner-modp", primes=[p for p, _ in verdicts],
                                         detail={"per_prime": {str(p): v for p, v in verdicts}})
        # fall through: possible bad reduction

    missing, gb = _char0_verdict(form, degree_cap, pair_budget)
    if missing is None:
        return SmoothnessCertificate("undecided", "groebner-char0",
                                     detail={"reason": "budget exhausted",
                                             "pairs": gb.pairs_processed})
    if not missing:
        return SmoothnessCertificate("smooth", "groebner-char0",
                                     detail={"basis_size": len(gb.basis)})
    return SmoothnessCertificate("singular", "groebner-char0", None,
                                 detail={"reason": "leading-term ideal misses pure powers",
                                         "variables": missing})


# -- the monomial-shape witness of restricted singularities --------------------


def smtosm_witness(form: Form, k: int, a: int):
    """Term of shape x1^d1 .. xk^dk * x_(k+j) forced by a singular restriction.

    Preconditions: the form (in k + a variables) is smooth while its
    restriction to the first k variables is not.  Returns the witness term,
    or raises if the guarantee fails (which would contradict smoothness).
    """
    if form.nvars != k + a or k < 2 or a < 1:
        raise SmoothnessError("need nvars = k + a with k >= 2, a > 0")
    restriction = restrict_to_variables(form, list(range(k)))
    if not restriction.is_zero():
        cert = is_smooth(restriction)
        if cert.verdict == "smooth":
            raise SmoothnessError("restriction to the first %d variables is smooth" % k)
    for e in sorted(form.terms, key=grevlex_key):
        tail = e[k:]
        if sum(tail) == 1:
            return e
    raise SmoothnessError("no witness monomial: smoothness hypothesis violated")
