"""Finite matrix groups over cyclotomic fields: closure, order, invariants.

Closure runs on residues.  Let K = Q(zeta_N) with N the conductor of the
generators, and p a prime with p = 1 (mod N): p is unramified and splits in
K, so a prime 𝔭 of K above p has residue field F_p and the generators
reduce entrywise to r x r matrices over F_p (`smoothness.GF`).  The group
is closed by BFS on those residues; each element is stored once, as the
int32 bytes of its residue (the dedup key), with the index of its BFS
parent and of the generator that reached it.

The reduction lemma (Minkowski; Serre, "Bounds for the orders of the finite
subgroups of G(k)", 2007; Detinko-Flannery-O'Brien, J. Symb. Comput. 50,
2013).  If p is odd, p = 1 (mod N), p divides no denominator of a generator
entry and G is finite, then every element of G is 𝔭-integral and reduction
mod 𝔭 is injective on G, so |G| equals the number of residues.  The
hypotheses are checked where they are used: `_split_prime` draws p >= 2^21
with p = 1 (mod N) and skips every prime that divides a generator
denominator; finiteness is certified when the residue closure completes.

The orbit certificate.  On completion `close` closes the orbit of
e_1..e_r under the generators exactly over K.  A finite orbit is a spanning
set that every generator maps injectively into itself, hence permutes, so G
embeds in its symmetric group and is finite.  A finite G has an orbit of at
most r·|G| vectors, and |G| is the residue count by the lemma; an orbit
that outgrows that bound therefore proves G infinite, and `close` returns
False.

Scalars.  `close` also raises GroupError if p divides |G|.  When it does
not, every g in G has order prime to p, so its minimal polynomial divides a
separable x^m - 1 and reduction is injective on its eigenvalues (m-th
roots of unity): g is scalar iff its residue is.  The same holds for any
finite group of block restrictions, whose order divides |G|, so scalar and
block-scalar tests read residues.  Centers read residues by injectivity
alone (gh and hg both lie in G).

Block masks.  Let every generator permute the blocks of a decomposition
(checked exactly), so every element does.  Around each cycle of an
element's block permutation, the product of its nonzero blocks is a
diagonal block of a power of the element, whose determinant is a root of
unity; so each nonzero block has a 𝔭-unit determinant and reduces to a
nonzero block.  Hence the block mask of a residue is the exact block mask.

Projective classes are decided here and nowhere else, by this lemma.  Let L
be a finite matrix group and Z = L ∩ K*·I its scalar subgroup.  For g, h in
L, g = c·h with c in K* implies c·I = g·h^-1 in L, so c·I lies in Z.  Hence
the PGL classes of L are the cosets gZ, each of size |Z|, and
|L / scalars| = |L| / |Z|.  `projective_order` uses the count;
`scalar_cosets` lists the cosets and raises if one of them does not have
exactly |Z| members of L.

Invariant dimensions read residues, by the rank-trace lemma.  Let G be
finite with p ∤ |G|, e >= 0 and M = C(r+e-1, e) = dim Sym^e.  The entries
of Sym^e(g) are integer polynomials in those of g, so the Reynolds operator
R = |G|^-1 sum_g Sym^e(g) is 𝔭-integral; R^2 = R, so its reduction is an
idempotent over F_p, whose rank is its trace mod p, and tr R =
dim (Sym^e)^G.  Molien's coefficient of t^e in |G|^-1 sum_g 1/det(I - t g)
is the same trace, and Newton's identities divide only by k <= r < p.  Both
integers lie in [0, M], so once p > M the F_p rank of sum_g Sym^e(g mod p)
and the Molien residue each equal dim (Sym^e)^G.  `_invariant_space` checks
that G is closed, p ∤ |G| and p > M; the Molien residue must lie in
[0, M], and method "both" compares the rank with the trace.

Irreducibility reads residues, by the residue Burnside lemma (Burnside;
Serre, "Linear Representations of Finite Groups", §15.5; Reiner, "Maximal
Orders", Thm 41.1).  Let L be a finite group of s x s matrices with
𝔭-integral entries, p ∤ |L|, and O_𝔭 the local ring of K at 𝔭.  Then the
K-span of L is M_s(K) (L is absolutely irreducible, by Burnside) iff the
residues of L span M_s(F_p).  If the residues span, s^2 of them are
independent over F_p, so their lifts are independent over K: rank cannot
rise under reduction.  Conversely, let L span M_s(K).  As p ∤ |L|, the
group ring O_𝔭[L] is a maximal order of K[L].  K[L] maps onto M_s(K), one
of its simple components, so the image Λ, the O_𝔭-span of L, is a maximal
order of M_s(K).  Λ lies in the order M_s(O_𝔭), so Λ = M_s(O_𝔭), which
reduces onto M_s(F_p).  The hypotheses
hold for the restrictions L_ij of block stabilizers in `structure`: their
entries are 𝔭-integral, and |L_ij| divides |G|, which `close` checks is
prime to p (a closed restriction group checks its own order).

`elements()` replays the BFS tree exactly, one ExactMatrix product per
element.  Nothing in formaut calls it: it is the exact reference of the
tests, and the benchmark tracer (bench/spans.py) wraps it by name.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations_with_replacement
from math import comb, lcm

import numpy as np

from .cyclotomic import CycNum
from .forms import ExactMatrix, Form, act
from .smoothness import GF, good_primes

DEFAULT_CAP = 1 << 21


class GroupError(ValueError):
    pass


def matrices_conductor(mats) -> int:
    n = 1
    for m in mats:
        for row in m.entries:
            for c in row:
                n = lcm(n, c.n)
    return n


def _split_prime(conductor: int, den: int) -> int:
    """The first seeded prime p = 1 (mod conductor), p >= 2^21, not dividing den.

    At most den.bit_length() // 21 primes of that size divide den, so one
    more draw than that always leaves a prime.
    """
    primes = good_primes(conductor, 1 + den.bit_length() // 21, lo=1 << 21)
    return next(p for p in primes if den % p)


def _mulmod(a, b, p):
    return (a.astype(np.int64) @ b % p).astype(np.int32)


def _is_block_scalar(arr, block_sizes):
    """Off-diagonal entries vanish and each diagonal block is a scalar matrix.

    Works on the last two axes, so a stack of matrices gives a boolean array.
    """
    starts = np.cumsum([0] + list(block_sizes[:-1]))
    lead = np.repeat(arr[..., starts, starts], block_sizes, axis=-1)
    return (arr == lead[..., None] * np.eye(arr.shape[-1], dtype=int)).all(axis=(-2, -1))


class MatGroup:
    """A finitely generated matrix group over a cyclotomic field."""

    def __init__(self, generators, conductor=None):
        gens = list(generators)
        if not gens:
            raise GroupError("need at least one generator")
        dim = gens[0].dim
        if any(g.dim != dim for g in gens):
            raise GroupError("generators must share a dimension")
        for g in gens:
            if not g.is_invertible():
                raise GroupError("generator is singular")
        self.dim = dim
        self.generators = gens
        self.conductor = conductor or matrices_conductor(gens)
        den = lcm(*(c.den for g in gens for row in g.entries for c in row))
        self.p = _split_prime(self.conductor, den)      # the reduction lemma's hypotheses
        if self.p >= 1 << 31 or dim * (self.p - 1) ** 2 >= 1 << 63:
            raise GroupError("prime %d is too large for int64 residue products" % self.p)
        self._field = GF(self.p, self.conductor)
        self._gens = np.stack([self._reduce(g) for g in gens])
        ident = np.eye(dim, dtype=np.int32).tobytes()
        self._index = {ident: 0}    # residue key -> element index
        self._keys = [ident]        # element index -> residue key
        self._parent = [-1]         # element index -> BFS parent index
        self._gen = [-1]            # element index -> generator index
        self._frontier = deque([0])
        self.closed = False

    def _reduce(self, m: ExactMatrix):
        return np.array([[self._field.from_cyc(c) for c in row] for row in m.entries], dtype=np.int64)

    def key(self, m: ExactMatrix) -> bytes:
        """Residue key of an exact matrix with entries in the group's field."""
        return self._reduce(m).astype(np.int32).tobytes()

    # -- closure -----------------------------------------------------------

    def close(self, cap: int = DEFAULT_CAP) -> bool:
        """BFS closure under right multiplication; True when complete.

        Stops as soon as more than `cap` elements are stored.  The element
        being expanded stays at the head of the queue, so a later call with a
        larger cap resumes where this one stopped.  On completion the orbit
        certificate must hold (else False: G is infinite) and p must not
        divide |G| (else GroupError); see the module docstring.
        """
        if self.closed:
            return True
        if len(self._keys) > cap:
            return False
        r, p = self.dim, self.p
        while self._frontier:
            head = self._frontier[0]
            residue = np.frombuffer(self._keys[head], dtype=np.int32).reshape(r, r)
            for gi, prod in enumerate(_mulmod(residue, self._gens, p)):
                key = prod.tobytes()
                if key not in self._index:
                    self._index[key] = len(self._keys)
                    self._frontier.append(len(self._keys))
                    self._keys.append(key)
                    self._parent.append(head)
                    self._gen.append(gi)
                    if len(self._keys) > cap:
                        return False
            self._frontier.popleft()
        if not self._orbit_is_finite(r * len(self._keys)):
            return False                # the orbit certificate: G is infinite
        if len(self._keys) % p == 0:    # residues could no longer tell scalars apart
            raise GroupError("p = %d divides |G| = %d" % (p, len(self._keys)))
        self.closed = True
        return True

    def _orbit_is_finite(self, bound: int) -> bool:
        """Close the orbit of e_1..e_r exactly; False once it has more than bound vectors."""
        n, r = self.conductor, self.dim
        gens = [[[(k, c.to_conductor(n)) for k, c in enumerate(row) if not c.is_zero()]
                 for row in g.entries] for g in self.generators]
        one, zero = CycNum.one(n), CycNum.zero(n)
        frontier = [tuple(one if i == j else zero for i in range(r)) for j in range(r)]
        seen = {tuple((c.num, c.den) for c in v) for v in frontier}
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = []
                for row in g:
                    acc = zero
                    for k, a in row:
                        if not v[k].is_zero():
                            acc = acc + a * v[k]
                    w.append(acc)
                key = tuple((c.num, c.den) for c in w)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > bound:
                        return False
                    frontier.append(tuple(w))
        return True

    def _require_closed(self):
        if not self.closed:
            raise GroupError("group is not closed; call close() first")

    @property
    def order(self) -> int:
        self._require_closed()
        return len(self._keys)

    def residues(self):
        """Residue matrices (read-only int32) of the elements stored so far, in BFS order."""
        for key in self._keys:
            yield np.frombuffer(key, dtype=np.int32).reshape(self.dim, self.dim)

    def _stacks(self, size: int = 4096):
        """Yield (offset, stack): the next at most `size` residues as one (m, r, r) array."""
        for start in range(0, len(self._keys), size):
            blob = b"".join(self._keys[start:start + size])
            yield start, np.frombuffer(blob, dtype=np.int32).reshape(-1, self.dim, self.dim)

    def element(self, i: int) -> ExactMatrix:
        """Element i as an exact matrix, replayed along its BFS tree path."""
        path = []
        while i:
            path.append(self._gen[i])
            i = self._parent[i]
        m = ExactMatrix.identity(self.dim)
        for gi in reversed(path):
            m = m * self.generators[gi]
        return m

    def elements(self):
        """All elements as exact matrices, one product per element (BFS replay).

        Parent indices never decrease along the BFS order, so only the
        elements from the current parent on are kept.
        """
        self._require_closed()
        window = deque([(0, ExactMatrix.identity(self.dim))])
        yield window[0][1]
        for i in range(1, len(self._keys)):
            while window[0][0] < self._parent[i]:
                window.popleft()
            m = window[0][1] * self.generators[self._gen[i]]
            window.append((i, m))
            yield m

    def contains(self, m: ExactMatrix) -> bool:
        self._require_closed()
        reduced = []
        for row in m.entries:
            out_row = []
            for c in row:
                c = c.reduce()
                if self.conductor % c.n or c.den % self.p == 0:
                    return False        # outside the field, or not 𝔭-integral
                out_row.append(c)
            reduced.append(out_row)
        i = self._index.get(self.key(ExactMatrix(reduced)))
        return i is not None and self.element(i) == m

    # -- structure helpers ---------------------------------------------------

    def projective_order(self) -> int:
        """|G / scalars| = |G| / |G ∩ K*·I| (the scalar-coset lemma)."""
        self._require_closed()
        scalars = sum(int(_is_block_scalar(stack, [self.dim]).sum()) for _, stack in self._stacks())
        return self.order // scalars

    def center(self) -> MatGroup:
        """Subgroup commuting with every generator (hence with the group), closed on its own."""
        self._require_closed()
        members = []
        for start, stack in self._stacks():
            stack = stack[:, None]
            commute = (_mulmod(stack, self._gens, self.p) == _mulmod(self._gens, stack, self.p))
            members.extend(start + np.flatnonzero(commute.all(axis=(1, 2, 3))))
        return closure([self.element(i) for i in members], conductor=self.conductor)

    def __repr__(self):
        state = "order %d" % len(self._keys) if self.closed else "open"
        return "MatGroup(dim=%d, conductor=%d, %s)" % (self.dim, self.conductor, state)


def scalar_cosets(residues, p: int):
    """PGL classes of a finite group L given by its residues mod p.

    By the scalar-coset lemma (module docstring) the classes are the cosets
    gZ of Z = L ∩ K*·I.  Returns (class_of, reps): class_of maps each
    residue key to its class number and reps[c] is the first residue of
    class c.  Raises GroupError if some gZ does not consist of exactly |Z|
    elements of L that lie in no earlier coset (then `residues` is not a
    group).
    """
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


def scalar_group(dim: int, d: int) -> MatGroup:
    """The order-d group generated by zeta_d * I."""
    from .cyclotomic import root_of_unity
    g = MatGroup([ExactMatrix.scalar(dim, root_of_unity(d))])
    g.close()
    return g


def closure(generators, cap: int = DEFAULT_CAP, conductor=None) -> MatGroup:
    grp = MatGroup(generators, conductor=conductor)
    grp.close(cap)
    return grp


def preserves(group_or_gens, form: Form) -> bool:
    """True iff every generator fixes the form under the substitution action."""
    gens = group_or_gens.generators if isinstance(group_or_gens, MatGroup) else list(group_or_gens)
    return all(act(form, g) == form for g in gens)


# -- invariant dimensions ------------------------------------------------------

SYM_BYTES = 256 << 10   # int64 bytes per Reynolds stack (or one element); small stacks keep peak RSS down


def _monomials(nvars: int, degree: int):
    return [tuple(c.count(i) for i in range(nvars))
            for c in combinations_with_replacement(range(nvars), degree)]


def _invariant_space(group: MatGroup, degree: int) -> int:
    """M = dim Sym^e, once the rank-trace lemma's hypotheses are checked."""
    order = group.order                 # GroupError unless the group is closed
    size = comb(group.dim + degree - 1, degree)
    if group.p <= size or order % group.p == 0:
        raise GroupError("p = %d must exceed dim Sym^%d = %d and not divide |G| = %d"
                         % (group.p, degree, size, order))
    return size


def _symmetric_power_maps(nvars: int, degree: int):
    """Per degree d: x^s = x_first[s] * x^source[s], and down[k][t] indexes x^t / x_k in degree
    d-1, or a zero row past the end when x_k does not divide x^t."""
    maps, prev = [], {(0,) * nvars: 0}
    for d in range(1, degree + 1):
        monos = _monomials(nvars, d)
        first = [next(k for k, a in enumerate(s) if a) for s in monos]
        source = [prev[s[:i] + (s[i] - 1,) + s[i + 1:]] for s, i in zip(monos, first)]
        down = [[prev.get(t[:k] + (t[k] - 1,) + t[k + 1:], len(prev)) for t in monos]
                for k in range(nvars)]
        maps.append((first, source, down))
        prev = {s: j for j, s in enumerate(monos)}
    return maps


def _symmetric_powers(stack, maps, p: int):
    """Sym^e(g) mod p for each residue g of the stack: shape (m, M, M), column s the image of x^s.

    One multiply-add per variable and degree: [x^t] g(x^s) = sum_k g[first, k] [x^t / x_k] g(x^source).
    The r products are summed before one reduction: r·(p-1)^2 < 2^63, checked at construction.
    """
    m = len(stack)
    stack = stack.astype(np.int64)
    sym = np.ones((m, 1, 1), dtype=np.int64)
    for first, source, down in maps:
        padded = np.concatenate([sym[:, :, source], np.zeros((m, 1, len(source)), np.int64)], axis=1)
        out = np.zeros((m, len(source), len(source)), dtype=np.int64)
        for k, rows in enumerate(down):
            out += np.take(padded, rows, axis=1) * stack[:, first, k][:, None, :]
        sym = out % p
    return sym


def _rank_mod_p(a, p: int) -> int:
    """Rank of an integer matrix over F_p, by row reduction."""
    a = a % p
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        piv = rank + nonzero[0]
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        a[rank + 1:] = (a[rank + 1:] - a[rank + 1:, col, None] * a[rank]) % p
        rank += 1
    return rank


def invariant_dimension_reynolds(group: MatGroup, degree: int) -> int:
    """F_p rank of sum_g Sym^e(g mod p), the Reynolds operator times |G| (rank-trace lemma)."""
    size = _invariant_space(group, degree)
    maps = _symmetric_power_maps(group.dim, degree)
    total = np.zeros((size, size), dtype=np.int64)
    for _, stack in group._stacks(max(1, SYM_BYTES // (8 * size * size))):
        total = (total + _symmetric_powers(stack, maps, group.p).sum(axis=0)) % group.p
    return _rank_mod_p(total, group.p)


def invariant_dimension_molien(group: MatGroup, degree: int) -> int:
    """Coefficient of t^e in (1/|G|) sum_g 1/det(I - t g), mod p (rank-trace lemma).

    det(I - t g) = sum_k c_k t^k comes from the power traces s_i = tr g^i by
    Newton's identities, k c_k = -sum_{i<=k} c_{k-i} s_i, which divide only
    by k <= r < p.  Each sum has at most r products of residues, so it stays
    below 2^63 (checked when the group is built).
    """
    size = _invariant_space(group, degree)
    p, r = group.p, group.dim
    total = 0
    for _, stack in group._stacks():
        stack = stack.astype(np.int64)
        traces, power = [], stack
        for _ in range(r):
            traces.append(np.trace(power, axis1=1, axis2=2) % p)
            power = power @ stack % p
        det = [np.ones(len(stack), dtype=np.int64)]
        for k in range(1, r + 1):
            acc = -sum(det[k - i] * traces[i - 1] for i in range(1, k + 1)) % p
            det.append(acc * pow(k, -1, p) % p)
        series = [det[0]]               # the power series inverse of det(I - t g)
        for k in range(1, degree + 1):
            series.append(-sum(det[i] * series[k - i] for i in range(1, min(k, r) + 1)) % p)
        total += int(series[degree].sum())
    value = total * pow(group.order, -1, p) % p
    if value > size:
        raise ArithmeticError("Molien residue %d lies outside [0, %d]" % (value, size))
    return value


def invariant_dimension(group: MatGroup, degree: int, method: str = "both") -> int:
    """Dimension of degree-e invariants; 'both' cross-checks the two routes."""
    if method == "reynolds":
        return invariant_dimension_reynolds(group, degree)
    if method == "molien":
        return invariant_dimension_molien(group, degree)
    if method == "both":
        a = invariant_dimension_reynolds(group, degree)
        b = invariant_dimension_molien(group, degree)
        if a != b:
            raise ArithmeticError("Reynolds (%d) and Molien (%d) disagree" % (a, b))
        return a
    raise GroupError("unknown method %r" % method)


# -- file formats ----------------------------------------------------------------


def generators_from_json(text: str):
    payload = json.loads(text)
    dim = payload["dim"]
    gens = []
    for entries in payload["generators"]:
        m = ExactMatrix([[c for c in row] for row in entries])
        if m.dim != dim:
            raise GroupError("generator dimension mismatch")
        gens.append(m)
    if not gens:
        raise GroupError("no generators")
    return gens


def generators_to_json(gens) -> str:
    from .cyclotomic import scalar_to_str
    return json.dumps({
        "dim": gens[0].dim,
        "generators": [[[scalar_to_str(c) for c in row] for row in g.entries] for g in gens],
    })
