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

`elements()` is the exact export: it replays the BFS tree with one
ExactMatrix product per element, for the invariant routes.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from math import lcm

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
        """Subgroup commuting with every generator (hence with the group)."""
        self._require_closed()
        members = []
        for start, stack in self._stacks():
            stack = stack[:, None]
            commute = (_mulmod(stack, self._gens, self.p) == _mulmod(self._gens, stack, self.p))
            members.extend(start + np.flatnonzero(commute.all(axis=(1, 2, 3))))
        sub = MatGroup([self.element(i) for i in members], conductor=self.conductor)
        sub._keys = [sub.key(g) for g in sub.generators]
        sub._index = {key: i for i, key in enumerate(sub._keys)}
        sub._parent = [-1] + [0] * (len(members) - 1)     # members[0] is the identity
        sub._gen = list(range(len(members)))
        sub._frontier = deque()
        sub.closed = True
        return sub

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


def _monomials(nvars: int, degree: int):
    if nvars == 1:
        return [(degree,)]
    out = []
    for k in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - k):
            out.append((k,) + rest)
    return out


def _symmetric_power_matrix(matrix: ExactMatrix, degree: int, monomials, index):
    """Matrix of the action on degree-e monomials, built degree by degree."""
    n = matrix.dim
    linear = []
    for i in range(n):
        terms = {}
        for k in range(n):
            c = matrix.entries[i][k]
            if not c.is_zero():
                terms[tuple(1 if j == k else 0 for j in range(n))] = c
        linear.append(Form(n, terms, 1))
    images = {tuple([0] * n): Form(n, {tuple([0] * n): CycNum.one()}, 0)}
    for d in range(1, degree + 1):
        new_images = {}
        for mono in _monomials(n, d):
            i = next(k for k, e in enumerate(mono) if e)
            prev = tuple(e - (1 if k == i else 0) for k, e in enumerate(mono))
            new_images[mono] = images[prev] * linear[i]
        images = new_images
    cols = []
    for mono in monomials:
        img = images[mono]
        col = [img.terms.get(m, CycNum.zero()) for m in monomials]
        cols.append(col)
    # entries[row][col]
    return [[cols[j][i] for j in range(len(monomials))] for i in range(len(monomials))]


def _matrix_rank(rows) -> int:
    """Exact rank of a matrix with CycNum entries."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if not mat[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def invariant_dimension_reynolds(group: MatGroup, degree: int) -> int:
    """Rank of the group-averaging projector on the degree-e monomial basis."""
    if not group.closed:
        raise GroupError("group is not closed")
    monomials = _monomials(group.dim, degree)
    index = {m: i for i, m in enumerate(monomials)}
    size = len(monomials)
    total = [[CycNum.zero()] * size for _ in range(size)]
    for elem in group.elements():
        sym = _symmetric_power_matrix(elem, degree, monomials, index)
        for i in range(size):
            trow = total[i]
            srow = sym[i]
            for j in range(size):
                if not srow[j].is_zero():
                    trow[j] = trow[j] + srow[j]
    return _matrix_rank(total)


def _char_poly_rev(matrix: ExactMatrix):
    """Coefficients of det(I - t*M) by Newton's identities on power traces."""
    r = matrix.dim
    traces = []
    power = matrix
    for _ in range(r):
        traces.append(_trace(power))
        power = power * matrix
    es = [CycNum.one()]
    for k in range(1, r + 1):
        acc = CycNum.zero()
        for i in range(1, k + 1):
            term = es[k - i] * traces[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        es.append(acc * Fraction(1, k))
    return [es[k] if k % 2 == 0 else -es[k] for k in range(r + 1)]


def _trace(matrix: ExactMatrix) -> CycNum:
    acc = CycNum.zero()
    for i in range(matrix.dim):
        acc = acc + matrix.entries[i][i]
    return acc


def invariant_dimension_molien(group: MatGroup, degree: int) -> int:
    """Coefficient of t^e in (1/|G|) sum_g 1/det(I - t g), exact arithmetic."""
    if not group.closed:
        raise GroupError("group is not closed")
    e = degree
    total = [CycNum.zero()] * (e + 1)
    for elem in group.elements():
        poly = _char_poly_rev(elem)
        # power series inverse of det(I - t g) (constant term 1)
        inv = [CycNum.one()]
        for k in range(1, e + 1):
            acc = CycNum.zero()
            for i in range(1, min(k, len(poly) - 1) + 1):
                acc = acc + poly[i] * inv[k - i]
            inv.append(-acc)
        for k in range(e + 1):
            total[k] = total[k] + inv[k]
    coeff = total[e] * Fraction(1, group.order)
    val = coeff.as_fraction()
    if val.denominator != 1:
        raise ArithmeticError("Molien coefficient is not an integer")
    return int(val)


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
