"""Finite matrix groups over cyclotomic fields: closure, order, invariants.

Closure runs on residues.  Let K = Q(zeta_N) with N the conductor of the
generators, and p a prime with p = 1 (mod N): p is unramified and splits in
K, so a prime 𝔭 of K above p has residue field F_p and the generators
reduce entrywise to r x r matrices over F_p (`smoothness.GF`).  `close` is
one `Orbit` of the identity's residue under right multiplication, each
element stored once as the int32 bytes of its residue.  It is not
resumable: a later call after a capped one starts again from the identity.

Orbits (Seress, "Permutation Group Algorithms", 2003, §4.1).  Every closure
in formaut is one `Orbit`: a BFS that stores each point once with a
Schreier vector (the index of its parent and of the map that reached it),
so `word(i)` spells a word from a seed to point i and `word_product`
replays it exactly.  The BFS steps a batch of up to BATCH points at a
time, so `close` makes one numpy product per batch of residues, but it
inserts points one at a time in the per-point order.  Schreier's lemma: if
G = <S> acts on the right and u_y maps x to y for each y in the orbit O of
x, then the products u_y·s·u_{y·s}^-1 (y in O, s in S) generate the
stabilizer of x; `schreier_generators` returns the u_y and, without
repeats, those products.

The reduction lemma (Minkowski; Serre, "Bounds for the orders of the finite
subgroups of G(k)", 2007; Detinko-Flannery-O'Brien, J. Symb. Comput. 50,
2013).  If p is odd, p = 1 (mod N), p divides no denominator of a generator
entry and G is finite, then every element of G is 𝔭-integral and reduction
mod 𝔭 is injective on G, so |G| equals the number of residues.  The
hypotheses are checked where they are used: `smoothness.split_prime` draws
p >= 2^21 with p = 1 (mod N) and skips every prime that divides a generator
denominator; finiteness is certified when the residue closure completes.

The orbit certificate.  On completion `close` closes one orbit of vectors
exactly over K.  A finite orbit that spans K^r is a spanning set that every
generator maps injectively into itself, hence permutes, so G embeds in its
symmetric group and is finite.  Nothing in this argument depends on where
the seed came from, so any vector may seed the orbit.  The seed is a root
first: the first column with a nonzero residue of g - I, for the first
residue g in BFS order whose g - I has F_p rank 1 (a reflection's root has
a small orbit: 84 vectors for Klein's quartic against 672 from the
coordinate vectors).  The BFS stores the generators first, so a group with
a reflection among its generators takes its root from that generator, and
g itself is replayed exactly by `word_product` along its word.  A single
seed's orbit under a finite G has at most |G| vectors, and |G| is the
residue count by the lemma, so the root orbit runs under that cap.  Its
span is read on residues: every vector in it is a product of 𝔭-integral
generators applied to a 𝔭-integral seed, so it is 𝔭-integral, and if the
residues of the orbit have F_p rank r, some r x r minor of the orbit has a
nonzero residue, hence is nonzero over K, and the orbit spans K^r.  When no
residue has rank-1 g - I, or the root orbit outgrows its cap or its
residues have rank < r (a finite orbit that does not span proves nothing),
the orbit of e_1..e_r decides.  It always spans; a finite G gives it at
most r·|G| vectors, so an orbit that outgrows that bound proves G infinite,
and `close` returns False.

The prime lemma.  Let G <= GL_r(K) be finite and q a prime dividing |G|.
An element of order q has a primitive q-th root of unity as an eigenvalue,
so [K(zeta_q) : K] <= r, and that degree is q - 1 when q ∤ N: q <= max(r + 1,
N).  `split_prime` gives p = 1 (mod N), so p > N, and `MatGroup` refuses
p <= r + 1.  So p ∤ |G|, and p ∤ |L| for every finite L <= GL_s(K), s <= r.

Scalars.  By the prime lemma every g in a finite G, or in a finite group
of block restrictions, has order prime to p, so its minimal polynomial
divides a separable x^m - 1 and reduction is injective on its eigenvalues
(m-th roots of unity): g is scalar iff its residue is.  So scalar and
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
|L / scalars| = |L| / |Z|; `projective_order` reads Z off the stored
residues one `_stacks()` stack at a time, one scalar test per stack.
`pgl_keys` names the classes by the normalised-residue lemma.  Let L be
closed, so finite with p ∤ |L| (the prime lemma), and g, h in L.  The
residue of g·h^-1 (in L) is scalar iff g·h^-1 is (the scalar paragraph),
iff g and h share a PGL class; and it is c·I iff the residue of g is c
times that of h, iff the two agree once divided by their first nonzero entry.

Invariant dimensions read residues, by the fixed-space lemma (Derksen-Kemper,
"Computational Invariant Theory", 2002; Sturmfels, "Algorithms in Invariant
Theory", 2008).  Let G = <S> be closed, p ∤ |G| (the prime lemma) and
p > M = C(r+e-1, e) = dim Sym^e.  Sym^e(g) has integer polynomial entries in
those of g, so R = |G|^-1 sum_g Sym^e(g) is 𝔭-integral, and R^2 = R reduces
to an idempotent over F_p.  Its image is the fixed space of G mod 𝔭 (h·R = R
for every residue h, and R fixes what G fixes), which is the common fixed
space of the generator residues; its rank is its trace mod p, and
tr R = dim (Sym^e)^G lies in [0, M].  So dim (Sym^e)^G is M minus the
F_p rank of Sym^e(s mod p) - I stacked over s in S.  Molien's coefficient
of t^e in |G|^-1 sum_g 1/det(I - t g) is the same trace, summed over every
element; Newton's identities divide only by k <= r < p.  `_invariant_space`
checks the hypotheses; the Molien residue must lie in [0, M], and method
"both" compares the fixed space with the trace.

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
entries are 𝔭-integral, and p ∤ |L_ij| by the prime lemma.

`elements()` replays the BFS tree exactly, one ExactMatrix product per
element.  Nothing in formaut calls it: it is the exact reference of the
tests, and the benchmark tracer (bench/spans.py) wraps it by name.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations_with_replacement
from math import comb, lcm

import numpy as np

from .cyclotomic import CycNum, conductor
from .forms import ExactMatrix, Form, act
from .smoothness import GF, split_prime

DEFAULT_CAP = 1 << 21
BATCH = 1024            # points per Orbit step: one numpy product per batch, peak RSS kept flat


class GroupError(ValueError):
    pass


def _mulmod(a, b, p):
    return (a.astype(np.int64) @ b % p).astype(np.int32)


def _row_keys(arr) -> list[list[bytes]]:
    """The bytes of each arr[i, k] as a key, one list per i, sliced from one tobytes() blob."""
    blob, size = arr.tobytes(), arr[0, 0].nbytes
    keys = [blob[o:o + size] for o in range(0, len(blob), size)]
    return [keys[o:o + arr.shape[1]] for o in range(0, len(keys), arr.shape[1])]


def _is_block_scalar(arr, block_sizes):
    """Off-diagonal entries vanish and each diagonal block is a scalar matrix.

    Works on the last two axes, so a stack of matrices gives a boolean array.
    """
    starts = np.cumsum([0] + list(block_sizes[:-1]))
    lead = np.repeat(arr[..., starts, starts], block_sizes, axis=-1)
    return (arr == lead[..., None] * np.eye(arr.shape[-1], dtype=int)).all(axis=(-2, -1))


class Orbit:
    """The orbit of `seeds` under maps, stored in BFS order with a Schreier vector.

    `step(batch)` takes a list of at most BATCH points, in BFS order, and
    returns their image lists, one image per map and point.  Each point is
    stored once, and points are inserted one at a time in BFS order, exactly
    as a per-point walk would: index[points[i]] = i and points[i] is image
    gen[i] of points[parent[i]] (parent and gen are -1 at a seed).  The BFS
    stops as soon as more than `cap` points are stored; `complete` says
    whether it ran to the end.  A batch holds at most BATCH·(number of maps)
    images besides the stored points, so batching adds a bounded amount of
    memory on top of the orbit itself.
    """

    def __init__(self, seeds, step, cap: int | None = None):
        self.step = step
        self.points, self.index, self.parent, self.gen = [], {}, [], []
        self.complete = False
        for x in seeds:
            if x not in self.index and not self._add(x, -1, -1, cap):
                return
        for head, images in self.images():
            for g, y in enumerate(images):
                if y not in self.index and not self._add(y, head, g, cap):
                    return
        self.complete = True

    def images(self):
        """Yield (i, the images of points[i]) in BFS order, one `step` call per batch.

        The list may grow while it is walked: a batch is the points stored
        when it starts.
        """
        head = 0
        while head < len(self.points):
            batch = self.points[head:head + BATCH]
            yield from enumerate(self.step(batch), head)
            head += len(batch)

    def _add(self, x, parent: int, gen: int, cap) -> bool:
        """Store a new point; False once more than `cap` points are stored."""
        self.index[x] = len(self.points)
        self.points.append(x)
        self.parent.append(parent)
        self.gen.append(gen)
        return cap is None or len(self.points) <= cap

    def word(self, i: int) -> list[int]:
        """The map indices that lead from a seed to points[i], in the order they apply."""
        word = []
        while self.parent[i] >= 0:
            word.append(self.gen[i])
            i = self.parent[i]
        return word[::-1]


def word_product(gens, word) -> ExactMatrix:
    """The exact product gens[word[0]] * gens[word[1]] * ... (the identity for an empty word)."""
    m = ExactMatrix.identity(gens[0].dim)
    for gi in word:
        m = m * gens[gi]
    return m


def schreier_generators(orbit: Orbit, gens) -> tuple[list[ExactMatrix], list[ExactMatrix]]:
    """(the transversal, the stabilizer's generators) for the orbit's one seed: Schreier's lemma.

    The images of x must be x·gens[k], k = 0, 1, ..., for a right action;
    the transversal holds u_y, the word_product along y's word, in orbit order.
    """
    reps = [word_product(gens, orbit.word(i)) for i in range(len(orbit.points))]
    invs = [u.inverse() for u in reps]
    out = []
    for i, images in orbit.images():
        for g, y in zip(gens, images):
            s = reps[i] * g * invs[orbit.index[y]]
            if s not in out:
                out.append(s)
    return reps, out


class MatGroup:
    """A finitely generated matrix group over a cyclotomic field."""

    def __init__(self, generators):
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
        self.conductor = conductor(c for g in gens for row in g.entries for c in row)
        den = lcm(*(c.den for g in gens for row in g.entries for c in row))
        self.p = split_prime(self.conductor, den, lo=1 << 21)   # the reduction lemma's hypotheses
        if self.p >= 1 << 31 or dim * (self.p - 1) ** 2 >= 1 << 63:
            raise GroupError("prime %d is too large for int64 residue products" % self.p)
        if self.p <= dim + 1:
            raise GroupError("p = %d must exceed r + 1 = %d (the prime lemma)" % (self.p, dim + 1))
        self._field = GF(self.p, self.conductor)
        self._gens = np.stack([self._reduce(g) for g in gens])
        self._orbit = Orbit([], None)   # the elements' residue keys: none until close()
        self.closed = False

    def _reduce(self, m: ExactMatrix):
        return np.array([[self._field.from_cyc(c) for c in row] for row in m.entries], dtype=np.int64)

    # -- closure -----------------------------------------------------------

    def close(self, cap: int = DEFAULT_CAP) -> bool:
        """BFS closure under right multiplication; True when complete.

        One `Orbit` of the identity's residue key, which stops as soon as
        more than `cap` elements are stored.  A later call recomputes from
        scratch.  On completion the orbit certificate must hold (else False:
        G is infinite); see the module docstring.
        """
        if self.closed:
            return True
        r, p, gens = self.dim, self.p, self._gens      # the orbit keeps step: no cycle through self

        def step(keys):             # (m, 1, r, r) residues against the (g, r, r) generators
            residues = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(-1, 1, r, r)
            return _row_keys(_mulmod(residues, gens, p))

        self._orbit = Orbit([np.eye(r, dtype=np.int32).tobytes()], step, cap)
        if not self._orbit.complete or not self._orbit_is_finite(len(self._orbit.points)):
            return False                # cap exceeded, or the orbit certificate: G is infinite
        self.closed = True
        return True

    def _orbit_is_finite(self, order: int) -> bool:
        """The orbit certificate (module docstring) for a residue closure of `order` elements.

        First the orbit of a root: the first column with a nonzero residue of
        g - I, for the first residue g in BFS order (`_first_reflection`)
        whose g - I has F_p rank 1, with g replayed exactly along its word.
        Any seed serves the certificate, so the root may come from anywhere
        in the closure.  It is accepted when it completes within |G| vectors
        (the single-seed bound) and the residues of its vectors have F_p rank
        r.  Otherwise the orbit of e_1..e_r decides, and is False once it has
        more than r·|G| vectors.
        A vector is stored as its coordinates' (num, den) at the conductor,
        and each coordinate of an image is one CycNum.dot.
        """
        n, r, p = self.conductor, self.dim, self.p
        gens = [[[(k, c.to_conductor(n)) for k, c in enumerate(row) if not c.is_zero()]
                 for row in g.entries] for g in self.generators]
        one, zero = CycNum.one(n), CycNum.zero(n)

        def key(vector):
            return tuple((c.num, c.den) for c in vector)

        def images(point):
            v = [CycNum(n, num, den) if any(num) else None for num, den in point]
            return [key(CycNum.dot([(a, v[k]) for k, a in row if v[k] is not None], n) for row in g)
                    for g in gens]

        def step(batch):
            return [images(x) for x in batch]

        found = self._first_reflection()
        if found is not None:
            index, col = found
            g = word_product(self.generators, self._orbit.word(index))
            seed = key(g.entries[i][col] - (one if i == col else zero) for i in range(r))
            orbit = Orbit([seed], step, order)
            if orbit.complete:
                reduce = self._field.from_cyc
                residues = np.array([[reduce(CycNum(n, num, den)) for num, den in x] for x in orbit.points],
                                    dtype=np.int64)
                if _rank_mod_p(residues, p) == r:
                    return True
        units = [key(one if i == j else zero for i in range(r)) for j in range(r)]
        return Orbit(units, step, r * order).complete

    def _first_reflection(self):
        """(i, l) for the first stored residue g, in BFS order, whose A = g - I has F_p rank 1; else None.

        l is the column of A's first nonzero entry A[k, l] in row-major order,
        which for rank 1 is its first nonzero column.  A has rank 1 iff A != 0
        and A·A[k, l] = A[:, l] ⊗ A[k, :] (mod p): every row is then a multiple
        of row k.  The entries are below p < 2^31, so each product fits int64.
        The residues are read one `_stacks()` stack at a time, stopping at the first hit.
        """
        r, p = self.dim, self.p
        for start, stack in self._stacks():
            a = (stack - np.eye(r, dtype=np.int64)) % p
            flat = a.reshape(len(a), -1)
            k, l = divmod((flat != 0).argmax(axis=1), r)
            m = np.arange(len(a))
            outer = a[m, :, l][:, :, None] * a[m, k, :][:, None, :]
            rank1 = flat.any(axis=1) & ((a * a[m, k, l][:, None, None] - outer) % p == 0).all(axis=(1, 2))
            hits = np.flatnonzero(rank1)
            if hits.size:
                return start + int(hits[0]), int(l[hits[0]])
        return None

    def _require_closed(self):
        if not self.closed:
            raise GroupError("group is not closed; call close() first")

    @property
    def order(self) -> int:
        self._require_closed()
        return len(self._orbit.points)

    def _stacks(self):
        """Yield (offset, stack): the next at most BATCH residues as one (m, r, r) array."""
        keys = self._orbit.points
        for start in range(0, len(keys), BATCH):
            blob = b"".join(keys[start:start + BATCH])
            yield start, np.frombuffer(blob, dtype=np.int32).reshape(-1, self.dim, self.dim)

    def elements(self):
        """All elements as exact matrices, one product per element (BFS replay).

        Parent indices never decrease along the BFS order, so only the
        elements from the current parent on are kept.
        """
        self._require_closed()
        parent, gen = self._orbit.parent, self._orbit.gen
        window = deque([(0, ExactMatrix.identity(self.dim))])
        yield window[0][1]
        for i in range(1, len(parent)):
            while window[0][0] < parent[i]:
                window.popleft()
            m = window[0][1] * self.generators[gen[i]]
            window.append((i, m))
            yield m

    # -- structure helpers ---------------------------------------------------

    def projective_order(self) -> int:
        """|G / scalars| = |G| / |G ∩ K*·I| (the scalar-coset lemma)."""
        self._require_closed()
        scalars = sum(int(_is_block_scalar(stack, [self.dim]).sum()) for _, stack in self._stacks())
        return self.order // scalars

    def center_order(self) -> int:
        """|Z(G)|: the residues that commute with every generator residue (exact by injectivity)."""
        self._require_closed()
        count = 0
        for _, stack in self._stacks():
            stack = stack[:, None]
            commute = (_mulmod(stack, self._gens, self.p) == _mulmod(self._gens, stack, self.p))
            count += int(commute.all(axis=(1, 2, 3)).sum())
        return count

    def __repr__(self):
        state = "order %d" % self.order if self.closed else "open"
        return "MatGroup(dim=%d, conductor=%d, %s)" % (self.dim, self.conductor, state)


def pgl_keys(stack, p: int) -> list[bytes]:
    """The int32 bytes of each residue of an (m, s, s) stack divided by its first nonzero entry.

    On the residues of a closed group these keys name the PGL classes (the
    normalised-residue lemma, module docstring).
    """
    flat = stack.reshape(len(stack), -1).astype(np.int64)
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    values, where = np.unique(lead, return_inverse=True)
    inverse = np.array([pow(int(a), -1, p) for a in values], dtype=np.int64)[where]
    return _row_keys((flat * inverse[:, None] % p).astype(np.int32)[None])[0]


def closure(generators, cap: int = DEFAULT_CAP) -> MatGroup:
    grp = MatGroup(generators)
    grp.close(cap)
    return grp


def preserves(gens, form: Form) -> bool:
    """True iff every generator fixes the form under the substitution action."""
    return all(act(form, g) == form for g in gens)


# -- invariant dimensions ------------------------------------------------------

SYM_MAX_BYTES = 32 << 20    # int64 bytes of the |S| stacked M x M Reynolds arrays; a larger stack is refused


def _monomials(nvars: int, degree: int):
    return [tuple(c.count(i) for i in range(nvars))
            for c in combinations_with_replacement(range(nvars), degree)]


def _invariant_space(group: MatGroup, degree: int) -> int:
    """M = dim Sym^e, once the fixed-space lemma's hypotheses are checked."""
    group._require_closed()
    size = comb(group.dim + degree - 1, degree)
    if group.p <= size:
        raise GroupError("p = %d must exceed dim Sym^%d = %d" % (group.p, degree, size))
    return size


def _symmetric_powers(stack, degree: int, p: int):
    """Sym^e(g) mod p for each residue g of the stack: shape (m, M, M), column s the image of x^s.

    Degree by degree, x^s = x_first[s]·x^source[s], so one multiply-add per variable gives
    [x^t] g(x^s) = sum_k g[first, k]·[x^t / x_k] g(x^source), a zero row where x_k does not divide x^t.
    The r products are summed before one reduction: r·(p-1)^2 < 2^63, checked at construction.
    """
    m, r = stack.shape[:2]
    stack = stack.astype(np.int64)
    sym, prev = np.ones((m, 1, 1), dtype=np.int64), {(0,) * r: 0}
    for d in range(1, degree + 1):
        monos = _monomials(r, d)
        first = [next(k for k, a in enumerate(s) if a) for s in monos]
        source = [prev[s[:i] + (s[i] - 1,) + s[i + 1:]] for s, i in zip(monos, first)]
        padded = np.concatenate([sym[:, :, source], np.zeros((m, 1, len(monos)), np.int64)], axis=1)
        out = np.zeros((m, len(monos), len(monos)), dtype=np.int64)
        for k in range(r):
            down = [prev.get(t[:k] + (t[k] - 1,) + t[k + 1:], len(prev)) for t in monos]
            out += np.take(padded, down, axis=1) * stack[:, first, k][:, None, :]
        sym, prev = out % p, {s: j for j, s in enumerate(monos)}
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


def reynolds_array_bytes(dim: int, degree: int, count: int) -> int:
    """Bytes of `count` stacked M x M int64 arrays, M = dim Sym^degree; GroupError past SYM_MAX_BYTES."""
    size = comb(dim + degree - 1, degree)
    array_bytes = 8 * count * size * size
    if array_bytes > SYM_MAX_BYTES:
        raise GroupError("Reynolds at degree %d: %d stacked %d x %d int64 arrays take %d bytes, over the "
                         "%d-byte bound" % (degree, count, size, size, array_bytes, SYM_MAX_BYTES))
    return array_bytes


def invariant_dimension_reynolds(group: MatGroup, degree: int) -> int:
    """M minus the F_p rank of Sym^e(s mod p) - I stacked over the generators s (fixed-space lemma).

    The |S| symmetric powers are M x M int64 arrays, so a degree whose stack
    passes SYM_MAX_BYTES is refused before any of them is built.
    """
    size = _invariant_space(group, degree)
    reynolds_array_bytes(group.dim, degree, len(group._gens))
    sym = _symmetric_powers(group._gens, degree, group.p)
    sym -= np.eye(size, dtype=np.int64)
    return size - _rank_mod_p(sym.reshape(-1, size), group.p)


def invariant_dimension_molien(group: MatGroup, degree: int) -> int:
    """Coefficient of t^e in (1/|G|) sum_g 1/det(I - t g), mod p (fixed-space lemma).

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
