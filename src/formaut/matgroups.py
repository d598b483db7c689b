"""Finite matrix groups over cyclotomic fields: closure, order, invariants.

Closure runs on residues.  Let K = Q(zeta_N) with N the conductor of the
generators, and p a prime with p = 1 (mod N): p is unramified and splits in
K, so a prime 𝔭 of K above p has residue field F_p and the generators
reduce entrywise to r x r matrices over F_p (`smoothness.GF`).

`close` is Dimino's algorithm (Butler, "Fundamental Algorithms for
Permutation Groups", LNCS 559, 1991) on residues, each element stored once
in a `Tree` as the int32 bytes of its residue.  It orders the generators by
decreasing residue order (ties in the given order), so the first subgroups
are large and the cosets few, and stores G_1 = <s_1> as the powers that
found its order (repeated multiplication, stopped past min(cap, L) by the
exponent lemma below).  Then G_k = <G_(k-1), s_k> is a union of right
cosets G_(k-1)·c, each one block: the first is G_(k-1), and element i of
the block of c·s is element i of c's block (its parent) times s.  As the
stored elements are a union of cosets, a candidate c·s (c a block's first
element, s among s_1..s_k) starts a new coset iff its residue is not
stored; once every candidate is stored, G_k is closed under the generators.
Blocks and candidates are computed BATCH at a time.  A new coset is disjoint
from the stored elements, so one that would pass `cap` proves |G| > cap: at
most `cap` elements are stored.

Orbits (Seress, "Permutation Group Algorithms", 2003, §4.1).  A `Tree`
stores each point once with a Schreier vector (the index of its parent and
of the map that reached it), so `word(i)` spells a word from a seed to
point i and `word_product` replays it exactly.  An `Orbit` is a Tree grown
by BFS, a batch of up to BATCH points per step, inserted one at a time in
the per-point order.  Schreier's lemma: if G = <S> acts on the right and
u_y maps x to y for each y in the orbit O of x, then the products
u_y·s·u_{y·s}^-1 (y in O, s in S) generate the stabilizer of x;
`schreier_generators` returns the u_y and, without repeats, those products.

The reduction lemma (Minkowski; Serre, "Bounds for the orders of the finite
subgroups of G(k)", 2007; Detinko-Flannery-O'Brien, J. Symb. Comput. 50,
2013).  If p is odd, p = 1 (mod N), p divides no denominator of a generator
entry and G is finite, then every element of G is 𝔭-integral and reduction
mod 𝔭 is injective on G, so |G| equals the number of residues.  The
hypotheses are checked where they are used: `smoothness.split_prime` draws
p >= 2^21 with p = 1 (mod N) and skips every prime that divides a generator
denominator; finiteness is certified when the residue closure completes.

The singular-residue lemma.  The generator entries are 𝔭-integral, as p
divides no denominator, so det(g mod 𝔭) = det(g) mod 𝔭: an exactly singular
g has a singular residue.  A g of finite order has a root of unity as its
determinant, a 𝔭-unit, so its residue is invertible.  Hence a generator
whose residue has F_p rank below r is singular or has infinite order, and
either way `MatGroup` refuses it; an invertible g is refused only when
det(g) lies in 𝔭.

The orbit certificate.  On completion `close` closes one orbit of vectors
exactly over K.  A finite orbit that spans K^r is a spanning set that every
generator maps injectively into itself, hence permutes, so G embeds in its
symmetric group and is finite.  Nothing in this argument depends on where
the seed came from, so any vector may seed the orbit.  The seed rule takes
a root (a reflection's root has a small orbit: 42 vectors over Q(zeta_7)
for Klein's quartic): the first nonzero column
of g - I for a residue g with F_p rank 1, whose residue orbit spans F_p^r
and is smallest, then whose g has the shortest word; g is replayed exactly
by `word_product` along it.  When no root's residue orbit spans, the seeds
are e_1..e_r, which span.  A complete root orbit spans too: its vectors are
products of 𝔭-integral generators applied to a 𝔭-integral seed, and
reduction maps them onto the residue orbit of the seed's residue, A[k, l]
times the root that spans (A = g - I, A[k, l] != 0 its first nonzero entry,
and c·v has c times the residue orbit of v); so some r x r minor of the orbit
has a nonzero residue, hence is nonzero over K.  Under a finite G each seed
has at most |G| vectors in its orbit, and |G| is the residue count by the
lemma, so an orbit with more than |G| vectors per seed proves G infinite,
and `close` returns False.

The central-scalar lemma.  Let S' be the generators that are not scalar
(tested exactly).  The scalars c_i·I are central, so G = <S'>·<c_i·I> is
finite iff <S'> is and each c_i^L = 1, L = L(1, n) = lcm(2, n) for c_i in
Q(zeta_n) (the exponent lemma below at r = 1); residues cannot decide that,
as (1 + p)·I reduces to I.  So the orbit runs under S', at the least
conductor of S' and the seed: span(<S'>·v) = span(G·v), over K and mod 𝔭,
so a spanning root still spans, and |<S'>·v| <= |G| keeps the cap.

The prime lemma.  Let G <= GL_r(K) be finite and q a prime dividing |G|.
An element of order q has a primitive q-th root of unity as an eigenvalue,
so [K(zeta_q) : K] <= r, and that degree is q - 1 when q ∤ N: q <= max(r + 1,
N).  `split_prime` gives p = 1 (mod N), so p > N, and `MatGroup` refuses
p <= r + 1.  So p ∤ |G|, and p ∤ |L| for every finite L <= GL_s(K), s <= r.

The exponent lemma (Minkowski's argument; Serre 2007).  If g in GL_r(K) has
finite order, each eigenvalue λ has [K(λ) : K] <= r, and K(λ) contains
zeta_(q^a), of degree phi(lcm(q^a, N)) / phi(N) over K, for each q^a
dividing the order of λ.  So the exponent of a finite G <= GL_r(K) divides
L(r, N) = `exponent_bound`, the product of the largest q^a of degree <= r
over the primes q.  By injectivity the generator residues have their exact
orders, so `_powers` stops after min(cap, L) products and refuses an order
that does not divide L.

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

`elements()` replays the closure's tree exactly, one ExactMatrix product
per element.  Nothing in formaut calls it: it is the exact reference of the
tests, and the benchmark tracer (bench/spans.py) wraps it by name.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations_with_replacement, product
from math import comb, lcm

import numpy as np

from .cyclotomic import CycNum, conductor
from .forms import ExactMatrix, Form, act
from .smoothness import GF, _is_prime, split_prime

DEFAULT_CAP = 1 << 21
BATCH = 1024            # points per numpy product in an Orbit step or a coset: peak RSS kept flat


class GroupError(ValueError):
    pass


def _mulmod(a, b, p):
    return (a.astype(np.int64) @ b % p).astype(np.int32)


def _row_keys(arr) -> list[list[bytes]]:
    """The bytes of each arr[i, k] as a key, one list per i, read through one void view of the rows."""
    n, k = arr.shape[:2]
    rows = np.ascontiguousarray(arr).reshape(n * k, -1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
    return [keys[o:o + k] for o in range(0, len(keys), k)]


def _is_block_scalar(arr, block_sizes):
    """Off-diagonal entries vanish and each diagonal block is a scalar matrix.

    Works on the last two axes, so a stack of matrices gives a boolean array.
    """
    starts = np.cumsum([0] + list(block_sizes[:-1]))
    lead = np.repeat(arr[..., starts, starts], block_sizes, axis=-1)
    return (arr == lead[..., None] * np.eye(arr.shape[-1], dtype=int)).all(axis=(-2, -1))


class Tree:
    """Points stored once: points[i] is map gen[i] applied to points[parent[i]] (both -1 at a seed)."""

    def __init__(self):
        self.points, self.index, self.parent, self.gen = [], {}, [], []

    def extend(self, points, parents, gen: int):
        """Store new points, each with its parent's index, all reached by map gen."""
        self.index.update(zip(points, range(len(self.points), len(self.points) + len(points))))
        self.points.extend(points)
        self.parent.extend(parents)
        self.gen.extend([gen] * len(points))

    def word(self, i: int) -> list[int]:
        """The map indices that lead from a seed to points[i], in the order they apply."""
        word = []
        while self.parent[i] >= 0:
            word.append(self.gen[i])
            i = self.parent[i]
        return word[::-1]


class Orbit(Tree):
    """The orbit of `seeds` under maps, stored in BFS order as a `Tree`.

    `step(batch)` takes a list of at most BATCH points, in BFS order, and
    returns their image lists, one image per map and point.  Each point is
    stored once, and points are inserted one at a time in BFS order, exactly
    as a per-point walk would.  The BFS stops as soon as more than `cap`
    points are stored; `complete` says whether it ran to the end.  A batch
    holds at most BATCH·(number of maps) images besides the stored points,
    so batching adds a bounded amount of memory on top of the orbit itself.
    """

    def __init__(self, seeds, step, cap: int | None = None):
        super().__init__()
        self.step = step
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
    return reps, list(dict.fromkeys(reps[i] * g * invs[orbit.index[y]]
                                    for i, images in orbit.images() for g, y in zip(gens, images)))


def exponent_bound(r: int, n: int) -> int:
    """L(r, N): the exponent of every finite G <= GL_r(Q(zeta_N)) divides it (the exponent lemma)."""
    bound = n                           # q^a for every q^a dividing N; a prime q > r + 1 adds no more
    for q in filter(_is_prime, range(2, r + 2)):
        degree = q if n % q == 0 else q - 1     # [K(zeta_(q^(a+1))) : K] for q^a exactly dividing N
        while degree <= r:
            bound, degree = bound * q, degree * q
    return bound


class MatGroup:
    """A finitely generated matrix group over a cyclotomic field."""

    def __init__(self, generators):
        gens = list(generators)
        if not gens:
            raise GroupError("need at least one generator")
        dim = gens[0].dim
        if any(g.dim != dim for g in gens):
            raise GroupError("generators must share a dimension")
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
        if any(_rank_mod_p(g, self.p) < dim for g in self._gens):    # the singular-residue lemma
            raise GroupError("a generator is singular mod p = %d: it is singular, or has infinite order" % self.p)
        self._tree = Tree()             # the elements' residue keys: none until close()
        self.closed = False

    def _reduce(self, m: ExactMatrix):
        return np.array([[self._field.from_cyc(c) for c in row] for row in m.entries], dtype=np.int64)

    # -- closure -----------------------------------------------------------

    def close(self, cap: int = DEFAULT_CAP) -> bool:
        """Dimino's closure (module docstring): False once |G| > cap, or G infinite, is proved.

        A later call after a False one starts again from the identity.
        """
        if self.closed:
            return True
        r, p, gens = self.dim, self.p, self._gens
        powers = [self._powers(g, cap) for g in gens]
        self._tree = tree = Tree()
        if None in powers:
            return False                # a cyclic subgroup has more than cap elements, or G is infinite
        used = sorted(range(len(gens)), key=lambda s: -len(powers[s]))
        tree.extend(powers[used[0]][:1], [-1], -1)
        tree.extend(powers[used[0]][1:], range(len(powers[used[0]]) - 1), used[0])
        stage = used[:1]
        for s in used[1:]:
            if gens[s].astype(np.int32).tobytes() in tree.index:
                continue                # s lies in G_(k-1): G_k = G_(k-1)
            stage.append(s)
            size, reps, head = len(tree.points), [0], 0
            while head < len(reps):     # the block start of each right coset of G_(k-1), as it is found
                batch = reps[head:head + BATCH]
                head += len(batch)
                firsts = np.frombuffer(b"".join(tree.points[b] for b in batch), dtype=np.int32)
                candidates = _mulmod(firsts.reshape(-1, 1, r, r), gens[stage], p).reshape(1, -1, r, r)
                for (start, t), key in zip(product(batch, stage), _row_keys(candidates)[0]):
                    if key in tree.index:
                        continue
                    if len(tree.points) + size > cap:
                        return False    # a new coset is disjoint from the stored elements: |G| > cap
                    reps.append(len(tree.points))
                    for lo in range(start, start + size, BATCH):    # the block of c, times t
                        hi = min(lo + BATCH, start + size)
                        stack = np.frombuffer(b"".join(tree.points[lo:hi]), dtype=np.int32).reshape(1, -1, r, r)
                        coset = _row_keys(_mulmod(stack, gens[t], p))[0]
                        tree.extend(coset, range(lo, hi), t)
        if not self._orbit_is_finite(len(tree.points)):
            return False                # the orbit certificate: G is infinite
        self.closed = True
        return True

    def _powers(self, g, cap: int):
        """The residue keys of I, g, g^2, ... up to the order of g; None past cap or if it does not divide L."""
        exponent = exponent_bound(self.dim, self.conductor)
        keys, power = [np.eye(self.dim, dtype=np.int32).tobytes()], g.astype(np.int32)
        while power.tobytes() != keys[0] and len(keys) <= min(cap, exponent):
            keys.append(power.tobytes())
            power = _mulmod(power, g, self.p)
        return keys if len(keys) <= cap and exponent % len(keys) == 0 else None

    def _orbit_is_finite(self, order: int) -> bool:
        """The orbit certificate (module docstring) for a residue closure of `order` elements.

        Each scalar generator c·I must have c^L(1, n) = 1 (central-scalar
        lemma); then one exact orbit under the others decides: the seed rule's
        root's (`_root`), replayed exactly along its word, or e_1..e_r's when
        no root spans.  It is False past |G| vectors per seed, and runs at its
        own conductor (theirs and the seed's), a vector stored as its
        coordinates' (num, den) there, each image coordinate one CycNum.dot.
        """
        r, one, zero = self.dim, CycNum.one(), CycNum.zero()
        kept = [g for g in self.generators if g != ExactMatrix.diagonal([g.entries[0][0]] * r)]
        scalars = [g.entries[0][0] for g in self.generators if g not in kept]
        if any(c ** exponent_bound(1, c.n) != 1 for c in scalars):
            return False                # a scalar generator is no root of unity: G is infinite
        found = self._root()
        if found is None:
            seeds = [[one if i == j else zero for i in range(r)] for j in range(r)]
        else:
            index, col = found
            g = word_product(self.generators, self._tree.word(index))
            seeds = [[(g.entries[i][col] - (one if i == col else zero)).reduce() for i in range(r)]]
        n = conductor([c for g in kept for row in g.entries for c in row] + [c for v in seeds for c in v])
        gens = [[[(k, c.to_conductor(n)) for k, c in enumerate(row) if not c.is_zero()]
                 for row in g.entries] for g in kept]

        def key(vector):
            return tuple((c.num, c.den) for c in vector)

        def images(point):
            v = [CycNum(n, num, den) if any(num) else None for num, den in point]
            return [key(CycNum.dot([(a, v[k]) for k, a in row if v[k] is not None], n) for row in g)
                    for g in gens]

        def step(batch):
            return [images(x) for x in batch]

        return Orbit([key(c.to_conductor(n) for c in v) for v in seeds], step, len(seeds) * order).complete

    def _reflections(self):
        """Yield (i, l, A[:, l] / A[k, l]) for each residue i whose A = g - I has F_p rank 1.

        A[k, l] is A's first nonzero entry in row-major order.  A has rank 1 iff A != 0 and
        A·A[k, l] = A[:, l] ⊗ A[k, :] (mod p); rank 1 gives tr(A^2) = tr(A)^2, a cheaper test
        run first.  Entries lie below p < 2^31, so a sum of r products fits int64.
        """
        r, p = self.dim, self.p
        for start, stack in self._stacks():
            a = stack - np.eye(r, dtype=np.int64)
            trace = np.trace(a, axis1=1, axis2=2) % p
            near = np.flatnonzero((trace * trace - (np.einsum("mij,mji->mi", a, a) % p).sum(axis=1)) % p == 0)
            a = a[near] % p
            flat = a.reshape(len(a), r * r)
            k, l = divmod((flat != 0).argmax(axis=1), r)
            m = np.arange(len(a))
            outer = a[m, :, l][:, :, None] * a[m, k, :][:, None, :]
            rank1 = flat.any(axis=1) & ((a * a[m, k, l][:, None, None] - outer) % p == 0).all(axis=(1, 2))
            for h in np.flatnonzero(rank1):
                yield start + int(near[h]), int(l[h]), a[h, :, l[h]] * pow(int(a[h, k[h], l[h]]), -1, p) % p

    def _root(self):
        """(i, l): the seed rule's residue i and root column l (module docstring); None if no root spans.

        c·v has c times the residue orbit of v, so one orbit serves every root on its lines.
        """
        r, p, maps = self.dim, self.p, self._gens.transpose(0, 2, 1)

        def step(batch):                # (m, r) vectors times the (g, r, r) transposed generators
            x = np.frombuffer(b"".join(batch), dtype=np.int64).reshape(-1, r)
            return _row_keys((x @ maps % p).swapaxes(0, 1))

        orbit_of, spanning = {}, []     # each computed orbit's lines, by pgl_keys -> (size, spans)
        for i, l, v in self._reflections():
            line = v.astype(np.int32).tobytes()     # v leads with 1: these bytes are its pgl key
            if line not in orbit_of:
                points = Orbit([v.tobytes()], step).points
                orbit = np.frombuffer(b"".join(points), dtype=np.int64).reshape(-1, r)
                orbit_of.update(dict.fromkeys(pgl_keys(orbit, p), (len(points), _rank_mod_p(orbit, p) == r)))
            size, spans = orbit_of[line]
            if spans:
                spanning.append((size, len(self._tree.word(i)), i, l))
        return min(spanning)[2:] if spanning else None

    def _require_closed(self):
        if not self.closed:
            raise GroupError("group is not closed; call close() first")

    @property
    def order(self) -> int:
        self._require_closed()
        return len(self._tree.points)

    def _stacks(self):
        """Yield (offset, stack): the next at most BATCH residues as one (m, r, r) array."""
        keys = self._tree.points
        for start in range(0, len(keys), BATCH):
            blob = b"".join(keys[start:start + BATCH])
            yield start, np.frombuffer(blob, dtype=np.int32).reshape(-1, self.dim, self.dim)

    def elements(self):
        """All elements as exact matrices in storage order, one product per element; all are kept."""
        self._require_closed()
        made = []
        for parent, gen in zip(self._tree.parent, self._tree.gen):
            made.append(made[parent] * self.generators[gen] if parent >= 0 else ExactMatrix.identity(self.dim))
            yield made[-1]

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
    """The int32 bytes of each residue of an (m, s, s) stack, or of m vectors, divided by its first nonzero entry.

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
        series = deque([det[0]], maxlen=r)  # the last r coefficients of the power series inverse of det(I - t g)
        for _ in range(degree):
            series.append(-sum(det[i] * series[-i] for i in range(1, len(series) + 1)) % p)
        total += int(series[-1].sum())
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
