"""Finite matrix groups over cyclotomic fields: closure, order, invariants.

Closure works on a packed form of each matrix: every CycNum entry is replaced
by its regular representation over the power basis of Q(zeta_N), so a matrix
over the field becomes one integer matrix over a common denominator.  Group
multiplication is then a single integer matmul, and the normalized
(denominator, bytes) pair is a canonical dedup key.  Arithmetic stays exact:
numpy int64 is used while products provably fit, with an object-dtype
fallback otherwise.  The packed elements are the group; `elements()` unpacks
them to ExactMatrix and is the exact export for the invariant routes.

Projective classes are decided here and nowhere else, by this lemma.  Let L
be a finite matrix group and Z = L ∩ K*·I its scalar subgroup.  For g, h in
L, g = c·h with c in K* implies c·I = g·h^-1 in L, so c·I lies in Z.  Hence
the PGL classes of L are the cosets gZ, each of size |Z|, and
|L / scalars| = |L| / |Z|.  `projective_order` uses the count;
`scalar_cosets` lists the cosets and raises if one of them does not have
exactly |Z| members of L.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .cyclotomic import CycNum, cyclotomic_polynomial, euler_phi
from .forms import ExactMatrix, Form, act

DEFAULT_CAP = 1 << 21


class GroupError(ValueError):
    pass


@lru_cache(maxsize=None)
def _companion_powers(n: int):
    """Integer matrices of multiplication by zeta_n^k on the power basis."""
    phi = euler_phi(n)
    comp = np.zeros((phi, phi), dtype=object)
    phi_poly = cyclotomic_polynomial(n)
    for j in range(phi - 1):
        comp[j + 1][j] = 1
    for i in range(phi):
        comp[i][phi - 1] = -phi_poly[i]
    powers = [np.eye(phi, dtype=object)]
    for _ in range(phi - 1):
        powers.append(comp @ powers[-1])
    return powers


class PackedContext:
    """Shared packing data for one working conductor."""

    def __init__(self, conductor: int):
        self.n = conductor
        self.phi = euler_phi(conductor)
        self.powers = _companion_powers(conductor)

    def pack(self, matrix: ExactMatrix) -> PackedMatrix:
        r = matrix.dim
        phi = self.phi
        den = 1
        entries = []
        for row in matrix.entries:
            packed_row = []
            for c in row:
                c = c.to_conductor(self.n) if c.n != self.n else c
                packed_row.append(c)
                den = lcm(den, c.den)
            entries.append(packed_row)
        arr = np.zeros((r * phi, r * phi), dtype=object)
        for i in range(r):
            for j in range(r):
                c = entries[i][j]
                scale = den // c.den
                block = None
                for k, coef in enumerate(c.num):
                    if coef:
                        piece = (coef * scale) * self.powers[k]
                        block = piece if block is None else block + piece
                if block is not None:
                    arr[i * phi:(i + 1) * phi, j * phi:(j + 1) * phi] = block
        return PackedMatrix.normalized(arr, den, r, self)

    def unpack(self, pm: PackedMatrix) -> ExactMatrix:
        phi = self.phi
        r = pm.dim
        arr = pm.array(object)
        rows = []
        for i in range(r):
            row = []
            for j in range(r):
                col = arr[i * phi:(i + 1) * phi, j * phi]
                row.append(CycNum(self.n, [int(x) for x in col], pm.den))
            rows.append(row)
        return ExactMatrix(rows)


class PackedMatrix:
    """Normalized integer form of a matrix over Q(zeta_N)."""

    __slots__ = ("den", "blob", "dtype", "dim", "ctx", "maxabs")

    def __init__(self, den, blob, dtype, dim, ctx, maxabs):
        self.den = den
        self.blob = blob
        self.dtype = dtype
        self.dim = dim
        self.ctx = ctx
        self.maxabs = maxabs

    @classmethod
    def normalized(cls, arr, den, dim, ctx):
        if arr.dtype == object:
            flat = [int(x) for x in arr.ravel()]
            g = den
            for x in flat:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                flat = [x // g for x in flat]
                den //= g
            maxabs = max((abs(x) for x in flat), default=0)
            dtype = cls._fit_dtype(maxabs)
            if dtype is object:
                blob = json.dumps(flat).encode()
                return cls(den, blob, object, dim, ctx, maxabs)
            out = np.array(flat, dtype=dtype).reshape(arr.shape)
            return cls(den, out.tobytes(), dtype, dim, ctx, maxabs)
        g = int(np.gcd.reduce(np.abs(arr).ravel()))
        g = gcd(g, den)
        if g > 1:
            arr = arr // g
            den //= g
        maxabs = int(np.abs(arr).max()) if arr.size else 0
        dtype = cls._fit_dtype(maxabs)
        out = arr.astype(dtype) if arr.dtype != dtype else arr
        return cls(den, out.tobytes(), dtype, dim, ctx, maxabs)

    @staticmethod
    def _fit_dtype(maxabs):
        if maxabs < 120:
            return np.int8
        if maxabs < (1 << 15) - 8:
            return np.int16
        if maxabs < (1 << 31) - 8:
            return np.int32
        if maxabs < (1 << 62):
            return np.int64
        return object

    def array(self, dtype=None):
        side = self.dim * self.ctx.phi
        if self.dtype is object:
            # object arrays round-trip through a list blob
            arr = np.array(json.loads(self.blob.decode()), dtype=object).reshape(side, side)
        else:
            arr = np.frombuffer(self.blob, dtype=self.dtype).reshape(side, side)
        if dtype is not None and dtype is not self.dtype:
            return arr.astype(dtype)
        return arr

    @property
    def key(self):
        return (self.den, self.blob)

    def restrict(self, start: int, stop: int) -> PackedMatrix:
        """Normalized principal submatrix on coordinates start..stop-1."""
        phi = self.ctx.phi
        arr = self.array()[start * phi:stop * phi, start * phi:stop * phi]
        return PackedMatrix.normalized(arr, self.den, stop - start, self.ctx)

    def __matmul__(self, other: PackedMatrix) -> PackedMatrix:
        side = self.dim * self.ctx.phi
        safe = self.maxabs and other.maxabs and \
            self.maxabs * other.maxabs * side < (1 << 62)
        if self.maxabs == 0 or other.maxabs == 0:
            safe = True
        if safe and self.dtype is not object and other.dtype is not object:
            prod = self.array(np.int64) @ other.array(np.int64)
        else:
            prod = self.array(object) @ other.array(object)
        return PackedMatrix.normalized(prod, self.den * other.den, self.dim, self.ctx)


def matrices_conductor(mats) -> int:
    n = 1
    for m in mats:
        for row in m.entries:
            for c in row:
                n = lcm(n, c.n)
    return n


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
        self.ctx = PackedContext(self.conductor)
        self._packed_gens = [self.ctx.pack(g) for g in gens]
        self._elements = None      # dict key -> PackedMatrix
        self._frontier = None
        self.closed = False

    # -- closure -----------------------------------------------------------

    def close(self, cap: int = DEFAULT_CAP) -> bool:
        """BFS closure under right multiplication; True when complete.

        Stops as soon as more than `cap` elements are stored.  The element
        being expanded stays at the head of the queue, so a later call with a
        larger cap resumes where this one stopped.
        """
        if self.closed:
            return True
        if self._elements is None:
            ident = self.ctx.pack(ExactMatrix.identity(self.dim))
            self._elements = {ident.key: ident}
            self._frontier = deque([ident])
        if len(self._elements) > cap:
            return False
        while self._frontier:
            elem = self._frontier[0]
            for pg in self._packed_gens:
                prod = elem @ pg
                if prod.key not in self._elements:
                    self._elements[prod.key] = prod
                    self._frontier.append(prod)
                    if len(self._elements) > cap:
                        return False
            self._frontier.popleft()
        self.closed = True
        return True

    @property
    def order(self) -> int:
        if not self.closed:
            raise GroupError("group is not closed; call close() first")
        return len(self._elements)

    def packed_elements(self):
        if not self.closed:
            raise GroupError("group is not closed")
        return self._elements.values()

    def elements(self):
        for pm in self.packed_elements():
            yield self.ctx.unpack(pm)

    def contains_packed(self, pm: PackedMatrix) -> bool:
        if not self.closed:
            raise GroupError("group is not closed")
        return pm.key in self._elements

    def contains(self, m: ExactMatrix) -> bool:
        reduced = []
        for row in m.entries:
            out_row = []
            for c in row:
                c = c.reduce()
                if self.conductor % c.n:
                    return False        # entry lies outside the group's field
                out_row.append(c)
            reduced.append(out_row)
        return self.contains_packed(self.ctx.pack(ExactMatrix(reduced)))

    # -- structure helpers ---------------------------------------------------

    def scalar_elements(self):
        """Packed elements that are scalar matrices."""
        return [pm for pm in self.packed_elements() if _is_scalar(pm)]

    def projective_order(self) -> int:
        """|G / scalars| = |G| / |G ∩ K*·I| (the scalar-coset lemma)."""
        return self.order // len(self.scalar_elements())

    def center(self) -> MatGroup:
        """Subgroup commuting with every generator (hence with the group)."""
        if not self.closed:
            raise GroupError("group is not closed")
        members = []
        for pm in self.packed_elements():
            if all((pm @ pg).key == (pg @ pm).key for pg in self._packed_gens):
                members.append(pm)
        sub = MatGroup([self.ctx.unpack(pm) for pm in members], conductor=self.conductor)
        sub._elements = {pm.key: pm for pm in members}
        sub._frontier = []
        sub.closed = True
        return sub

    def __repr__(self):
        state = "order %d" % len(self._elements) if self.closed else "open"
        return "MatGroup(dim=%d, conductor=%d, %s)" % (self.dim, self.conductor, state)


def _is_block_scalar(arr, dim, phi, block_sizes):
    """Packed test: off-diagonal blocks vanish, diagonal blocks are scalar."""
    expected = np.zeros_like(arr)
    pos = 0
    for size in block_sizes:
        lead = arr[pos * phi:(pos + 1) * phi, pos * phi:(pos + 1) * phi]
        for k in range(pos, pos + size):
            expected[k * phi:(k + 1) * phi, k * phi:(k + 1) * phi] = lead
        pos += size
    return bool((arr == expected).all())


def _is_scalar(pm: PackedMatrix) -> bool:
    return _is_block_scalar(pm.array(), pm.dim, pm.ctx.phi, [pm.dim])


def scalar_cosets(elements):
    """PGL classes of a finite group L given by its packed elements.

    By the scalar-coset lemma (module docstring) the classes are the cosets
    gZ of Z = L ∩ K*·I.  Returns (class_of, reps): class_of maps each
    element's key to its class number and reps[c] is the first element of
    class c.  Raises GroupError if some gZ does not consist of exactly |Z|
    elements of L that lie in no earlier coset (then `elements` is not a
    group).
    """
    members = {pm.key: pm for pm in elements}
    scalars = [pm for pm in members.values() if _is_scalar(pm)]
    class_of = {}
    reps = []
    for key, pm in members.items():
        if key in class_of:
            continue
        coset = {(s @ pm).key for s in scalars}
        if len(coset) != len(scalars) or key not in coset or \
                any(k not in members or k in class_of for k in coset):
            raise GroupError("a scalar coset does not have |L ∩ scalars| = %d elements of L"
                             % len(scalars))
        for k in coset:
            class_of[k] = len(reps)
        reps.append(pm)
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
