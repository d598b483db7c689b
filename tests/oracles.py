"""Exact references that live only in the tests.

form_product multiplies two forms term by term; the action and invariant
references build on it.  permutation_matrix is the substitution matrix of a
coordinate permutation, and fermat_form is x1^d + ... + xr^d.

partitions is the unpruned walk: every partition of a total in
descending-lex order, the reference for the pruned
sequences.enumerate_sequences.  search_per_cell is the survivor report by
one survivors_for walk per (n, d) cell, the reference for the descent in d
of sequences.classification_search.  mixed_sequence_scan is the per-sequence
scan that `formaut bounds-scan` ran before it read its mixed hits off one
classification_search: each sequence of the d = 3 walk with a part 1 and a
part > 1, at d = 3, 4, .. up to the first d with R < 1.

The binary resultant oracle: a binary form of degree d >= 2 is smooth iff
its two partials have no common projective zero, i.e. iff their resultant
is nonzero.  The resultant is the Sylvester determinant, computed by
fraction-free Bareiss elimination over Z (every form the oracle sees has
integer coefficients), so the oracle shares no arithmetic with the code it
checks.

Two smoothness references.  reference_char0_verdict is the homogeneous
pure-power criterion: a complete reduced Groebner basis of the Jacobian
ideal over the cyclotomic field K, under the same degree cap as is_smooth,
whose leading-term ideal holds a pure power of every variable iff the form
is smooth.  macaulay_smooth needs no Groebner basis at all: for a form with
rational coefficients in at most three variables it reads smoothness off the
exact rank over Q of one Macaulay matrix of the partials (Macaulay, The
Algebraic Theory of Modular Systems, 1916).

The closure reference, residue_bfs, is the per-element BFS that
MatGroup.close ran before its coset closure: one product per stored residue
and generator, each image probed on its own, so its keys are the residue
group in BFS order.

The finiteness reference, orbit_is_finite_all_generators, is the orbit
certificate that MatGroup._orbit_is_finite ran before the central-scalar
lemma: one exact orbit under every generator, scalars included, at the
group's conductor, from the same seeds and with the same cap of |G| vectors
per seed.

The scalar-coset reference, reference_scalar_cosets, is the per-residue
walk, the slow reference for matgroups.pgl_keys: it tests every residue for
scalarity on its own and multiplies each coset out one scalar at a time.

Three cyclotomic references.  reference_reduce finds the least conductor by
linear algebra: for each divisor d of n in increasing order it solves for
the value in the power basis of Q(zeta_d) embedded in Q(zeta_n), by
Gaussian elimination over Q.  reference_root_exponent scans every a < m,
m = lcm(2, n), and compares the value with zeta_m^a.  reference_inverse is
the loop CycNum.inverse ran before its doubling tower: one product per
conjugate sigma_k(x), k != 1.

The block-system reference, certificate_by_search, tries every set
partition of the coordinates (203 at r = 6): it keeps the valid ones, whose
blocks each generator's nonzero pattern sends into one block, checks that
one of them refines all the others, and reads the summands off as the
blocks reachable under the generators' block maps.

The block-pattern reference, reference_block_pattern, is the psi that
structure._verify read before its one permutation of the blocks: a numpy
nonzero mask, its blocks OR-ed by reduceat, and one tuple per summand,
j -> the row block that column block (i, j) lands in.

The reflection-group oracle (Chevalley-Shephard-Todd: Shephard-Todd,
Canad. J. Math. 6, 1954; Chevalley, Amer. J. Math. 77, 1955).  A finite
G <= GL_r(C) generated by reflections has algebraically independent basic
invariants of degrees d_1..d_r, so |G| = prod d_i, G holds sum (d_i - 1)
reflections, and dim (Sym^e)^G is the t^e coefficient of prod 1/(1 - t^d_i)
(hilbert_coefficient).  REFLECTION_DEGREES lists the degrees of the catalog
rows whose closed groups are reflection groups, from Shephard-Todd's table;
TODD_DEGREES are those of ST34, whose order the catalog's Todd row asserts.

The torus reference, reference_solve_torus, solves lambda^V = c from the
same Smith normal form as diaglattice._Torus but in CycNum arithmetic:
it raises the targets to the powers in U, takes d-th roots through a
discrete logarithm and multiplies the particular solution out of powers.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from formaut.cyclotomic import CycNum, euler_phi, root_of_unity
from formaut.diaglattice import LatticeError, smith_normal_form
from formaut.forms import ExactMatrix, Form, partials
from formaut.matgroups import GroupError, Orbit, _is_block_scalar, _monomials, _mulmod, word_product
from formaut.sequences import SubdegreeSequence, enumerate_sequences, ratio, survivors_for
from formaut.smoothness import CycField, buchberger, form_to_poly


def form_product(f: Form, g: Form) -> Form:
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return Form(f.nvars, out, f.degree + g.degree)


def fermat_form(degree: int, nvars: int) -> Form:
    return Form(nvars, {tuple(degree * (i == j) for j in range(nvars)): 1 for i in range(nvars)})


def partitions(total: int):
    """Every partition of total, as a SubdegreeSequence, in descending-lex order."""
    def walk(rest, cap):
        if rest == 0:
            yield ()
        for p in range(min(cap, rest), 0, -1):
            for tail in walk(rest - p, p):
                yield (p,) + tail
    return (SubdegreeSequence(parts) for parts in walk(total, total))


def search_per_cell(n_values, d_values):
    """The survivor report of sequences.classification_search, one survivors_for(n + 2, d) walk per cell."""
    n_list, d_list = sorted(set(n_values)), sorted(set(d_values))
    records = [{"n": n, "d": d, "sequence": seq, "ratio": rat}
               for n in n_list for d in d_list for seq, rat in survivors_for(n + 2, d)]
    return {"n_values": n_list, "d_values": d_list, "survivors": records}


def mixed_sequence_scan(max_total: int, max_d: int):
    """All (l, d, R) with 1 in l, some part > 1, total <= max_total, d <= max_d and R(l, d) >= 1.

    For each sequence, d runs upward from 3 until R drops below 1 (R is
    strictly decreasing in d when a part exceeds 1), capped at max_d.  R is
    non-increasing in d (s <= v), so a sequence with R(l, 3) < 1 has no hit:
    the pruned walk enumerate_sequences(v, 3) is exact here.
    """
    hits = []
    for v in range(2, max_total + 1):
        for seq in enumerate_sequences(v, 3):
            if seq.parts[0] == 1 or seq.parts[-1] != 1:
                continue
            for d in range(3, max_d + 1):
                r = ratio(seq, d)
                if r < 1:
                    break
                hits.append((seq, d, r))
    return hits


def permutation_matrix(perm) -> ExactMatrix:
    """Matrix sending x_i to x_perm(i) under the substitution action."""
    one, zero = CycNum.one(), CycNum.zero()
    return ExactMatrix([[one if perm[i] == j else zero for j in range(len(perm))] for i in range(len(perm))])


def _integer(c: CycNum) -> int:
    value = c.as_fraction()
    if value.denominator != 1:
        raise ValueError("the resultant oracle takes integer coefficients, not %s" % value)
    return value.numerator


def bareiss_determinant(rows) -> int:
    """Determinant of an integer matrix; every division in the Bareiss step is exact."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            m[i] = [0] * (k + 1) + [(m[i][j] * pivot - mik * m[k][j]) // prev for j in range(k + 1, n)]
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def union_find_components(form: Form):
    """Connected components of variables linked by shared monomials, by union-find with path halving."""
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


def sylvester_resultant(f: Form, g: Form) -> CycNum:
    """Resultant of two binary forms with integer coefficients via the Sylvester determinant."""
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("resultant oracle is for binary forms")
    m, n = f.degree, g.degree
    fc = [_integer(f.terms.get((m - i, i), CycNum.zero())) for i in range(m + 1)]
    gc = [_integer(g.terms.get((n - i, i), CycNum.zero())) for i in range(n + 1)]
    size = m + n
    rows = [[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)]
    return CycNum.from_int(bareiss_determinant(rows))


def smooth_by_resultant(form: Form) -> bool:
    """Independent r = 2 oracle: smooth iff the partials have nonzero resultant."""
    if form.nvars != 2:
        raise ValueError("resultant oracle is for binary forms")
    p1, p2 = partials(form)
    if not p1.terms or not p2.terms:
        return False
    return not sylvester_resultant(p1, p2).is_zero()


def reference_char0_verdict(form: Form, pair_budget=200000):
    """True smooth, False singular, None incomplete: the homogeneous pure-power criterion over K.

    The Jacobian ideal J is m-primary, m = (x_1, ..., x_r), iff its zero set
    is the origin, and that holds iff every x_i has a power in J, i.e. iff
    the leading-term ideal of a Groebner basis holds a pure power of every
    variable.  The run is capped at degree 4 * deg(form), as is_smooth caps
    its chart runs.
    """
    field = CycField()
    gb = buchberger([form_to_poly(f, field) for f in partials(form)], field,
                    degree_cap=4 * form.degree, pair_budget=pair_budget)
    if not gb.complete:
        return None
    lms = [g.lm for g in gb.basis]
    return all(any(0 < lm[i] == sum(lm) for lm in lms) for i in range(form.nvars))


def _rank(rows) -> int:
    """Rank over Q of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def macaulay_smooth(form: Form) -> bool:
    """Independent r <= 3 oracle: smooth iff the partials span every form of degree D = r(d - 2) + 1.

    The Macaulay matrix has one row m * dF/dx_i for each partial and each
    monomial m of degree D - (d - 1), and one column per monomial of degree
    D; its rank over Q is the dimension of J_D, J the Jacobian ideal.
    Lemma: F is smooth iff rank = dim R_D, R = Q[x_1..x_r].  If F is smooth
    the partials have only the origin as common zero, so r forms in r
    variables cut out a zero-dimensional scheme: they are a regular
    sequence, R/J has Hilbert series ((1 - t^(d-1)) / (1 - t))^r, a
    polynomial of degree r(d - 2), and so (R/J)_D = 0.  If F is singular, J
    has a common zero besides the origin, so J is not m-primary, and
    J_D != R_D for every D (J_D = R_D would put m^D inside J).
    """
    r, d = form.nvars, form.degree
    if r > 3:
        raise ValueError("the Macaulay oracle is for at most three variables")
    top = r * (d - 2) + 1
    column = {e: i for i, e in enumerate(_monomials(r, top))}
    rows = []
    for p in partials(form):
        coeffs = [(e, c.as_fraction()) for e, c in p.terms.items()]
        for m in _monomials(r, top - d + 1):
            row = [Fraction(0)] * len(column)
            for e, c in coeffs:
                row[column[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    return _rank(rows) == len(column)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _order(c: CycNum):
    """Multiplicative order of a root of unity, else None (every root of Q(zeta_n) has order | lcm(2, n))."""
    return next((d for d in _divisors(math.lcm(2, c.n)) if c ** d == 1), None)


def reference_root_exponent(x: CycNum):
    """a/m in [0, 1) with x = zeta_m^a, m = lcm(2, x.n), by comparing x with every zeta_m^a."""
    m = math.lcm(2, x.n)
    return next((Fraction(a, m) for a in range(m) if x == root_of_unity(m, a)), None)


def _project_to_subfield(x: CycNum, d: int):
    """x over conductor d | x.n if the value lies in Q(zeta_d), else None, by elimination over Q."""
    n = x.n
    step = n // d
    basis = [CycNum(n, [0] * (j * step) + [1]).num for j in range(euler_phi(d))]
    phi_n, phi_d = euler_phi(n), len(basis)
    mat = [[Fraction(basis[j][i]) for j in range(phi_d)] + [Fraction(x.num[i])] for i in range(phi_n)]
    piv_rows = []
    row = 0
    for col in range(phi_d):
        sel = next((r for r in range(row, phi_n) if mat[r][col] != 0), None)
        if sel is None:
            return None
        mat[row], mat[sel] = mat[sel], mat[row]
        pv = mat[row][col]
        for r in range(phi_n):
            if r != row and mat[r][col] != 0:
                f = mat[r][col] / pv
                for cc in range(col, phi_d + 1):
                    mat[r][cc] -= f * mat[row][cc]
        piv_rows.append((row, col))
        row += 1
    if any(mat[r][phi_d] != 0 for r in range(row, phi_n)):
        return None
    coeffs = [Fraction(0)] * phi_d
    for r, c in piv_rows:
        coeffs[c] = mat[r][phi_d] / mat[r][c]
    scale = math.lcm(*(q.denominator for q in coeffs))
    return CycNum(d, [int(q * scale) for q in coeffs], x.den * scale)


def reference_reduce(x: CycNum) -> CycNum:
    """x over the least conductor d | x.n whose field holds the value."""
    return next(y for y in (_project_to_subfield(x, d) for d in _divisors(x.n)) if y is not None)


def reference_inverse(x: CycNum) -> CycNum:
    """1/x for an irrational x, multiplying the phi(n) - 2 conjugates sigma_k(x), k != 1, one at a time."""
    n = x.n
    adj = CycNum.one(n)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            conj = [0] * n
            for i, c in enumerate(x.num):
                conj[i * k % n] = c
            adj = adj * CycNum(n, conj, x.den)
    norm = (x * adj).as_fraction()
    return CycNum(n, [c * norm.denominator for c in adj.num], adj.den * norm.numerator)


def _nth_root(c: CycNum, n: int) -> CycNum:
    """The n-th root zeta_(o*n)^a of c = zeta_o^a, 0 <= a < o, by a discrete logarithm."""
    o = _order(c)
    if n == 1:
        return c
    z = root_of_unity(o)
    a = next(a for a in range(o) if z ** a == c)
    return root_of_unity(o * n, a)


def reference_solve_torus(rows, targets=None) -> SimpleNamespace:
    """lambda^V = c in CycNum arithmetic: targets powered by U, roots by discrete log."""
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise LatticeError("need at least one constraint row")
    m, t = len(rows[0]), len(rows)
    diag, U, W = smith_normal_form(rows)
    rank = sum(1 for d in diag if d)
    finite = rank == m
    cU = None
    consistent = True
    if targets is not None:
        targets = list(targets)
        if len(targets) != t:
            raise LatticeError("need one target per row")
        cU = []
        for i in range(t):
            acc = CycNum.one()
            for j in range(t):
                if U[i][j]:
                    acc = acc * (targets[j] ** U[i][j])
            cU.append(acc)
        consistent = all(cU[i] == 1 for i in range(rank, t))
        if any(_order(cU[i]) is None for i in range(rank)):
            raise LatticeError("target functional is not a root of unity")
    order = None
    if finite:
        order = 1
        for d in diag:
            order *= d
    kernel_generators = []
    if finite:
        for i, s in enumerate(diag):
            if s > 1:
                kernel_generators.append(tuple(root_of_unity(s) ** W[j][i] for j in range(m)))
    particular = None
    if consistent and finite:
        mu = [_nth_root(cU[i], diag[i]) if cU is not None else CycNum.one() for i in range(m)]
        particular = []
        for j in range(m):
            acc = CycNum.one()
            for k in range(m):
                acc = acc * mu[k] ** W[j][k]
            particular.append(acc)
        particular = tuple(particular)
    return SimpleNamespace(consistent=consistent, order=order, divisors=[d for d in diag if d],
                           kernel_generators=kernel_generators, particular=particular)


def reference_scalar_cosets(residues, p: int):
    """(class_of, reps): the PGL classes of a group's residues, numbered in order of first appearance."""
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


def residue_bfs(grp, cap):
    """A group's residue closure by one product per element: (keys, parent, gen), stopped past cap keys."""
    r = grp.dim
    keys, parent, gen = [np.eye(r, dtype=np.int32).tobytes()], [-1], [-1]
    index = {keys[0]: 0}
    head = 0
    while head < len(keys):
        residue = np.frombuffer(keys[head], dtype=np.int32).reshape(r, r)
        for g, product in enumerate(_mulmod(residue, grp._gens, grp.p)):
            key = product.tobytes()
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                parent.append(head)
                gen.append(g)
                if len(keys) > cap:
                    return keys, parent, gen
        head += 1
    return keys, parent, gen


def orbit_is_finite_all_generators(grp, order: int) -> bool:
    """The orbit certificate under every generator at grp.conductor: complete within order vectors per seed."""
    n, r = grp.conductor, grp.dim
    gens = [[[(k, c.to_conductor(n)) for k, c in enumerate(row) if not c.is_zero()]
             for row in g.entries] for g in grp.generators]
    one, zero = CycNum.one(n), CycNum.zero(n)

    def key(vector):
        return tuple((c.num, c.den) for c in vector)

    def images(point):
        v = [CycNum(n, num, den) if any(num) else None for num, den in point]
        return [key(CycNum.dot([(a, v[k]) for k, a in row if v[k] is not None], n) for row in g)
                for g in gens]

    found = grp._root()
    if found is None:
        seeds = [key(one if i == j else zero for i in range(r)) for j in range(r)]
    else:
        index, col = found
        g = word_product(grp.generators, grp._tree.word(index))
        seeds = [key(g.entries[i][col] - (one if i == col else zero) for i in range(r))]
    return Orbit(seeds, lambda batch: [images(x) for x in batch], len(seeds) * order).complete


def set_partitions(items):
    """Every set partition of the list items, each a list of blocks."""
    if not items:
        yield []
        return
    for part in set_partitions(items[1:]):
        yield [[items[0]], *part]
        for k in range(len(part)):
            yield [*part[:k], [items[0], *part[k]], *part[k + 1:]]


def certificate_by_search(gens):
    """(grouped sizes, coordinate order) of the finest valid partition, in certificate order."""
    r = gens[0].dim
    columns = [[{x for x in range(r) if not g.entries[x][c].is_zero()} for c in range(r)] for g in gens]

    def block_maps(part):       # per generator: block index -> the blocks its image meets
        where = {x: k for k, block in enumerate(part) for x in block}
        return [[{where[x] for c in block for x in cols[c]} for block in part] for cols in columns]

    valid = [part for part in set_partitions(list(range(r)))
             if all(len(hit) <= 1 for maps in block_maps(part) for hit in maps)]
    finest = max(valid, key=len)
    assert all(any(set(b) <= set(c) for c in part) for part in valid for b in finest)
    maps = block_maps(finest)
    summands = []
    for k in range(len(finest)):
        reach, todo = {k}, [k]
        while todo:
            k2 = todo.pop()
            for per in maps:
                todo.extend(per[k2] - reach)
                reach |= per[k2]
        summand = sorted(sorted(finest[b]) for b in reach)
        if summand not in summands:
            summands.append(summand)
    summands.sort()
    return [[len(b) for b in summand] for summand in summands], [x for summand in summands for b in summand for x in b]


def reference_block_pattern(matrix: ExactMatrix, ranges, grouping):
    """psi per summand from the reduceat block mask, or None if the matrix does not permute the blocks."""
    mask = np.array([[not c.is_zero() for c in row] for row in matrix.entries])
    starts = [r0 for (_i, _j, r0, _r1) in ranges]
    blocks = np.logical_or.reduceat(np.logical_or.reduceat(mask, starts, axis=0), starts, axis=1)
    if (blocks.sum(axis=0) != 1).any():
        return None
    image = {}
    for (i, j, c0, c1), row in zip(ranges, blocks.argmax(axis=0)):
        i2, j2, r0, r1 = ranges[row]
        if i2 != i or r1 - r0 != c1 - c0:
            return None
        image[(i, j)] = j2
    out = []
    for i, k in enumerate(grouping):
        perm = tuple(image[(i, j)] for j in range(k))
        if sorted(perm) != list(range(k)):
            return None
        out.append(perm)
    return tuple(out)


REFLECTION_DEGREES = {
    "tetrahedral-binary-quartic": (4, 12),      # ST6
    "octahedral-binary-sextic": (6, 24),        # ST14
    "icosahedral-binary-12ic": (12, 60),        # ST21
    "hessian-sextic": (6, 12, 18),              # ST26
    "wiman-sextic": (6, 12, 30),                # ST27
    "quartic-1920": (4, 8, 12, 20),             # ST29
    **{"fermat-%d-%d" % (v - 2, d): tuple(d * k for k in range(1, v + 1))    # G(d, 1, v)
       for v, d in [(3, 3), (3, 5), (4, 3), (5, 3)]},
}
TODD_DEGREES = (6, 12, 18, 24, 30, 42)          # ST34


def hilbert_coefficient(degrees, e: int) -> int:
    """The t^e coefficient of prod 1/(1 - t^d) over the degrees d."""
    coeffs = [1] + [0] * e
    for d in degrees:
        for k in range(d, e + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs[e]
