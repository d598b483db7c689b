"""Decomposition certificates and the two associated exact sequences.

A certificate is a block structure C^r = (+) V_i, V_i = (+)_j W_ij of a
matrix group in its generators' coordinates.  It is an output: both
verifiers compute the finest one, `finest_certificate` (block sizes grouped
by summand), so a report's subdegree sequence and intrinsic multiplicities
are the intrinsic ones.  Verification checks that every generator permutes
the blocks of each V_i (exactly, so every element does), extracts the
permutation images K_i, the principal subgroup P (trivial block
permutation), the block-scalar kernel N and the projective constituent
orders |H_ij|, and confirms the order bookkeeping |G| = |P| * |psi(G)| and
|P| = |N| * |phi(P)| exactly.

One algorithm serves both tiers on one `MatGroup`, closed (full-closure)
or open (compositional), so both take their generators through its intake
checks.  Each of its orbits is one `matgroups.Orbit`.  A block pattern is
one permutation of the blocks in certificate order, read from a matrix's
exact nonzero entries.  psi(G) is the orbit of the identity pattern
under the generators' patterns, and P, the stabilizer of that point, gets
its generators by Schreier's lemma (`matgroups.schreier_generators`), with
the transversal products u_x, psi(u_x) = x for x in psi(G), built only when
some block has size > 1; each is checked exactly to have its block pattern.
A 1 x 1 block has H_ij = 1 and is irreducible, as PGL(1) is trivial.  Every
larger block (i, j) has a closure, the restriction L_ij of its stabilizer.
As P is normal, G is the union of the cosets P·u_x, so that stabilizer is
generated by P's Schreier generators and the u_x that fix block (i, j): one
Schreier pass serves every block.  Identical generator lists generate the
same group, so blocks whose restricted generator lists are equal (as tuples
of exact matrices) share one closure, its irreducibility rank and its PGL
classes; only the class tables of the Schreier generators, which each block
restricts differently, are built per block.  The normalised residues
of L_ij (`matgroups.pgl_keys`, a residue divided by its first nonzero entry)
name its PGL classes, so their number is |H_ij|, and they span what its
residues span, so they give the irreducibility rank.  phi(P) is the orbit
of a class tuple, stored as an int32 row, under per-generator tables: for
each principal Schreier generator s and block, class c goes to the class of
rep_c * s, rep_c the normalised residue, and a batch of rows takes one
numpy gather per table.
If a form is given, every supplied generator must preserve it
(`matgroups.preserves`), and the report also carries the canonical bound
d^s·∏|H_ij|·∏k_i! (`sequences.canonical_bound`), which |G| must not
exceed, and the Fermat ratio |G| / (d^v·v!).  `_verify` builds the report
in one place and refuses it unless both identities hold.

What a closed group adds (tier "full-closure"): three residue counts,
|G|, |P| (the residue block mask is the identity, exact by the block-mask
lemma in matgroups) and |N| (block-scalar residues), so both identities
compare a count with an independent closure.  Its block closures are
capped at |G|, and a whole-space block uses the group itself as L_ij.

Without one (tier "compositional"), |N| comes from comparing the supplied
block-scalar generators against the full Smith-normal-form stabilizer
lattice, and |P| and |G| are the products.  This proves orders far beyond
the element-enumeration cap.

Block lemma.  A partition of the coordinates is valid if every generator
maps each block's span into one block's span.  Valid partitions are closed
under meets, as g maps span(B ∩ C) = span(B) ∩ span(C) into span(B' ∩ C'),
so the finest is unique.  A union-find from singletons that merges the
blocks one block's image meets (by g's exact nonzero entries) makes only merges
forced in every valid partition, so its fixpoint is the finest (Atkinson,
Math. Comp. 29, 1975; Holt-Eick-O'Brien 2005, §4.3).  No inverse is needed:
g is invertible (`MatGroup` refuses a singular residue), so injective, and
counting dimensions it permutes blocks of equal size, and so does g^-1.
The summands are the block orbits, by first coordinate, their blocks in
coordinate order, so each K_i is transitive; blocks not contiguous in that
order are refused with the coordinate order that makes them so.
Refusal lemma: a reducible finest block B rules out every certificate.  A
valid partition is coarser, so B lies in a block C and G_B ≤ G_C.  Either
G_C is not transitive on the finest blocks in C, and one orbit spans a
proper G_C-submodule of span(C), or span(C) is induced from span(B), and
inducing a proper submodule gives a proper submodule.

"Same class in PGL" and irreducibility are decided only on residues,
through matgroups (the normalised-residue and residue Burnside lemmas).
Exact matrices enter as generators (checked exactly to permute the blocks
and to preserve the form), as Schreier generators and transversal
products, and as block-scalar kernel generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diaglattice import _pcompose, block_scalar_group
from .forms import ExactMatrix, Form
from .matgroups import (DEFAULT_CAP, MatGroup, Orbit, _is_block_scalar, _mulmod, _rank_mod_p,
                        _row_keys, closure, np, pgl_keys, preserves, schreier_generators)
from .sequences import SubdegreeSequence, canonical_bound, fermat_order


class CertificateError(ValueError):
    pass


@dataclass
class StructureReport:
    group_order: int
    psi_image_order: int
    k_orders: list
    principal_order: int
    kernel_order: int
    phi_image_order: int
    constituent_orders: dict            # {(i, j): order}, 1-based
    subdegrees: SubdegreeSequence
    intrinsic_multiplicities: list
    tier: str
    canonical_bound: int | None = None
    fermat_ratio: Fraction | None = None

    def identities_hold(self) -> bool:
        return (self.group_order == self.principal_order * self.psi_image_order
                and self.principal_order == self.kernel_order * self.phi_image_order)

    def payload(self) -> dict:
        payload = {
            "tier": self.tier,
            "group_order": self.group_order,
            "psi_image_order": self.psi_image_order,
            "k_orders": self.k_orders,
            "principal_order": self.principal_order,
            "kernel_order": self.kernel_order,
            "phi_image_order": self.phi_image_order,
            "constituents": {"%d,%d" % key: val for key, val in sorted(self.constituent_orders.items())},
            "subdegree_sequence": str(self.subdegrees),
            "intrinsic_multiplicities": list(self.intrinsic_multiplicities),
            "identities_hold": self.identities_hold(),
        }
        if self.canonical_bound is not None:
            payload["canonical_bound"] = self.canonical_bound
        if self.fermat_ratio is not None:
            payload["fermat_ratio"] = "%d/%d" % (self.fermat_ratio.numerator, self.fermat_ratio.denominator)
        return payload


# -- block combinatorics --------------------------------------------------------


def _block_pattern(matrix: ExactMatrix, ranges):
    """psi of a matrix, read from its exact nonzero entries, or None if it does not permute the blocks.

    The result is the tuple b -> the one block that column block b lands in,
    blocks numbered in certificate order; that block lies in b's summand and
    has b's size, and no two blocks land in one.
    """
    row_block = [b for b, (_i, _j, r0, r1) in enumerate(ranges) for _ in range(r0, r1)]
    image = []
    for i, _j, c0, c1 in ranges:
        hit = {row_block[r] for r, row in enumerate(matrix.entries) for c in range(c0, c1) if not row[c].is_zero()}
        b = hit.pop() if len(hit) == 1 else None
        if b is None or ranges[b][0] != i or ranges[b][3] - ranges[b][2] != c1 - c0:
            return None
        image.append(b)
    return tuple(image) if len(set(image)) == len(image) else None


def _restrict(matrix: ExactMatrix, r0, r1, c0, c1) -> ExactMatrix:
    return ExactMatrix([[matrix.entries[r][c] for c in range(c0, c1)] for r in range(r0, r1)])


def _distinct_non_identity(mats):
    """The distinct non-identity matrices, in first-seen order; one identity if that is all."""
    identity = ExactMatrix.identity(mats[0].dim)
    return [m for m in dict.fromkeys(mats) if m != identity] or [identity]


def _check_irreducible(grp: MatGroup, reps, i, j):
    """Residue Burnside (matgroups): the residues of L_ij = grp must span M_s(F_p).

    By the normalised-residue lemma each residue is a nonzero multiple of its
    class's normalised residue, so the class representatives reps span the
    same space with |H_ij| rows instead of |L_ij|.
    """
    size = reps.shape[1]
    if _rank_mod_p(reps.reshape(len(reps), -1).astype(np.int64), grp.p) != size * size:
        raise CertificateError("stabilizer restriction to block (%d,%d) is reducible" % (i + 1, j + 1))


def finest_certificate(gens) -> list[list[int]]:
    """The finest block system's sizes grouped by summand, [[dim W_11, ...], ...] (block lemma, module docstring)."""
    images = [[[r for r in range(g.dim) if not g.entries[r][c].is_zero()] for c in range(g.dim)] for g in gens]
    block = list(range(gens[0].dim))    # a coordinate's block, named by its first coordinate
    for _ in range(len(block)):         # a pass that merges nothing is the fixpoint; r - 1 merges at most
        for image in images:
            for b in set(block):        # union-find: the blocks that one block's image meets merge
                hit = {block[x] for c, rows in enumerate(image) if block[c] == b for x in rows}
                block = [min(hit) if x in hit else x for x in block]
    summand = list(block)               # the orbits of the generators' block permutation
    for image in images:
        for c, rows in enumerate(image):
            hit = {summand[x] for x in [c, *rows]}
            summand = [min(hit) if x in hit else x for x in summand]
    order = sorted(range(len(block)), key=lambda x: (summand[x], block[x]))
    if order != sorted(order):
        raise CertificateError("the finest blocks are not contiguous: reorder the coordinates as %s"
                               % ", ".join("x%d" % (x + 1) for x in order))
    return [[block.count(b) for b in sorted(set(block)) if summand[b] == s] for s in sorted(set(summand))]


def _block_ranges(grouped):
    """[(i, j, start, stop)] in certificate order."""
    out, pos = [], 0
    for i, grp in enumerate(grouped):
        for j, size in enumerate(grp):
            out.append((i, j, pos, pos + size))
            pos += size
    return out


# -- verification --------------------------------------------------------------------


def verify_certificate(group: MatGroup, form: Form | None = None) -> StructureReport:
    """Verify the finest certificate against a closed group; |G|, |P| and |N| are residue counts."""
    group._require_closed()
    return _verify(group, form, group.order)


def verify_compositional(generators, form: Form, block_cap: int = DEFAULT_CAP) -> StructureReport:
    """Prove the group order from generators without materializing the group.

    The generator list must contain block-scalar generators spanning the full
    kernel lattice (checked against the Smith-normal-form stabilizer of the
    form); then |P| = |N|·|phi(P)| and |G| = |P|·|psi(G)|.
    """
    if form is None:
        raise CertificateError("the compositional tier needs the form")
    return _verify(MatGroup(generators), form, block_cap)


def _verify(group, form, block_cap):
    """The one verification body; `group` is closed (full-closure) or open (compositional)."""
    gens = group.generators
    grouped = finest_certificate(gens)
    if form is not None and not preserves(gens, form):
        raise CertificateError("a supplied generator does not preserve the form")
    ranges = _block_ranges(grouped)
    grouping = [len(grp) for grp in grouped]
    flat_sizes = [size for grp in grouped for size in grp]
    patterns = [_block_pattern(g, ranges) for g in gens]
    if None in patterns:
        raise CertificateError("a generator does not permute the certificate blocks")

    # psi(G): the orbit of the identity pattern, whose words give P's transversal
    psi = Orbit([tuple(range(len(ranges)))], lambda batch: [[_pcompose(x, y) for y in patterns] for x in batch])
    psi_order = len(psi.points)
    firsts = [b for b, (_i, j, _r0, _r1) in enumerate(ranges) if j == 0]
    k_orders = [len({x[b:b + k] for x in psi.points}) for b, k in zip(firsts, grouping)]     # |K_i|

    constituent_orders, phi_order = _projective_part(ranges, psi, group, block_cap)

    if group.closed:
        diag = np.zeros((group.dim, group.dim), dtype=bool)
        for _i, _j, r0, r1 in ranges:
            diag[r0:r1, r0:r1] = True
        group_order, principal_order, kernel_order = group.order, 0, 0
        for _, stack in group._stacks():
            principal_order += int((stack[:, ~diag] == 0).all(axis=1).sum())
            kernel_order += int(_is_block_scalar(stack, flat_sizes).sum())
    else:
        kernel_order = _kernel_order(gens, flat_sizes, form)
        principal_order = kernel_order * phi_order
        group_order = principal_order * psi_order

    bound = ratio = None
    if form is not None:
        groups = [(r1 - r0, constituent_orders[(i + 1, j + 1)]) for i, j, r0, r1 in ranges]
        bound = canonical_bound(groups, grouping, form.degree)
        ratio = Fraction(group_order, fermat_order(form.nvars, form.degree))
        if group_order > bound:
            raise CertificateError("group order %d exceeds its canonical bound %d" % (group_order, bound))
    report = StructureReport(
        group_order=group_order, psi_image_order=psi_order, k_orders=k_orders,
        principal_order=principal_order, kernel_order=kernel_order, phi_image_order=phi_order,
        constituent_orders=constituent_orders, subdegrees=SubdegreeSequence(flat_sizes),
        intrinsic_multiplicities=grouping, tier="full-closure" if group.closed else "compositional",
        canonical_bound=bound, fermat_ratio=ratio)
    if not report.identities_hold():
        raise CertificateError(
            "exact-sequence bookkeeping failed: |G|=%d, |P|=%d, |psi|=%d, |N|=%d, |phi|=%d"
            % (group_order, principal_order, psi_order, kernel_order, phi_order))
    return report


def _projective_part(ranges, psi, group, block_cap):
    """({(i, j): |H_ij|}, |phi(P)|), with one closure per distinct restriction list L_ij (module docstring)."""
    orders = {(i + 1, j + 1): 1 for i, j, _r0, _r1 in ranges}     # PGL(1) is trivial
    big = [(b, i, j, r0, r1) for b, (i, j, r0, r1) in enumerate(ranges) if r1 - r0 > 1]
    if not big:
        return orders, 1

    transversal, schreier = schreier_generators(psi, group.generators)
    for m, tup in zip(schreier + transversal, psi.points[:1] * len(schreier) + psi.points):
        if _block_pattern(m, ranges) != tup:
            raise CertificateError("a Schreier generator or transversal product has the wrong block pattern")
    tables = [[] for _ in schreier]     # per principal Schreier generator: class -> class, over all blocks
    start, offset = [], 0               # the blocks' classes are numbered in turn, from offset
    closed = {}                         # restriction list -> (L_ij, class_of, reps); None keys the whole space
    for b, i, j, r0, r1 in big:
        if group.closed and r1 - r0 == group.dim:
            restricted = None
        else:                           # the stabilizer of block (i, j) is P and the cosets P·u_x with x_i(j) = j
            stab_gens = schreier + [u for u, x in zip(transversal, psi.points) if x[b] == b]
            restricted = tuple(_distinct_non_identity([_restrict(s, r0, r1, r0, r1) for s in stab_gens]))
        if restricted not in closed:    # identical generator lists generate the same group: close it once
            grp = group if restricted is None else closure(restricted, cap=block_cap)
            if not grp.closed:
                raise CertificateError("stabilizer block closure exceeded its cap")
            keys = dict.fromkeys(key for _, stack in grp._stacks() for key in pgl_keys(stack, grp.p))
            class_of = {key: c for c, key in enumerate(keys)}
            reps = np.frombuffer(b"".join(class_of), dtype=np.int32).reshape(-1, r1 - r0, r1 - r0)
            _check_irreducible(grp, reps, i, j)
            closed[restricted] = grp, class_of, reps
        grp, class_of, reps = closed[restricted]
        orders[(i + 1, j + 1)] = len(class_of)
        for table, s in zip(tables, schreier):
            products = _mulmod(reps, grp._reduce(_restrict(s, r0, r1, r0, r1)), grp.p)
            table.extend(offset + class_of[key] for key in pgl_keys(products, grp.p))
        start.append(offset + class_of[np.eye(r1 - r0, dtype=np.int32).tobytes()])
        offset += len(class_of)

    tables = np.array(list(dict.fromkeys(map(tuple, tables))), dtype=np.int32)

    def step(batch):                    # a class tuple is an int32 row: one gather for the batch
        rows = np.frombuffer(b"".join(batch), dtype=np.int32).reshape(-1, len(start))
        return _row_keys(tables[:, rows].swapaxes(0, 1))

    phi = Orbit([np.array(start, dtype=np.int32).tobytes()], step)
    return orders, len(phi.points)


def _kernel_order(gens, flat_sizes, form):
    """|N| from the supplied block-scalar generators, checked against the full lattice."""
    lattice = block_scalar_group(form, flat_sizes)
    if lattice.order is None:
        raise CertificateError("block-scalar stabilizer is infinite")
    rule = ("the supplied generators must include block-scalar ones that generate the Smith-normal-form "
            "lattice, such as each scalar c*I of the group")
    supplied_scalars = [g for g in gens if _is_block_scalar(np.array(g.entries, dtype=object), flat_sizes)]
    if not supplied_scalars:
        raise CertificateError("no block-scalar generators supplied for the kernel check: " + rule)
    # _verify checked that they preserve the form, so they lie in the lattice: at most its order
    sub = closure(supplied_scalars, cap=lattice.order)
    if not sub.closed or sub.order != lattice.order:
        raise CertificateError("supplied block-scalar generators span order %s, lattice says %d: %s"
                               % (sub.order if sub.closed else ">cap", lattice.order, rule))
    return lattice.order
