"""Decomposition certificates and the two associated exact sequences.

A certificate asserts a block structure C^r = (+) V_i, V_i = (+)_j W_ij on a
matrix group, in the coordinates of its generators.  Verification checks
that every generator permutes the blocks of each V_i (exactly, so every
element does), extracts the permutation images K_i, the principal subgroup
P (trivial block permutation), the block-scalar kernel N and the projective
constituent orders |H_ij|, and confirms the order bookkeeping
|G| = |P| * |psi(G)| and |P| = |N| * |phi(P)| exactly.

One algorithm serves both tiers, and each of its closures is one
`matgroups.Orbit`.  psi(G) is the orbit of the identity block pattern
under the generators' patterns, and P, the stabilizer of that point, gets
its generators by Schreier's lemma (`matgroups.schreier_generators`),
built only when some block has size > 1.  A 1 x 1 block has H_ij = 1 and
is irreducible, as PGL(1) is trivial.  Every larger block (i, j) gets one
closure, the restriction L_ij of its stabilizer, whose generators are the
Schreier generators of the orbit of j under x -> psi(g)_i^-1(x), a right
action: its normalised residues (`matgroups.pgl_keys`, a residue divided
by its first nonzero entry) name its PGL classes, so their number is
|H_ij|, and its residues give the irreducibility rank.  phi(P) is the
orbit of a class tuple, stored as an int32 row, under per-generator
tables: for each principal Schreier generator s and block, class c goes to
the class of rep_c * s, rep_c the normalised residue, and a batch of rows
takes one numpy gather per table.  If a form is given, every supplied
generator must preserve it (`matgroups.preserves`), and the report also
carries the canonical bound d^s·∏|H_ij|·∏k_i! (`sequences.canonical_bound`),
which |G| must not exceed, and the Fermat ratio |G| / (d^v·v!).  `_verify`
builds the report in one place and refuses it unless both identities hold.

What a closed group adds (tier "full-closure"): three residue counts,
|G|, |P| (the residue block mask is the identity, exact by the block-mask
lemma in matgroups) and |N| (block-scalar residues), so both identities
compare a count with an independent closure.  Its block closures are
capped at |G|, and a whole-space block uses the group itself as L_ij.

Without one (tier "compositional"), |N| comes from comparing the supplied
block-scalar generators against the full Smith-normal-form stabilizer
lattice, and |P| and |G| are the products.  This proves orders far beyond
the element-enumeration cap.

A certificate has no basis change.  For blocks in other coordinates x = T·y,
verify the conjugated generators T^-1·g·T against act(form, T) instead.

"Same class in PGL" and irreducibility are decided only on residues,
through matgroups (the normalised-residue and residue Burnside lemmas).
Exact matrices enter as generators (checked exactly to permute the blocks
and to preserve the form), as Schreier generators and transversal
products, and as block-scalar kernel generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diaglattice import block_scalar_group
from .forms import ExactMatrix, Form
from .matgroups import (DEFAULT_CAP, GroupError, MatGroup, Orbit, _is_block_scalar, _mulmod, _rank_mod_p,
                        _row_keys, closure, pgl_keys, preserves, schreier_generators)
from .sequences import SubdegreeSequence, canonical_bound, fermat_order


class CertificateError(ValueError):
    pass


class DecompositionCertificate:
    """Claimed block structure: sizes grouped by irreducible summand."""

    def __init__(self, grouped_sizes):
        self.grouped_sizes = [list(map(int, grp)) for grp in grouped_sizes]
        if not self.grouped_sizes or any(not g for g in self.grouped_sizes):
            raise CertificateError("empty grouping")
        if any(s < 1 for grp in self.grouped_sizes for s in grp):
            raise CertificateError("block sizes must be positive")
        for grp in self.grouped_sizes:
            if len(set(grp)) != 1:
                raise CertificateError("blocks of one summand must share a dimension")
        self.dim = sum(sum(g) for g in self.grouped_sizes)

    @property
    def flat_sizes(self):
        return [s for grp in self.grouped_sizes for s in grp]

    @property
    def grouping(self):
        return [len(grp) for grp in self.grouped_sizes]

    def block_ranges(self):
        """[(i, j, start, stop)] in certificate order."""
        out = []
        pos = 0
        for i, grp in enumerate(self.grouped_sizes):
            for j, size in enumerate(grp):
                out.append((i, j, pos, pos + size))
                pos += size
        return out

    def to_json(self) -> str:
        payload = {
            "blocks": [{"i": i + 1, "j": j + 1, "size": stop - start}
                       for i, j, start, stop in self.block_ranges()],
            "grouping": self.grouping,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> DecompositionCertificate:
        """Blocks (i, j) must be exactly i = 1..m, j = 1..k_i for grouping [k_1, ..., k_m], each once."""
        payload = json.loads(text)
        blocks, grouping = payload["blocks"], payload["grouping"]
        if payload.get("basis_change") is not None:
            raise CertificateError("basis_change is not supported: conjugate the generators and the form")
        fields = [blk[key] for blk in blocks for key in ("i", "j", "size")] + list(grouping)
        if any(type(x) is not int for x in fields):
            raise CertificateError("block indices, block sizes and the grouping must be integers")
        sizes = {(blk["i"], blk["j"]): blk["size"] for blk in blocks}
        expected = [(i, j) for i, k in enumerate(grouping, 1) for j in range(1, k + 1)]
        if len(sizes) != len(blocks) or sorted(sizes) != expected:
            raise CertificateError("the blocks must be (i, j) for i = 1..m, j = 1..k_i, each once, "
                                   "for the grouping [k_1, ..., k_m]")
        return cls([[sizes[i, j] for j in range(1, k + 1)] for i, k in enumerate(grouping, 1)])


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

    def to_json(self) -> str:
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
        return json.dumps(payload)


# -- block combinatorics --------------------------------------------------------


def _nonzero_mask(matrix: ExactMatrix):
    return np.array([[not c.is_zero() for c in row] for row in matrix.entries])


def _block_pattern(mask, ranges, grouping):
    """psi of a matrix from its nonzero mask, or None if it does not permute blocks.

    The result holds, per summand i, the tuple j -> index of the unique row
    block that column block (i, j) lands in.
    """
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


def _psi_compose(a, b):
    """psi(A @ B) from psi(A), psi(B): block j goes through B first, then A."""
    return tuple(tuple(ta[tb[j]] for j in range(len(ta))) for ta, tb in zip(a, b))


def _restrict(matrix: ExactMatrix, r0, r1, c0, c1) -> ExactMatrix:
    return ExactMatrix([[matrix.entries[r][c] for c in range(c0, c1)] for r in range(r0, r1)])


def _distinct_non_identity(mats):
    """The distinct non-identity matrices, in first-seen order; one identity if that is all."""
    identity = ExactMatrix.identity(mats[0].dim)
    out = []
    for m in mats:
        if m != identity and m not in out:
            out.append(m)
    return out or [identity]


def _check_irreducible(grp: MatGroup, i, j, size):
    """Residue Burnside (matgroups): the residues of L_ij must span M_s(F_p)."""
    rows = np.concatenate([stack.reshape(len(stack), -1) for _, stack in grp._stacks()])
    if _rank_mod_p(rows.astype(np.int64), grp.p) != size * size:
        raise CertificateError("stabilizer restriction to block (%d,%d) is reducible" % (i + 1, j + 1))


def _check_transitive(psi_group, grouping):
    """|K_i| per summand; K_i, a group, is transitive iff its images of block 0 are all blocks."""
    k_orders = []
    for i, k in enumerate(grouping):
        proj = {tup[i] for tup in psi_group}
        k_orders.append(len(proj))
        if len({perm[0] for perm in proj}) != k:
            raise CertificateError("block permutations of summand %d are not transitive" % (i + 1))
    return k_orders


# -- verification --------------------------------------------------------------------


def verify_certificate(group: MatGroup, cert: DecompositionCertificate,
                       form: Form | None = None) -> StructureReport:
    """Verify a certificate against a closed group; |G|, |P| and |N| are residue counts."""
    if not group.closed:
        raise GroupError("closed-tier verification needs a closed group")
    return _verify(group.generators, cert, form, group, DEFAULT_CAP)


def verify_compositional(generators, cert: DecompositionCertificate, form: Form,
                         block_cap: int = DEFAULT_CAP) -> StructureReport:
    """Prove the group order from generators without materializing the group.

    The generator list must contain block-scalar generators spanning the full
    kernel lattice (checked against the Smith-normal-form stabilizer of the
    form); then |P| = |N|·|phi(P)| and |G| = |P|·|psi(G)|.
    """
    return _verify(list(generators), cert, form, None, block_cap)


def _verify(gens, cert, form, group, block_cap):
    """The one verification body; `group` is the closed group, or None (compositional)."""
    if not gens:
        raise CertificateError("need generators")
    if cert.dim != gens[0].dim:
        raise CertificateError("certificate dimension mismatch")
    if form is not None and not preserves(gens, form):
        raise CertificateError("a supplied generator does not preserve the form")
    ranges = cert.block_ranges()
    grouping = cert.grouping
    gen_tuples = [_block_pattern(_nonzero_mask(g), ranges, grouping) for g in gens]
    if None in gen_tuples:
        raise CertificateError("a generator does not permute the certificate blocks")

    # psi(G): the orbit of the identity pattern, whose words give P's transversal
    identity = tuple(tuple(range(k)) for k in grouping)
    psi = Orbit([identity], lambda batch: [[_psi_compose(cur, tup) for tup in gen_tuples] for cur in batch])
    psi_order = len(psi.points)
    k_orders = _check_transitive(psi.points, grouping)

    constituent_orders, phi_order = _projective_part(gens, gen_tuples, cert, psi, group, block_cap)

    if group is not None:
        diag = np.zeros((cert.dim, cert.dim), dtype=bool)
        for _i, _j, r0, r1 in ranges:
            diag[r0:r1, r0:r1] = True
        group_order, principal_order, kernel_order = group.order, 0, 0
        for _, stack in group._stacks():
            principal_order += int((stack[:, ~diag] == 0).all(axis=1).sum())
            kernel_order += int(_is_block_scalar(stack, cert.flat_sizes).sum())
    else:
        kernel_order = _kernel_order(gens, cert, form)
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
        constituent_orders=constituent_orders, subdegrees=SubdegreeSequence(cert.flat_sizes),
        intrinsic_multiplicities=grouping, tier="compositional" if group is None else "full-closure",
        canonical_bound=bound, fermat_ratio=ratio)
    if not report.identities_hold():
        raise CertificateError(
            "exact-sequence bookkeeping failed: |G|=%d, |P|=%d, |psi|=%d, |N|=%d, |phi|=%d"
            % (group_order, principal_order, psi_order, kernel_order, phi_order))
    return report


def _projective_part(gens, gen_tuples, cert, psi, group, block_cap):
    """({(i, j): |H_ij|}, |phi(P)|), with one closure L_ij per block of size > 1 (module docstring)."""
    ranges = cert.block_ranges()
    orders = {(i + 1, j + 1): 1 for i, j, _r0, _r1 in ranges}     # PGL(1) is trivial
    big = [(i, j, r0, r1) for i, j, r0, r1 in ranges if r1 - r0 > 1]
    if not big:
        return orders, 1

    def stabilizer_generators(orbit, member):
        """Schreier generators of the orbit seed's stabilizer, each checked to lie in it."""
        out = schreier_generators(orbit, gens)
        for s in out:
            tup = _block_pattern(_nonzero_mask(s), ranges, cert.grouping)
            if tup is None or not member(tup):
                raise CertificateError("Schreier generator escaped the subgroup")
        return out

    identity = psi.points[0]
    schreier = stabilizer_generators(psi, lambda tup: tup == identity)
    tables = [[] for _ in schreier]     # per principal Schreier generator: class -> class, over all blocks
    start, offset = [], 0               # the blocks' classes are numbered in turn, from offset
    for (i, j, r0, r1) in big:
        if group is not None and r1 - r0 == cert.dim:
            grp = group
        else:
            blocks = Orbit([j], lambda batch, i=i: [[tup[i].index(x) for tup in gen_tuples] for x in batch])
            stab_gens = stabilizer_generators(blocks, lambda tup, i=i, j=j: tup[i][j] == j)
            grp = closure(_distinct_non_identity([_restrict(s, r0, r1, r0, r1) for s in stab_gens]),
                          cap=group.order if group is not None else block_cap)
            if not grp.closed:
                raise CertificateError("stabilizer block closure exceeded its cap")
        _check_irreducible(grp, i, j, r1 - r0)
        keys = dict.fromkeys(key for _, stack in grp._stacks() for key in pgl_keys(stack, grp.p))
        class_of = {key: c for c, key in enumerate(keys)}
        orders[(i + 1, j + 1)] = len(class_of)
        reps = np.frombuffer(b"".join(class_of), dtype=np.int32).reshape(-1, r1 - r0, r1 - r0)
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


def _kernel_order(gens, cert, form):
    """|N| from the supplied block-scalar generators, checked against the full lattice."""
    lattice = block_scalar_group(form, cert.flat_sizes)
    if lattice.order is None:
        raise CertificateError("block-scalar stabilizer is infinite")
    supplied_scalars = [g for g in gens if _is_block_scalar(np.array(g.entries, dtype=object),
                                                            cert.flat_sizes)]
    if not supplied_scalars:
        raise CertificateError("no block-scalar generators supplied for the kernel check")
    sub = closure(supplied_scalars, cap=max(4 * lattice.order, 1024))
    if not sub.closed or sub.order != lattice.order:
        raise CertificateError(
            "supplied block-scalar generators span order %s, lattice says %d"
            % (sub.order if sub.closed else ">cap", lattice.order))
    return lattice.order
