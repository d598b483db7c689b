"""Decomposition certificates and the two associated exact sequences.

A certificate asserts a block structure C^r = (+) V_i, V_i = (+)_j W_ij on a
matrix group.  Verification checks that every group element permutes the
blocks of each V_i, extracts the permutation images K_i, the principal
subgroup P (trivial block permutation), the block-scalar kernel N and the
projective constituent orders |H_ij|, and confirms the order bookkeeping
|G| = |P| * |psi(G)| and |P| = |N| * |phi(P)| exactly.

Verification tiers:

* full-closure: every generator is first checked exactly to permute the
  certificate blocks (after the basis change, if any, which is applied to
  the generators before the conjugated group is closed again).  Then the
  residues of the group elements mod p (see matgroups) are streamed once.
  psi of an element is read from its residue block mask, which is its
  exact block mask by the block-mask lemma in matgroups.  For each block
  (i, j) the residue restrictions of the elements that fix it form a
  finite group L_ij; |H_ij| is the number of scalar cosets of L_ij, the
  block is irreducible iff those residues span M_s(F_p), and phi(P) is
  counted as distinct tuples of coset numbers over the principal
  elements.  N counts the principal elements that are block scalar.
* compositional: one closure per block is materialized, the restriction
  L_ij of the stabilizer of block (i, j), generated by the restrictions of
  its Schreier generators.  psi(G) comes from generator block patterns and
  P from Schreier generators.  L_ij contains the principal restrictions,
  so its scalar cosets give |H_ij| and the Cayley table over which the
  class tuples of the principal Schreier generators are closed to phi(P),
  and its residues give the irreducibility rank.  N comes from comparing
  the supplied block-scalar generators against the full Smith-normal-form
  stabilizer lattice.  This proves orders far beyond the
  element-enumeration cap.

Both tiers decide "same class in PGL" and irreducibility only on residues,
through matgroups (the scalar-coset and residue Burnside lemmas).  Exact
matrices enter only as generators (checked exactly to permute the blocks,
and in the compositional tier to preserve the form), as the compositional
tier's Schreier generators and block-scalar kernel generators, and in the
exact confirmation that a basis change conjugates the group to one of its
order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import numpy as np

from .cyclotomic import scalar_to_str
from .diaglattice import block_scalar_group
from .forms import ExactMatrix, Form, act
from .matgroups import (DEFAULT_CAP, GroupError, MatGroup, _is_block_scalar, _mulmod, _rank_mod_p,
                        closure, scalar_cosets)
from .sequences import SubdegreeSequence, canonical_bound


class CertificateError(ValueError):
    pass


class DecompositionCertificate:
    """Claimed block structure: sizes grouped by irreducible summand."""

    def __init__(self, grouped_sizes, basis_change: ExactMatrix | None = None):
        self.grouped_sizes = [list(map(int, grp)) for grp in grouped_sizes]
        if not self.grouped_sizes or any(not g for g in self.grouped_sizes):
            raise CertificateError("empty grouping")
        if any(s < 1 for grp in self.grouped_sizes for s in grp):
            raise CertificateError("block sizes must be positive")
        for grp in self.grouped_sizes:
            if len(set(grp)) != 1:
                raise CertificateError("blocks of one summand must share a dimension")
        self.basis_change = basis_change
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
            "basis_change": [[scalar_to_str(c) for c in row] for row in self.basis_change.entries]
            if self.basis_change else None,
            "blocks": [{"i": i + 1, "j": j + 1, "size": stop - start}
                       for i, j, start, stop in self.block_ranges()],
            "grouping": self.grouping,
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> DecompositionCertificate:
        payload = json.loads(text)
        grouped = {}
        for blk in payload["blocks"]:
            grouped.setdefault(blk["i"], []).append((blk["j"], blk["size"]))
        grouped_sizes = []
        for i in sorted(grouped):
            grouped_sizes.append([size for _, size in sorted(grouped[i])])
        if [len(g) for g in grouped_sizes] != list(payload["grouping"]):
            raise CertificateError("grouping does not match the block list")
        basis = payload.get("basis_change")
        bc = ExactMatrix(basis) if basis else None
        return cls(grouped_sizes, bc)


class StructureReport:
    def __init__(self, **kw):
        self.group_order = kw["group_order"]
        self.psi_image_order = kw["psi_image_order"]
        self.k_orders = kw["k_orders"]
        self.principal_order = kw["principal_order"]
        self.kernel_order = kw["kernel_order"]
        self.phi_image_order = kw["phi_image_order"]
        self.constituent_orders = kw["constituent_orders"]   # {(i,j): order}, 1-based
        self.subdegrees = kw["subdegrees"]
        self.intrinsic_multiplicities = kw["intrinsic_multiplicities"]
        self.tier = kw["tier"]
        self.degree = kw.get("degree")
        self.canonical_bound = kw.get("canonical_bound")
        self.fermat_ratio = kw.get("fermat_ratio")

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


def _check_irreducible(residues, p, i, j, size):
    """Residue Burnside (matgroups): the restrictions to block (i, j) must span M_s(F_p)."""
    rows = np.array([a.ravel() for a in residues], dtype=np.int64)
    if _rank_mod_p(rows, p) != size * size:
        raise CertificateError("stabilizer restriction to block (%d,%d) is reducible" % (i + 1, j + 1))


# -- closed-tier verification ------------------------------------------------------


def verify_certificate(group: MatGroup, cert: DecompositionCertificate,
                       form: Form | None = None) -> StructureReport:
    """Verify a certificate against a closed group by streaming its residues.

    The generators (conjugated by a basis change T, if any) must permute the
    certificate blocks exactly; the conjugated group is then closed again.
    Each element's residue block pattern gives psi; for every block (i, j)
    the residue restrictions of the elements fixing that block form a
    finite group L_ij: |H_ij| is its number of scalar cosets, and the block
    is irreducible iff its residues span M_s(F_p) (matgroups lemmas).
    phi(P) is counted as distinct tuples of class numbers over the
    principal elements, and N as the principal elements that are block
    scalar.
    """
    if not group.closed:
        raise GroupError("closed-tier verification needs a closed group")
    if cert.dim != group.dim:
        raise CertificateError("certificate dimension mismatch")
    ranges = cert.block_ranges()
    grouping = cert.grouping
    T = cert.basis_change
    gens = group.generators
    if T:
        Tinv = T.inverse()
        gens = [Tinv * g * T for g in gens]
    if any(_block_pattern(_nonzero_mask(g), ranges, grouping) is None for g in gens):
        raise CertificateError("a generator does not permute the certificate blocks")
    if T:
        conjugated = MatGroup(gens)
        if not conjugated.close(group.order):
            raise CertificateError("basis change does not conjugate the group to one of its order")
        group = conjugated

    psi_values = set()
    principal_count = 0
    kernel_count = 0
    principal_keys = set()
    block_members = [{} for _ in ranges]      # residue key -> residue restriction
    identity_tuple = tuple(tuple(range(k)) for k in grouping)

    for arr in group.residues():
        tup = _block_pattern(arr != 0, ranges, grouping)
        if tup is None:
            raise CertificateError("an element does not permute the certificate blocks")
        psi_values.add(tup)
        keys = []
        for bi, (i, j, r0, r1) in enumerate(ranges):
            if tup[i][j] == j:
                sub = np.ascontiguousarray(arr[r0:r1, r0:r1])
                key = sub.tobytes()
                block_members[bi].setdefault(key, sub)
                keys.append(key)
        if tup == identity_tuple:
            principal_count += 1
            principal_keys.add(tuple(keys))
            kernel_count += int(_is_block_scalar(arr, cert.flat_sizes))

    k_orders = _check_transitive(psi_values, grouping)
    classes = []
    constituent_orders = {}
    for members, (i, j, r0, r1) in zip(block_members, ranges):
        _check_irreducible(members.values(), group.p, i, j, r1 - r0)
        class_of, reps = scalar_cosets(members.values(), group.p)
        classes.append(class_of)
        constituent_orders[(i + 1, j + 1)] = len(reps)
    phi_tuples = {tuple(cls[key] for cls, key in zip(classes, keys)) for keys in principal_keys}

    return _finish_report(
        tier="full-closure",
        group_order=group.order,
        psi_order=len(psi_values),
        k_orders=k_orders,
        principal_order=principal_count,
        kernel_order=kernel_count,
        phi_order=len(phi_tuples),
        constituent_orders=constituent_orders,
        cert=cert,
        form=form,
    )


def _check_transitive(psi_values, grouping):
    k_orders = []
    for i, k in enumerate(grouping):
        proj = {tup[i] for tup in psi_values}
        k_orders.append(len(proj))
        orbit = {0}
        frontier = [0]
        while frontier:
            a = frontier.pop()
            for perm in proj:
                if perm[a] not in orbit:
                    orbit.add(perm[a])
                    frontier.append(perm[a])
        if len(orbit) != k:
            raise CertificateError("block permutations of summand %d are not transitive" % (i + 1))
    return k_orders


def _finish_report(tier, group_order, psi_order, k_orders, principal_order,
                   kernel_order, phi_order, constituent_orders, cert, form):
    subdeg = SubdegreeSequence(cert.flat_sizes)
    intrinsic = cert.grouping
    bound = None
    ratio = None
    degree = None
    if form is not None:
        degree = form.degree
        groups = [(stop - start, constituent_orders[(i + 1, j + 1)])
                  for (i, j, start, stop) in cert.block_ranges()]
        bound = canonical_bound(groups, intrinsic, degree)
        ratio = Fraction(group_order, degree ** form.nvars * factorial(form.nvars))
        if group_order > bound:
            raise CertificateError("group order %d exceeds its canonical bound %d" % (group_order, bound))
    report = StructureReport(
        group_order=group_order,
        psi_image_order=psi_order,
        k_orders=k_orders,
        principal_order=principal_order,
        kernel_order=kernel_order,
        phi_image_order=phi_order,
        constituent_orders=constituent_orders,
        subdegrees=subdeg,
        intrinsic_multiplicities=intrinsic,
        tier=tier,
        degree=degree,
        canonical_bound=bound,
        fermat_ratio=ratio,
    )
    if not report.identities_hold():
        raise CertificateError(
            "exact-sequence bookkeeping failed: |G|=%d, |P|=%d, |psi|=%d, |N|=%d, |phi|=%d"
            % (group_order, principal_order, psi_order, kernel_order, phi_order))
    return report


# -- compositional verification -----------------------------------------------------


def verify_compositional(generators, cert: DecompositionCertificate, form: Form,
                         block_cap: int = DEFAULT_CAP) -> StructureReport:
    """Prove the group order from generators without materializing the group.

    The generator list must contain block-scalar generators spanning the full
    kernel lattice (checked against the Smith-normal-form stabilizer of the
    form); everything else is derived: psi(G) by permutation closure, P by
    Schreier generators, phi(P) by closing projective class tuples over
    the Cayley tables of the block-stabilizer restrictions, one closure per
    block.
    """
    ranges = cert.block_ranges()
    grouping = cert.grouping
    gens = list(generators)
    if not gens:
        raise CertificateError("need generators")
    for g in gens:
        if act(form, g) != form:
            raise CertificateError("a supplied generator does not preserve the form")

    gen_tuples = []
    for g in gens:
        tup = _block_pattern(_nonzero_mask(g), ranges, grouping)
        if tup is None:
            raise CertificateError("a generator does not permute the certificate blocks")
        gen_tuples.append(tup)

    identity = tuple(tuple(range(k)) for k in grouping)
    transversal = {identity: ()}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for gi, tup in enumerate(gen_tuples):
            nxt = _psi_compose(cur, tup)
            if nxt not in transversal:
                transversal[nxt] = transversal[cur] + (gi,)
                frontier.append(nxt)
    psi_order = len(transversal)
    k_orders = _check_transitive(set(transversal), grouping)

    def word_matrix(word):
        m = ExactMatrix.identity(cert.dim)
        for gi in word:
            m = m * gens[gi]
        return m

    def psi_of(matrix):
        tup = _block_pattern(_nonzero_mask(matrix), ranges, grouping)
        if tup is None:
            raise CertificateError("product fell off the block lattice")
        return tup

    rep_mats = {tup: word_matrix(word) for tup, word in transversal.items()}
    rep_invs = {tup: m.inverse() for tup, m in rep_mats.items()}

    def preimage_generators(member):
        """Schreier generators of the psi-preimage of the subgroup {member}."""
        sub = [tup for tup in transversal if member(tup)]
        reps = {}
        coset_of = {}
        for tup in transversal:
            marker = frozenset(_psi_compose(s, tup) for s in sub)
            if marker not in reps:
                reps[marker] = tup
            coset_of[tup] = reps[marker]
        out = []
        for rep_tup in set(coset_of.values()):
            rep = rep_mats[rep_tup]
            for g in gens:
                u = rep * g
                target = coset_of[psi_of(u)]
                s = u * rep_invs[target]
                if not member(psi_of(s)):
                    raise CertificateError("Schreier generator escaped the subgroup")
                if s not in out:
                    out.append(s)
        return out

    schreier = preimage_generators(lambda tup: tup == identity)

    # kernel lattice vs supplied block-scalar generators
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
    kernel_order = lattice.order

    # one closure per block: the restriction L_ij of the block stabilizer, which
    # contains the principal restrictions; its projective classes (scalar cosets)
    # give |H_ij| and the Cayley table that phi(P) is closed over
    block_groups = []
    class_tables = []
    class_index = []
    constituent_orders = {}
    for (i, j, r0, r1) in ranges:
        stab_gens = preimage_generators(lambda tup, i=i, j=j: tup[i][j] == j)
        grp = closure([_restrict(s, r0, r1, r0, r1) for s in stab_gens], cap=block_cap)
        if not grp.closed:
            raise CertificateError("stabilizer block closure exceeded its cap")
        _check_irreducible(grp.residues(), grp.p, i, j, r1 - r0)
        class_of, reps = scalar_cosets(grp.residues(), grp.p)
        reps_stack = np.stack(reps)
        class_tables.append([[class_of[m.tobytes()] for m in _mulmod(a, reps_stack, grp.p)]
                             for a in reps])
        class_index.append(class_of)
        block_groups.append(grp)
        constituent_orders[(i + 1, j + 1)] = len(reps)

    def class_tuple(blocks):
        """Class numbers of one square matrix per block."""
        return tuple(class_of[grp.key(m)]
                     for class_of, grp, m in zip(class_index, block_groups, blocks))

    gen_class_tuples = {class_tuple(_restrict(s, r0, r1, r0, r1) for (_i, _j, r0, r1) in ranges)
                        for s in schreier}
    nblocks = len(ranges)
    ident_tuple = class_tuple(ExactMatrix.identity(r1 - r0) for (_i, _j, r0, r1) in ranges)
    phi_image = {ident_tuple}
    frontier = [ident_tuple]
    while frontier:
        cur = frontier.pop()
        for gt in gen_class_tuples:
            nxt = tuple(class_tables[bi][cur[bi]][gt[bi]] for bi in range(nblocks))
            if nxt not in phi_image:
                phi_image.add(nxt)
                frontier.append(nxt)
    phi_order = len(phi_image)

    principal_order = kernel_order * phi_order
    group_order = principal_order * psi_order

    return _finish_report(
        tier="compositional",
        group_order=group_order,
        psi_order=psi_order,
        k_orders=k_orders,
        principal_order=principal_order,
        kernel_order=kernel_order,
        phi_order=phi_order,
        constituent_orders=constituent_orders,
        cert=cert,
        form=form,
    )


# -- refined bounds ---------------------------------------------------------------


def refined_bound(report: StructureReport, d: int, lemma: str, *,
                  pattern_established: bool = False, summand: int | None = None,
                  normal_index: int | None = None, pattern_count: int | None = None) -> int:
    """Upper bounds for |G| once a special monomial pattern is established.

    lemma is one of 'type2', 'classify', 'd1d2', 'typeII'.  The caller must
    have located the corresponding monomial with forms.has_monomial_pattern
    on the actual form and pass pattern_established=True.
    """
    if not pattern_established:
        raise CertificateError("establish the monomial pattern on the form first")
    B = report.canonical_bound
    if B is None:
        raise CertificateError("report carries no canonical bound (no form supplied)")
    if lemma == "type2":
        if summand is None:
            raise CertificateError("type2 needs the summand index")
        k = report.intrinsic_multiplicities[summand - 1]
        h = report.constituent_orders[(summand, 1)]
        return B // (h ** k)
    if lemma == "classify":
        if summand is None:
            raise CertificateError("classify needs the summand index")
        k = report.intrinsic_multiplicities[summand - 1]
        if k < 2:
            raise CertificateError("classify needs an intrinsic multiplicity of at least 2")
        h = report.constituent_orders[(summand, 1)]
        return B // h if k == 2 else B // (2 * h)
    if lemma == "d1d2":
        if normal_index is None or normal_index < 1:
            raise CertificateError("d1d2 needs the normal-subgroup index")
        return B // normal_index
    if lemma == "typeII":
        if pattern_count is None or pattern_count < 1:
            raise CertificateError("typeII needs the pattern count c >= 1")
        return B // (d ** (pattern_count - 1))
    raise CertificateError("unknown lemma %r" % lemma)
