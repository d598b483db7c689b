"""Decomposition certificates and the two associated exact sequences.

A certificate asserts a block structure C^r = (+) V_i, V_i = (+)_j W_ij on a
matrix group.  Verification checks that every generator permutes the blocks
of each V_i (exactly, after the basis change T if any, so every element
does), extracts the permutation images K_i, the principal subgroup P
(trivial block permutation), the block-scalar kernel N and the projective
constituent orders |H_ij|, and confirms the order bookkeeping
|G| = |P| * |psi(G)| and |P| = |N| * |phi(P)| exactly.

One algorithm serves both tiers.  psi(G) is the closure of the generators'
block patterns.  P gets Schreier generators (Schreier's lemma; Seress,
"Permutation Group Algorithms", 2003), whose transversal products are
built only when some block has size > 1.  A 1 x 1 block has H_ij = 1 and
is irreducible, as PGL(1) is trivial.  Every larger block gets one closure,
the restriction L_ij of its stabilizer, generated by the restrictions of
the stabilizer's Schreier generators: its scalar cosets give |H_ij| and
its residues the irreducibility rank.  phi(P) is the closure of class
tuples under per-generator tables: for each principal Schreier generator
s and block, class c goes to the class of rep_c * s.  If a form is given,
every supplied generator must preserve it (before any basis change).

What a closed group adds (tier "full-closure"): three residue counts,
|G|, |P| (the residue block mask is the identity, exact by the block-mask
lemma in matgroups) and |N| (block-scalar residues), so both identities
compare a count with an independent closure.  Its block closures are
capped at |G|, and a whole-space block uses the group itself as L_ij.  A
basis change conjugates the generators; the conjugated group must close
again to the same order.

Without one (tier "compositional"), |N| comes from comparing the supplied
block-scalar generators against the full Smith-normal-form stabilizer
lattice, and |P| and |G| are the products.  This proves orders far beyond
the element-enumeration cap.  This tier refuses a basis change.

"Same class in PGL" and irreducibility are decided only on residues,
through matgroups (the scalar-coset and residue Burnside lemmas).  Exact
matrices enter as generators (checked exactly to permute the blocks and to
preserve the form), as Schreier generators and transversal products, as
block-scalar kernel generators, and in the exact confirmation that a basis
change conjugates the group to one of its order.
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
        if basis_change is not None and basis_change.dim != self.dim:
            raise CertificateError("basis change must be %d x %d" % (self.dim, self.dim))
        if basis_change is not None and not basis_change.is_invertible():
            raise CertificateError("basis change is singular")

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
    if cert.basis_change is not None:
        raise CertificateError("the compositional tier does not support a basis change")
    return _verify(list(generators), cert, form, None, block_cap)


def _verify(gens, cert, form, group, block_cap):
    """The one verification body; `group` is the closed group, or None (compositional)."""
    if not gens:
        raise CertificateError("need generators")
    if cert.dim != gens[0].dim:
        raise CertificateError("certificate dimension mismatch")
    if form is not None and any(act(form, g) != form for g in gens):
        raise CertificateError("a supplied generator does not preserve the form")
    ranges = cert.block_ranges()
    grouping = cert.grouping
    T = cert.basis_change
    if T:
        Tinv = T.inverse()
        gens = [Tinv * g * T for g in gens]
    gen_tuples = [_block_pattern(_nonzero_mask(g), ranges, grouping) for g in gens]
    if None in gen_tuples:
        raise CertificateError("a generator does not permute the certificate blocks")
    if T:
        conjugated = MatGroup(gens)
        if not conjugated.close(group.order):
            raise CertificateError("basis change does not conjugate the group to one of its order")
        group = conjugated

    # psi(G): the closure of the generators' block patterns, with words for a transversal
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
    k_orders = _check_transitive(transversal, grouping)

    constituent_orders, phi_order = _projective_part(gens, cert, transversal, group, block_cap)

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

    return _finish_report(
        tier="compositional" if group is None else "full-closure",
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


def _projective_part(gens, cert, transversal, group, block_cap):
    """({(i, j): |H_ij|}, |phi(P)|), with one closure L_ij per block of size > 1 (module docstring)."""
    ranges = cert.block_ranges()
    orders = {(i + 1, j + 1): 1 for i, j, _r0, _r1 in ranges}     # PGL(1) is trivial
    big = [(i, j, r0, r1) for i, j, r0, r1 in ranges if r1 - r0 > 1]
    if not big:
        return orders, 1

    def word_matrix(word):
        m = ExactMatrix.identity(cert.dim)
        for gi in word:
            m = m * gens[gi]
        return m

    def psi_of(matrix):
        tup = _block_pattern(_nonzero_mask(matrix), ranges, cert.grouping)
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

    identity = tuple(tuple(range(k)) for k in cert.grouping)
    schreier = preimage_generators(lambda tup: tup == identity)
    tables = [[] for _ in schreier]     # per principal Schreier generator, one table per block
    start = []
    for (i, j, r0, r1) in big:
        if group is not None and r1 - r0 == cert.dim:
            grp = group
        else:
            stab_gens = preimage_generators(lambda tup, i=i, j=j: tup[i][j] == j)
            grp = closure([_restrict(s, r0, r1, r0, r1) for s in stab_gens],
                          cap=group.order if group is not None else block_cap)
            if not grp.closed:
                raise CertificateError("stabilizer block closure exceeded its cap")
        _check_irreducible(grp, i, j, r1 - r0)
        class_of, reps = scalar_cosets(grp.residues(), grp.p)
        orders[(i + 1, j + 1)] = len(reps)
        reps = np.stack(reps)
        for table, s in zip(tables, schreier):
            products = _mulmod(reps, grp._reduce(_restrict(s, r0, r1, r0, r1)), grp.p)
            table.append([class_of[m.tobytes()] for m in products])
        start.append(class_of[np.eye(r1 - r0, dtype=np.int32).tobytes()])

    tables = {tuple(map(tuple, table)) for table in tables}
    start = tuple(start)
    phi_image = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for table in tables:
            nxt = tuple(t[c] for t, c in zip(table, cur))
            if nxt not in phi_image:
                phi_image.add(nxt)
                frontier.append(nxt)
    return orders, len(phi_image)


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
