"""Checks of lemmas from the paper's case analysis that live only in the tests.

The classification pipeline (closure, certificates, smoothness and the
survivor scans) never calls these; the tests use them to check individual
steps of the case analysis against the library:

* refined_bound, component, has_monomial_pattern -- the bounds on |G| once a
  monomial pattern is found on the form;
* smtosm_witness -- the monomial forced by a singular restriction of a
  smooth form, found in grevlex order (grevlex_key, also the reference
  order of the packed-monomial test);
* ratio_quotient_law, lambda_addr0, ratioprod_check,
  binomial_supermultiplicativity -- identities of the Fermat-test ratio;
* check_diag_bound -- the block-scalar stabilizer bound d^m;
* scalar_group -- the scalar group of order d, a small test group.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from formaut.cyclotomic import root_of_unity
from formaut.diaglattice import block_scalar_group
from formaut.forms import ExactMatrix, Form, FormError, block_degrees
from formaut.matgroups import MatGroup
from formaut.sequences import SequenceError, SubdegreeSequence, _as_seq, jc, ratio
from formaut.smoothness import SmoothnessError, is_smooth, restrict_to_variables
from formaut.structure import CertificateError, StructureReport


# -- refined bounds ---------------------------------------------------------------


def refined_bound(report: StructureReport, d: int, lemma: str, *,
                  pattern_established: bool = False, summand: int | None = None,
                  normal_index: int | None = None, pattern_count: int | None = None) -> int:
    """Upper bounds for |G| once a special monomial pattern is established.

    lemma is one of 'type2', 'classify', 'd1d2', 'typeII'.  The caller must
    have located the corresponding monomial with has_monomial_pattern
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


def component(form: Form, block_sizes, exponents) -> Form:
    """Terms whose total degree in the i-th variable block is exponents[i]."""
    blocks = tuple(int(b) for b in block_sizes)
    exps = tuple(int(e) for e in exponents)
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if len(exps) != len(blocks):
        raise FormError("need one exponent per block")
    if sum(exps) != form.degree:
        raise FormError("block exponents sum to %d, expected degree %d" % (sum(exps), form.degree))
    bounds = []
    start = 0
    for b in blocks:
        bounds.append((start, start + b))
        start += b
    picked = {}
    for e, c in form.terms.items():
        if all(sum(e[a:b]) == k for (a, b), k in zip(bounds, exps)):
            picked[e] = c
    return Form(form.nvars, picked, form.degree)


def has_monomial_pattern(form: Form, block_sizes, pattern):
    """Search for a term matching per-block degree constraints.

    Each pattern entry is an exact degree or an inclusive (lo, hi) range.
    Returns (True, witness exponent tuple) or (False, None).
    """
    blocks = tuple(int(b) for b in block_sizes)
    if sum(blocks) != form.nvars:
        raise FormError("block sizes sum to %d, expected %d" % (sum(blocks), form.nvars))
    if len(pattern) != len(blocks):
        raise FormError("need one pattern entry per block")
    ranges = []
    for p in pattern:
        if isinstance(p, tuple):
            ranges.append((int(p[0]), int(p[1])))
        else:
            ranges.append((int(p), int(p)))
    for e in form.monomials():
        degs = block_degrees(e, blocks)
        if all(lo <= d <= hi for d, (lo, hi) in zip(degs, ranges)):
            return True, e
    return False, None


# -- the monomial-shape witness of restricted singularities --------------------


def grevlex_key(exps):
    """Sort key of the graded reverse lexicographic order on exponent tuples."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def smtosm_witness(form: Form, k: int, a: int):
    """Term of shape x1^d1 .. xk^dk * x_(k+j) forced by a singular restriction.

    Preconditions: the form (in k + a variables) is smooth while its
    restriction to the first k variables is not.  Returns the witness term,
    or raises if the guarantee fails (which would contradict smoothness).
    """
    if form.nvars != k + a or k < 2 or a < 1:
        raise SmoothnessError("need nvars = k + a with k >= 2, a > 0")
    restriction = restrict_to_variables(form, list(range(k)))
    if restriction.terms:
        cert = is_smooth(restriction)
        if cert.verdict == "smooth":
            raise SmoothnessError("restriction to the first %d variables is smooth" % k)
    for e in sorted(form.terms, key=grevlex_key):
        tail = e[k:]
        if sum(tail) == 1:
            return e
    raise SmoothnessError("no witness monomial: smoothness hypothesis violated")


# -- Fermat-test ratio identities ------------------------------------------------


def ratio_quotient_law(l, d: int, d2: int) -> bool:
    """Check R(l,d)/R(l,d') = (d'/d)^(v(l)-s) exactly."""
    seq = _as_seq(l)
    lhs = ratio(seq, d) / ratio(seq, d2)
    rhs = Fraction(d2, d) ** (sum(seq.parts) - len(seq.parts))
    return lhs == rhs


def lambda_addr0(l, r0: int, k0: int, d: int) -> Fraction:
    """The decay factor R(l + (r0), d) / R(l, d) in closed form.

    Equals v! / (v + r0)! * JC(r0) * (k0 + 1) / d^(r0 - 1), where k0 is the
    multiplicity of r0 in l; the closed form is asserted against the direct
    quotient.
    """
    seq = _as_seq(l)
    if r0 <= 1:
        raise SequenceError("r0 must exceed 1")
    if seq.count(r0) != k0 or k0 < 1:
        raise SequenceError("r0 = %d does not occur in %s with multiplicity %d" % (r0, seq, k0))
    v = sum(seq.parts)
    lam = Fraction(factorial(v), factorial(v + r0)) * Fraction(jc(r0) * (k0 + 1), d ** (r0 - 1))
    direct = ratio(seq + SubdegreeSequence([r0]), d) / ratio(seq, d)
    if lam != direct:
        raise ArithmeticError("closed form disagrees with the direct quotient")
    return lam


def ratioprod_check(n_tuple) -> tuple[bool, Fraction]:
    """q = prod q_i n_i! / (sum n_i)! with q_i = 5/2 for n_i >= 2 else 1.

    Returns (q >= 1, q).  Over all tuples the test passes only at (2, 2).
    """
    ns = sorted((int(n) for n in n_tuple), reverse=True)
    if len(ns) < 2 or any(n < 1 for n in ns):
        raise SequenceError("need m >= 2 positive block sizes")
    q = Fraction(1)
    for n in ns:
        q *= Fraction(5, 2) if n >= 2 else 1
        q *= factorial(n)
    q /= factorial(sum(ns))
    return q >= 1, q


def binomial_supermultiplicativity(l1, l2, d: int):
    """Return (lhs, rhs, disjoint) for C(v1+v2, v1) R(l1+l2) >= R(l1) R(l2)."""
    s1, s2 = _as_seq(l1), _as_seq(l2)
    lhs = comb(sum(s1.parts) + sum(s2.parts), sum(s1.parts)) * ratio(s1 + s2, d)
    rhs = ratio(s1, d) * ratio(s2, d)
    disjoint = not (set(s1.parts) & set(s2.parts))
    return lhs, rhs, disjoint


# -- groups ------------------------------------------------------------------------


def check_diag_bound(form: Form, block_sizes) -> bool:
    """Theorem-level bound: the block-scalar stabilizer has order <= d^m."""
    grp = block_scalar_group(form, block_sizes)
    if grp.order is None:
        return False
    return grp.order <= form.degree ** len(grp.block_sizes)


def scalar_group(dim: int, d: int) -> MatGroup:
    """The order-d group generated by zeta_d * I."""
    g = MatGroup([ExactMatrix.diagonal([root_of_unity(d)] * dim)])
    g.close()
    return g
