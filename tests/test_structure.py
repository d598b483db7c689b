import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formaut import structure
from formaut.catalog import get_entry, load_entries, verify_entry
from formaut.cyclotomic import root_of_unity
from formaut.forms import ExactMatrix, act, parse
from formaut.matgroups import MatGroup, closure
from formaut.structure import (CertificateError, DecompositionCertificate, StructureReport, finest_certificate,
                               verify_certificate, verify_compositional)

from lemmas import has_monomial_pattern, ratioprod_check, refined_bound, scalar_group
from oracles import certificate_by_search, fermat_form, permutation_matrix


def certificate(entry):
    return finest_certificate(entry.generators())


def test_certificate_rejects_mixed_summand():
    with pytest.raises(CertificateError):
        DecompositionCertificate([[2, 1]])


@pytest.fixture(scope="module")
def quintic_group():
    entry = get_entry("quintic-480")
    return entry, closure(entry.generators())


def test_example_quintic_report(quintic_group):
    entry, grp = quintic_group
    rep = verify_certificate(grp, certificate(entry), entry.form())
    assert rep.group_order == 480
    assert str(rep.subdegrees) == "2^1 1^3"
    assert list(rep.intrinsic_multiplicities) == [1, 2, 1]
    assert rep.constituent_orders[(1, 1)] == 24
    assert rep.canonical_bound == 30000
    assert rep.identities_hold()
    assert rep.group_order <= rep.canonical_bound


def test_fermat_structure_counts():
    entry = get_entry("fermat-1-3")
    grp = closure(entry.generators())
    rep = verify_certificate(grp, certificate(entry), entry.form())
    assert rep.group_order == 162
    assert rep.kernel_order == 27
    assert rep.psi_image_order == 6
    assert set(rep.constituent_orders.values()) == {1}
    assert rep.canonical_bound == 162       # Fermat meets its bound


def test_certificate_violation_detected():
    entry = get_entry("klein-quartic")
    grp = closure(entry.generators())
    bad = DecompositionCertificate([[1, 1, 1]])   # Klein is not monomial
    with pytest.raises(CertificateError):
        verify_certificate(grp, bad, entry.form())


def test_intransitive_summand_is_refused():
    # the swap moves block 1 to block 2 but never to block 3
    z3 = root_of_unity(3)
    grp = closure([ExactMatrix.diagonal([z3, 1, 1]), permutation_matrix([1, 0, 2])])
    with pytest.raises(CertificateError, match="not transitive"):
        verify_certificate(grp, DecompositionCertificate([[1, 1, 1]]))
    assert verify_certificate(grp, DecompositionCertificate([[1, 1], [1]])).k_orders == [2, 1]


# The report of the removed in-certificate basis change T on the T-conjugated Fermat group.
BASIS_CHANGE_REPORT = {
    "tier": "full-closure", "group_order": 162, "psi_image_order": 6, "k_orders": [6], "principal_order": 27,
    "kernel_order": 27, "phi_image_order": 1, "constituents": {"1,1": 1, "1,2": 1, "1,3": 1},
    "subdegree_sequence": "1^3", "intrinsic_multiplicities": [3], "identities_hold": True,
    "canonical_bound": 162, "fermat_ratio": "1/1"}


def test_caller_side_basis_change_recipe():
    # the group and form in the basis y = T^-1 x, verified by conjugating back (README)
    entry = get_entry("fermat-1-3")
    T = ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    gens = [T * g * T.inverse() for g in entry.generators()]
    form = act(entry.form(), T.inverse())
    assert form != entry.form()
    back = [T.inverse() * g * T for g in gens]
    rep = verify_certificate(closure(back), finest_certificate(back), act(form, T))
    assert rep.payload() == BASIS_CHANGE_REPORT


def _lead_entry_key(m: ExactMatrix, conductor: int):
    """Reference PGL class key: divide by the first nonzero entry over CycNum."""
    entries = [c for row in m.entries for c in row]
    inv = next(c for c in entries if not c.is_zero()).inverse()
    scaled = [(c * inv).to_conductor(conductor) for c in entries]
    return tuple((v.den, tuple(v.num)) for v in scaled)


def _oracle_counts(grp, cert):
    """|H_ij| and |phi(P)| by lead-entry keys of the diagonal-block restrictions."""
    ranges = cert.block_ranges()
    constituents = {(i + 1, j + 1): set() for i, j, _r0, _r1 in ranges}
    phi_image = set()
    for g in grp.elements():
        keys = []
        for i, j, r0, r1 in ranges:
            sub = ExactMatrix([[g.entries[a][b] for b in range(r0, r1)] for a in range(r0, r1)])
            if any(not c.is_zero() for row in sub.entries for c in row):   # block (i, j) is fixed
                keys.append(_lead_entry_key(sub, grp.conductor))
                constituents[(i + 1, j + 1)].add(keys[-1])
        if len(keys) == len(ranges):                                       # principal element
            phi_image.add(tuple(keys))
    return {key: len(val) for key, val in constituents.items()}, len(phi_image)


def test_scalar_coset_counts_match_lead_entry_division(quintic_group):
    cases = [(closure(get_entry("klein-quartic").generators()), certificate(get_entry("klein-quartic"))),
             (quintic_group[1], certificate(quintic_group[0]))]
    for grp, cert in cases:
        rep = verify_certificate(grp, cert)
        constituents, phi_order = _oracle_counts(grp, cert)
        assert rep.constituent_orders == constituents
        assert rep.phi_image_order == phi_order


def test_compositional_2_12():
    entry = get_entry("pair-icosahedral-12ic")
    rep = verify_compositional(entry.generators(), certificate(entry), entry.form())
    assert rep.group_order == 1036800
    assert rep.kernel_order == 144
    assert rep.phi_image_order == 3600
    assert rep.psi_image_order == 2
    assert rep.constituent_orders == {(1, 1): 60, (1, 2): 60}
    assert rep.fermat_ratio == Fraction(25, 12)
    assert rep.identities_hold()


def test_schreier_lemma_runs_once_per_certificate(monkeypatch):
    # P's Schreier pass also yields the transversal, whose products give every block stabilizer
    calls, schreier = [], structure.schreier_generators

    def count(orbit, gens):
        calls.append(len(orbit.points))
        return schreier(orbit, gens)

    monkeypatch.setattr(structure, "schreier_generators", count)
    entry = get_entry("pair-icosahedral-12ic")
    rep = verify_compositional(entry.generators(), certificate(entry), entry.form())
    assert rep.constituent_orders == {(1, 1): 60, (1, 2): 60}
    assert calls == [2]             # one pass, on the 2 points of psi(G)


@pytest.mark.parametrize("label, closures", [
    ("pair-icosahedral-12ic", 2),       # both blocks share one closure, then the kernel check's
    ("triple-icosahedral-12ic", 2),     # all three blocks share one closure, then the kernel check's
    ("pair-octahedral-sextic", 1),      # a closed row: both blocks share one closure
])
def test_identical_block_restrictions_close_once(monkeypatch, label, closures):
    calls, close = [], structure.closure

    def count(generators, cap):
        calls.append(len(generators))
        return close(generators, cap)

    monkeypatch.setattr(structure, "closure", count)
    report = verify_entry(get_entry(label), skip_smooth=True)
    assert all(check.get("ok", True) for check in report["checks"].values())
    assert len(calls) == closures


def _record_closure_caps(monkeypatch):
    """(closed generators' dimension, cap) of every structure.closure call, in call order."""
    calls, close = [], structure.closure

    def record(generators, cap):
        calls.append((generators[0].dim, cap))
        return close(generators, cap)

    monkeypatch.setattr(structure, "closure", record)
    return calls


@pytest.mark.parametrize("label", ["quintic-480", "pair-octahedral-sextic"])
def test_closed_tier_caps_block_closures_at_the_group_order(monkeypatch, label):
    entry = get_entry(label)
    grp = closure(entry.generators())
    calls = _record_closure_caps(monkeypatch)
    verify_certificate(grp, certificate(entry), entry.form())
    assert calls and {cap for _, cap in calls} == {grp.order}


def test_compositional_tier_caps_block_closures_at_its_block_cap(monkeypatch):
    # the kernel check closes the block scalars in the whole space, capped at the lattice order
    entry = get_entry("pair-icosahedral-12ic")
    calls = _record_closure_caps(monkeypatch)
    verify_compositional(entry.generators(), certificate(entry), entry.form(), block_cap=123457)
    assert {cap for dim, cap in calls if dim < entry.nvars} == {123457}
    assert [cap for dim, cap in calls if dim == entry.nvars] == [144]


def test_compositional_tier_refuses_a_missing_form():
    entry = get_entry("pair-octahedral-sextic")
    with pytest.raises(CertificateError, match="needs the form"):
        verify_compositional(entry.generators(), certificate(entry), None)


def test_closed_tier_checks_the_form():
    entry = get_entry("klein-quartic")
    grp = closure(entry.generators())
    with pytest.raises(CertificateError, match="does not preserve the form"):
        verify_certificate(grp, certificate(entry), fermat_form(4, 3))


def _report_without_tier(rep):
    payload = rep.payload()
    del payload["tier"]
    return payload


def test_compositional_matches_full_closure():
    # the closed tier counts |G|, |P| and |N| on residues, the compositional tier derives them
    entry = get_entry("pair-octahedral-sextic")
    gens = entry.generators()
    comp = verify_compositional(gens, certificate(entry), entry.form())
    assert comp.group_order == 41472
    grp = closure(gens)
    assert grp.order == comp.group_order
    full = verify_certificate(grp, certificate(entry), entry.form())
    assert full.kernel_order == comp.kernel_order == 36
    assert full.phi_image_order == comp.phi_image_order == 576
    assert full.constituent_orders == comp.constituent_orders
    for label in ["tetrahedral-binary-quartic", "octahedral-binary-sextic", "klein-quartic",
                  "hessian-sextic"]:
        entry = get_entry(label)
        comp = verify_compositional(entry.generators(), certificate(entry), entry.form())
        full = verify_certificate(closure(entry.generators()), certificate(entry), entry.form())
        assert (comp.tier, full.tier) == ("compositional", "full-closure")
        assert _report_without_tier(comp) == _report_without_tier(full), label


def _exact_span_is_full(matrices, size):
    """Burnside over K, the exact reference: the matrices span all size x size matrices."""
    basis = []
    for m in matrices:
        vec = [c for row in m.entries for c in row]
        for pivot, bvec in basis:
            c = vec[pivot]
            if not c.is_zero():
                vec = [x - c * y for x, y in zip(vec, bvec)]
        piv = next((k for k, x in enumerate(vec) if not x.is_zero()), None)
        if piv is not None:
            inv = vec[piv].inverse()
            basis.append((piv, [x * inv for x in vec]))
    return len(basis) == size * size


def _residue_verdict(grp):
    """The residue rank test of verify_certificate, on the whole space as one block."""
    try:
        verify_certificate(grp, DecompositionCertificate([[grp.dim]]))
    except CertificateError as exc:
        assert "reducible" in str(exc)
        return False
    return True


def test_irreducible_span():
    entry = get_entry("icosahedral-binary-12ic")
    cases = [(scalar_group(2, 3), False),
             (closure(entry.generators()[:2]), True),
             # transitive permutation matrices fix the all-ones vector: reducible
             (closure([permutation_matrix([1, 0]), permutation_matrix([0, 1])]), False)]
    for grp, irreducible in cases:
        assert _exact_span_is_full(grp.elements(), grp.dim) == irreducible
        assert _residue_verdict(grp) == irreducible


@st.composite
def monomial_groups(draw):
    """A cyclic shift and permutations, each times diagonal 6th roots of unity, 2 <= r <= 3."""
    r = draw(st.integers(2, 3))
    perms = [[(k + 1) % r for k in range(r)]] + draw(st.lists(st.permutations(range(r)), max_size=2))
    gens = []
    for perm in perms:
        exps = draw(st.lists(st.integers(0, 5), min_size=r, max_size=r))
        gens.append(permutation_matrix(perm) * ExactMatrix.diagonal([root_of_unity(6, e) for e in exps]))
    return gens


@settings(derandomize=True, deadline=None, max_examples=40)
@given(monomial_groups())
def test_residue_irreducibility_matches_exact_span(gens):
    grp = MatGroup(gens)
    assume(grp.close(cap=200))
    assert _residue_verdict(grp) == _exact_span_is_full(grp.elements(), grp.dim)


@st.composite
def block_monomial_groups(draw):
    """1-3 generators permuting the blocks of a random partition of r <= 6 coordinates.

    Blocks of one size are permuted among themselves, and each image block is
    an L·U product of small integer matrices (L unitriangular, U with a
    nonzero diagonal), so every generator is invertible.
    """
    r = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=r, max_size=r))
    blocks = [[x for x in range(r) if labels[x] == label] for label in sorted(set(labels))]
    small, unit = st.sampled_from([0, 1, -1, 2]), st.sampled_from([1, -1, 2])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = [[0] * r for _ in range(r)]
        for size in {len(b) for b in blocks}:
            same = [b for b in blocks if len(b) == size]
            for src, dst in zip(same, draw(st.permutations(same))):
                lower = [[1 if i == j else draw(small) if i > j else 0 for j in range(size)] for i in range(size)]
                upper = [[draw(unit) if i == j else draw(small) if i < j else 0 for j in range(size)]
                         for i in range(size)]
                for i, x in enumerate(dst):
                    for k, y in enumerate(src):
                        g[x][y] = sum(lower[i][j] * upper[j][k] for j in range(size))
        gens.append(ExactMatrix(g))
    return gens


def _check_finder(gens):
    """finest_certificate against the search over all set partitions (oracles.certificate_by_search)."""
    grouped, order = certificate_by_search(gens)
    if order == sorted(order):
        assert finest_certificate(gens).grouped_sizes == grouped
    else:
        with pytest.raises(CertificateError, match=re.escape(", ".join("x%d" % (x + 1) for x in order))):
            finest_certificate(gens)


@pytest.mark.parametrize("label", [e.label for e in load_entries()])
def test_finest_certificate_matches_search_on_catalog_rows(label):
    _check_finder(get_entry(label).generators())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(monomial_groups(), block_monomial_groups()))
def test_finest_certificate_matches_search_on_random_groups(gens):
    _check_finder(gens)


def test_finest_certificate_refuses_blocks_that_are_not_contiguous():
    # <swap(1, 3), diag(-1, 1, 1)>: the summand {x1, x3} comes before {x2}
    gens = [permutation_matrix([2, 1, 0]), ExactMatrix.diagonal([-1, 1, 1])]
    with pytest.raises(CertificateError, match="reorder the coordinates as x1, x3, x2"):
        finest_certificate(gens)
    swap = permutation_matrix([0, 2, 1])
    assert finest_certificate([swap * g * swap for g in gens]).grouped_sizes == [[1, 1], [1]]


def test_reducible_blocks_are_refused(quintic_group):
    with pytest.raises(CertificateError, match="reducible"):
        verify_certificate(quintic_group[1], DecompositionCertificate([[5]]))
    # compositional: the stabilizer of the 2-block restricts to a diagonal group
    z3 = root_of_unity(3)
    gens = [ExactMatrix.diagonal([z3, 1, 1]),
            ExactMatrix.diagonal([z3, z3, 1]), ExactMatrix.diagonal([1, 1, z3])]
    with pytest.raises(CertificateError, match="reducible"):
        verify_compositional(gens, DecompositionCertificate([[2], [1]]), get_entry("fermat-1-3").form())


def make_report(bound, constituents, intrinsic):
    from formaut.sequences import SubdegreeSequence
    return StructureReport(
        group_order=1, psi_image_order=1, k_orders=[1], principal_order=1,
        kernel_order=1, phi_image_order=1, constituent_orders=constituents,
        subdegrees=SubdegreeSequence([2, 2]), intrinsic_multiplicities=intrinsic,
        tier="full-closure", canonical_bound=bound)


def test_refined_bound_formulas():
    rep = make_report(1036800, {(1, 1): 60, (1, 2): 60}, [2])
    assert refined_bound(rep, 12, "type2", pattern_established=True, summand=1) == 1036800 // 3600
    assert refined_bound(rep, 12, "classify", pattern_established=True, summand=1) == 1036800 // 60
    assert refined_bound(rep, 12, "d1d2", pattern_established=True, normal_index=60) == 1036800 // 60
    assert refined_bound(rep, 12, "typeII", pattern_established=True, pattern_count=2) == 1036800 // 12
    with pytest.raises(CertificateError):
        refined_bound(rep, 12, "type2", summand=1)   # pattern not established


def test_refined_bound_with_real_pattern():
    # block form with a cross term: x1^5 x2 + x2^5 x1 + x3^6 + x1^5 x3
    F = parse("x1^5*x2 + x2^5*x1 + x3^6 + x1^5*x3")
    found, _ = has_monomial_pattern(F, (2, 1), (5, 1))
    assert found
    rep = make_report(10000, {(1, 1): 24, (2, 1): 1}, [1, 1])
    got = refined_bound(rep, 6, "typeII", pattern_established=found, pattern_count=1)
    assert got == 10000


def test_ratioprod_exhaustive():
    winners = []
    def tuples(rem, cap, pre):
        if len(pre) >= 2:
            winners.append(tuple(pre)) if ratioprod_check(pre)[0] else None
        for p in range(min(cap, rem), 0, -1):
            tuples(rem - p, p, pre + [p])
    tuples(12, 12, [])
    assert winners == [(2, 2)]
    assert ratioprod_check((2, 2))[1] == Fraction(25, 24)
