import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formaut import matgroups, structure
from formaut.catalog import get_entry, load_entries, verify_entry
from formaut.cli import generators_from_payload, generators_to_json, main
from formaut.cyclotomic import CycNum, root_of_unity
from formaut.forms import ExactMatrix, Form, act, parse
from formaut.matgroups import (DEFAULT_CAP, GroupError, MatGroup, Orbit, closure, invariant_dimension,
                               invariant_dimension_molien, invariant_dimension_reynolds, pgl_keys, preserves,
                               schreier_generators, word_product)
from formaut.smoothness import split_prime

from lemmas import scalar_group
from oracles import (REFLECTION_DEGREES, TODD_DEGREES, fermat_form, form_product, hilbert_coefficient,
                     orbit_is_finite_all_generators, permutation_matrix, reference_scalar_cosets, residue_bfs)


def test_scalar_group():
    g = scalar_group(3, 4)
    assert g.order == 4
    assert g.projective_order() == 1
    assert g.center_order() == 4


def test_scalar_group_preserves_every_form():
    g = scalar_group(3, 5)
    for F in [fermat_form(5, 3), parse("x1^4*x2 + x2^4*x3 + x3^5")]:
        assert preserves(g.generators, F)


def test_fermat_closure_order():
    z3 = root_of_unity(3)
    gens = [ExactMatrix.diagonal([z3, 1, 1]),
            permutation_matrix([1, 0, 2]),
            permutation_matrix([1, 2, 0])]
    grp = closure(gens)
    assert grp.order == 162             # 3^3 * 3!


def test_klein_closure_and_center():
    entry = get_entry("klein-quartic")
    grp = closure(entry.generators())
    assert grp.order == 672
    assert grp.projective_order() == 168
    assert grp.center_order() == 4      # the scalar subgroup of order d


def test_binary_icosahedral():
    entry = get_entry("icosahedral-binary-12ic")
    gens = entry.generators()
    bare = closure(gens[:2])            # without the scalar generator
    assert bare.order == 120
    assert bare.center_order() == 2     # {+-I}
    full = closure(gens)
    assert full.order == 720
    assert full.projective_order() == 60


def test_closure_cap():
    entry = get_entry("klein-quartic")
    grp = MatGroup(entry.generators())
    assert not grp.close(cap=100)
    assert not grp.closed
    assert grp.close()                  # a later call recomputes from the identity
    assert grp.order == 672


def test_closure_cap_is_checked_per_insertion():
    grp = MatGroup(get_entry("fermat-3-3").generators())
    assert not grp.close(cap=1000)
    assert sum(len(stack) for _, stack in grp._stacks()) <= 1001
    assert not grp.close(cap=1000)
    assert grp.close(cap=29160)         # recomputed, and complete at a cap of exactly the order
    assert grp.order == 29160


def _classes(grp):
    """The residues of a closed group, and their pgl_keys numbered in order of first appearance."""
    residues = [m for _, stack in grp._stacks() for m in stack]
    keys = [key for _, stack in grp._stacks() for key in pgl_keys(stack, grp.p)]
    number = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    return residues, [number[key] for key in keys]


def test_scalar_cosets_partition_and_check():
    grp = closure(get_entry("klein-quartic").generators())
    residues, classes = _classes(grp)
    assert sorted(Counter(classes).values()) == [4] * 168 == [4] * grp.projective_order()
    for key, a in zip(pgl_keys(np.stack(residues), grp.p), residues):
        lead = int(a[np.nonzero(a)][0])                 # the first nonzero entry in row-major order
        want = a.ravel().astype(np.int64) * pow(lead, -1, grp.p) % grp.p
        assert np.array_equal(np.frombuffer(key, dtype=np.int32), want)


def _assert_cosets_match_reference(grp):
    # both number the classes in order of first appearance, so equal lists are equal partitions
    residues, classes = _classes(grp)
    class_of, _ = reference_scalar_cosets(residues, grp.p)
    assert classes == [class_of[a.tobytes()] for a in residues]


@pytest.mark.parametrize("label", [e.label for e in load_entries() if e.tier == "full-closure"])
def test_scalar_cosets_match_per_residue_reference(label):
    _assert_cosets_match_reference(closure(get_entry(label).generators()))


def test_scalar_cosets_match_reference_on_block_closures(monkeypatch):
    # the closures L_ij that both tiers build for their blocks of size > 1, short of the whole space
    seen = []
    check_irreducible = structure._check_irreducible

    def checked(grp, reps, i, j):
        _assert_cosets_match_reference(grp)
        seen.append(grp.dim)
        return check_irreducible(grp, reps, i, j)

    monkeypatch.setattr(structure, "_check_irreducible", checked)
    entry = get_entry("pair-icosahedral-12ic")
    structure.verify_compositional(entry.generators(), entry.form())
    entry = get_entry("quintic-480")
    structure.verify_certificate(closure(entry.generators()), entry.form())
    assert seen == [2, 2]               # pair-icosahedral's two blocks share one closure


def test_subgroup_order_divides():
    z3 = root_of_unity(3)
    small = closure([ExactMatrix.diagonal([z3, 1, 1])])
    big = closure([ExactMatrix.diagonal([z3, 1, 1]), permutation_matrix([1, 2, 0])])
    assert big.order % small.order == 0


def test_lagrange_center_divides():
    for label in ["klein-quartic", "octahedral-binary-sextic", "fermat-1-3"]:
        grp = closure(get_entry(label).generators())
        assert grp.order % grp.center_order() == 0


def test_diag_does_not_preserve_fermat_of_wrong_torsion():
    F = fermat_form(3, 3)
    g = ExactMatrix.diagonal([root_of_unity(5), 1, 1])
    assert not preserves([g], F)


def _contains(grp, m):
    """Exact membership in a closed group: m's residue is stored and its replayed element is m."""
    assert grp.closed
    reduced = []
    for row in m.entries:
        out_row = []
        for c in row:
            c = c.reduce()
            if grp.conductor % c.n or c.den % grp.p == 0:
                return False        # outside the field, or not 𝔭-integral
            out_row.append(c)
        reduced.append(out_row)
    i = grp._tree.index.get(grp._reduce(ExactMatrix(reduced)).astype(np.int32).tobytes())
    return i is not None and word_product(grp.generators, grp._tree.word(i)) == m


def test_membership():
    entry = get_entry("tetrahedral-binary-quartic")
    grp = closure(entry.generators())
    gens = entry.generators()
    assert _contains(grp, gens[0] * gens[1])
    assert not _contains(grp, ExactMatrix.diagonal([root_of_unity(7), 1]))


def test_invariant_dimension_scalars():
    g = scalar_group(2, 3)
    assert invariant_dimension(g, 3) == 4      # all degree-3 monomials survive
    assert invariant_dimension(g, 2) == 0


def test_invariant_dimensions_icosahedral():
    entry = get_entry("icosahedral-binary-12ic")
    bare = closure(entry.generators()[:2])     # binary icosahedral, order 120
    dims = {e: invariant_dimension_molien(bare, e) for e in range(1, 13)}
    assert dims[12] == 1
    assert all(dims[e] == 0 for e in range(1, 12))
    # cross-check the two routes at the interesting degree
    assert invariant_dimension_reynolds(bare, 12) == 1


def test_invariant_dimensions_octahedral_lift():
    entry = get_entry("octahedral-binary-sextic")
    grp = closure(entry.generators())          # order 144 lift of S4
    for e in range(1, 6):
        assert invariant_dimension(grp, e) == 0
    assert invariant_dimension(grp, 6) == 1


def test_reynolds_equals_molien_small_groups():
    groups = [scalar_group(2, 3), scalar_group(2, 4)]
    entry = get_entry("tetrahedral-binary-quartic")
    groups.append(closure(entry.generators()))
    for grp in groups:
        _assert_residue_routes_are_exact(grp, range(9))    # Reynolds = Molien = the routes over K


# -- the residue invariant routes against the exact routes over K -----------------


def _exact_symmetric_power(m: ExactMatrix, monomials):
    """Sym^e(m) over K, rows indexed by target monomials, built degree by degree."""
    n = m.dim
    linear = [Form(n, {tuple(int(j == k) for j in range(n)): c for k, c in enumerate(row)
                       if not c.is_zero()}, 1) for row in m.entries]
    images = {(0,) * n: Form(n, {(0,) * n: CycNum.one()}, 0)}
    for d in range(1, sum(monomials[0]) + 1):
        new_images = {}
        for mono in matgroups._monomials(n, d):
            i = next(k for k, e in enumerate(mono) if e)
            new_images[mono] = form_product(images[mono[:i] + (mono[i] - 1,) + mono[i + 1:]], linear[i])
        images = new_images
    return [[images[src].terms.get(dst, CycNum.zero()) for src in monomials] for dst in monomials]


def _exact_rank(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if not mat[r][col].is_zero()), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not mat[r][col].is_zero():
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _exact_det_series(m: ExactMatrix):
    """Coefficients of det(I - t m) by Newton's identities on exact power traces."""
    traces, power = [], m
    for _ in range(m.dim):
        acc = CycNum.zero()
        for i in range(m.dim):
            acc = acc + power.entries[i][i]
        traces.append(acc)
        power = power * m
    es = [CycNum.one()]
    for k in range(1, m.dim + 1):
        acc = CycNum.zero()
        for i in range(1, k + 1):
            term = es[k - i] * traces[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        es.append(acc * Fraction(1, k))
    return [es[k] if k % 2 == 0 else -es[k] for k in range(m.dim + 1)]


def _exact_invariant_dimensions(grp: MatGroup, e: int):
    """(Reynolds rank, Molien coefficient) over K on the exact elements: the slow reference."""
    monomials = matgroups._monomials(grp.dim, e)
    total = [[CycNum.zero()] * len(monomials) for _ in monomials]
    molien = CycNum.zero()
    for g in grp.elements():
        for trow, srow in zip(total, _exact_symmetric_power(g, monomials)):
            trow[:] = [a + b for a, b in zip(trow, srow)]
        poly = _exact_det_series(g)
        inv = [CycNum.one()]
        for k in range(1, e + 1):
            acc = CycNum.zero()
            for i in range(1, min(k, len(poly) - 1) + 1):
                acc = acc + poly[i] * inv[k - i]
            inv.append(-acc)
        molien = molien + inv[e]
    value = (molien * Fraction(1, grp.order)).as_fraction()
    assert value.denominator == 1
    return _exact_rank(total), int(value)


def _assert_residue_routes_are_exact(grp, degrees):
    for e in degrees:
        reynolds, molien = _exact_invariant_dimensions(grp, e)
        assert reynolds == molien == invariant_dimension_reynolds(grp, e) == \
            invariant_dimension_molien(grp, e), (grp, e)


def test_klein_quartic_invariants_match_exact_routes():
    _assert_residue_routes_are_exact(closure(get_entry("klein-quartic").generators()), [4])


def test_a_generator_with_determinant_in_the_prime_is_refused():
    """The singular-residue lemma: diag(p, 1) is invertible, but det = p is no unit at the prime above p."""
    p = split_prime(1, 1, lo=1 << 21)
    with pytest.raises(GroupError, match="^a generator is singular mod p = %d: it is singular, or has infinite order$"
                       % p):
        MatGroup([ExactMatrix.diagonal([p, 1])])
    grp = MatGroup([ExactMatrix.diagonal([p + 1, 1])])     # det = 1 mod p: only close() proves it infinite
    assert grp.p == p and not grp.close()


def test_invariant_prime_too_small_is_refused(monkeypatch):
    monkeypatch.setattr(matgroups, "split_prime", lambda conductor, den, lo: 7)
    grp = scalar_group(2, 3)
    assert grp.p == 7
    assert invariant_dimension(grp, 5) == 0     # M = 6 < p
    for method in ("reynolds", "molien", "both"):
        with pytest.raises(GroupError):         # M = 7 = p: 7 invariants read as 0 mod 7
            invariant_dimension(grp, 6, method=method)


def test_molien_residue_out_of_range_is_refused():
    grp = closure(get_entry("klein-quartic").generators())
    del grp._tree.points[0]         # drop the identity: the sum is (672 - 15) / 671, not in [0, 15]
    with pytest.raises(ArithmeticError):
        invariant_dimension_molien(grp, 4)


def test_invariants_of_an_open_group_are_refused():
    grp = MatGroup(get_entry("klein-quartic").generators())
    assert not grp.close(cap=100)
    for method in ("reynolds", "molien"):
        with pytest.raises(GroupError):
            invariant_dimension(grp, 4, method=method)


def test_reynolds_reads_only_the_generator_residues(monkeypatch):
    grp = closure(get_entry("fermat-3-3").generators())
    sizes, build = [], matgroups._symmetric_powers

    def record(stack, *args):
        sizes.append(len(stack))
        return build(stack, *args)

    def no_stacks(self, *args):
        raise AssertionError("the Reynolds route read the group's elements")

    monkeypatch.setattr(matgroups, "_symmetric_powers", record)
    monkeypatch.setattr(MatGroup, "_stacks", no_stacks)
    assert invariant_dimension_reynolds(grp, 6) == 2
    assert sizes == [3]         # one symmetric power per generator, not one per element of the 29,160


def test_fermat_cubic_group_has_two_sextic_invariants():
    grp = closure(get_entry("fermat-3-3").generators())
    assert invariant_dimension(grp, 3, "both") == 1     # the Fermat cubic
    assert invariant_dimension(grp, 6, "both") == 2     # sum x_i^6 and sum x_i^3·x_j^3


def test_reynolds_bound_counts_every_generator_array(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("klein-quartic").generators()))
    t0 = time.perf_counter()      # M = C(52, 2) = 1326: one array fits in 32 MiB, Klein's four do not
    assert main(["invdim", str(f), "--degree", "50", "--method", "reynolds"]) == 1
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err.startswith("error: Reynolds at degree 50")
    assert main(["invdim", str(f), "--degree", "50", "--method", "molien"]) == 0
    assert capsys.readouterr().out == "0\n"     # 50 is not 0 mod 4, and the center is Z/4


def test_reynolds_past_the_byte_bound_is_refused(tmp_path, capsys):
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(get_entry("klein-quartic").generators()))
    t0 = time.perf_counter()
    assert main(["invdim", str(f), "--degree", "200"]) == 1   # M = C(202, 2) = 20301: 3.3 GB per M x M array
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: Reynolds at degree 200")
    # Molien allocates no M x M array; 134 is the coefficient of t^200 in the Hilbert series
    # (1 + t^21) / ((1 - t^4)(1 - t^6)(1 - t^14)) of Klein's invariants, at degrees 0 mod 4 (center Z/4)
    assert main(["invdim", str(f), "--degree", "200", "--method", "molien"]) == 0
    assert capsys.readouterr().out == "134\n"


def test_reynolds_names_the_byte_bound_before_p():
    grp = closure(get_entry("klein-quartic").generators())
    size = math.comb(3000 + 2, 2)       # 4,504,501 > p, and its four M x M arrays pass SYM_MAX_BYTES
    assert size > grp.p
    with pytest.raises(GroupError, match="^Reynolds at degree 3000: 4 stacked"):
        invariant_dimension_reynolds(grp, 3000)
    with pytest.raises(GroupError, match="^p = %d must exceed dim Sym\\^3000 = %d$" % (grp.p, size)):
        invariant_dimension_molien(grp, 3000)


def _reflection_disagreements(grp: MatGroup, degrees) -> list:
    """What of Chevalley-Shephard-Todd (tests/oracles.py) a closed group contradicts.

    "order" if |G| != prod d_i, "reflections" if the residues with rank(g - I) = 1
    are not sum (d_i - 1), and each e <= 12 whose invariant dimension is not the
    Hilbert coefficient; "both" where M <= 120, Molien alone past it.
    """
    found = []
    if math.prod(degrees) != grp.order:
        found.append("order")
    if sum(d - 1 for d in degrees) != sum(1 for _ in grp._reflections()):
        found.append("reflections")
    for e in range(1, 13):
        method = "both" if math.comb(grp.dim + e - 1, e) <= 120 else "molien"
        if invariant_dimension(grp, e, method) != hilbert_coefficient(degrees, e):
            found.append(e)
    return found


@pytest.mark.parametrize("label", sorted(REFLECTION_DEGREES))
def test_reflection_groups_match_chevalley_shephard_todd(label):
    assert _reflection_disagreements(closure(get_entry(label).generators()), REFLECTION_DEGREES[label]) == []


def test_a_wrong_degree_list_contradicts_the_hessian_group():
    # (4, 18, 18) has the order 1296 of ST26 = (6, 12, 18), but 37 reflections and other invariants
    grp = closure(get_entry("hessian-sextic").generators())
    assert _reflection_disagreements(grp, (4, 18, 18)) == ["reflections", 4, 6, 8, 12]


def test_todd_degrees_give_the_catalog_order():
    assert math.prod(TODD_DEGREES) == get_entry("todd-sextic").expected["aut_order"] == 39191040


def test_molien_keeps_only_the_last_r_series_coefficients():
    grp = closure(get_entry("klein-quartic").generators())
    tracemalloc.start()
    try:
        value = invariant_dimension_molien(grp, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the coefficient of t^2000 in Klein's Hilbert series (1 + t^21) / ((1 - t^4)(1 - t^6)(1 - t^14))
    assert value == hilbert_coefficient((4, 6, 14), 2000) + hilbert_coefficient((4, 6, 14), 2000 - 21) == 12048
    assert peak < 2 ** 20, peak     # the whole series of one stack held 10.7 MiB


def test_generator_json_round_trip():
    entry = get_entry("klein-quartic")
    gens = entry.generators()
    again = generators_from_payload(json.loads(generators_to_json(gens)))
    assert all(a == b for a, b in zip(gens, again))


# -- the runtime checks of the residue engine, one test each ---------------------


def test_infinite_group_with_trivial_residues_is_refused(tmp_path, capsys):
    p = split_prime(1, 1, lo=1 << 21)
    m = ExactMatrix.diagonal([1 + p, 1])       # the identity mod p, of infinite order
    grp = MatGroup([m])
    assert grp.p == p
    assert not grp.close()                     # the exact orbit of e_1 outgrows 2 * 1
    assert not grp.closed
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json([m]))
    assert main(["closure", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["closed"] is False


@pytest.mark.parametrize("label", [e.label for e in load_entries() if e.tier == "full-closure"])
def test_certificate_without_scalars_matches_the_all_generator_orbit(label):
    # the slow path runs the orbit under every generator at the group's conductor; both complete
    grp = closure(get_entry(label).generators())
    assert grp.closed
    assert grp._orbit_is_finite(grp.order) and orbit_is_finite_all_generators(grp, grp.order)


@pytest.mark.parametrize("label", ["klein-quartic", "icosahedral-binary-12ic", "fermat-1-3"])
def test_scalar_that_is_no_root_of_unity_is_refused_at_once(tmp_path, capsys, label):
    """A finite group plus (1 + p)·I, p the group's prime: the residues close at |G|, as 1 + p = 1 mod p.

    The central-scalar lemma refuses it by (1 + p)^L != 1 before any exact orbit; the
    all-generator orbit refuses it too, once its root orbit passes |G| vectors.
    """
    gens = get_entry(label).generators()
    finite = closure(gens)
    r, p = finite.dim, finite.p
    planted = gens + [ExactMatrix.diagonal([1 + p] * r)]
    start = time.perf_counter()
    grp = MatGroup(planted)
    assert grp.p == p and not grp.close() and not grp.closed
    assert time.perf_counter() - start < 1
    assert not orbit_is_finite_all_generators(grp, finite.order)
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json(planted))
    assert main(["closure", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["closed"] is False


@pytest.mark.parametrize("entries, order", [([-1], 2), ([root_of_unity(5)], 5), ([-root_of_unity(5)], 10),
                                            ([root_of_unity(4), -1], 4),
                                            ([root_of_unity(3), root_of_unity(4)], 12), ([1], 1)])
def test_degree_one_groups_are_all_scalar(monkeypatch, entries, order):
    # at r = 1 every generator is scalar: the certificate's orbit has no maps, so it is its seed alone
    grp = MatGroup([ExactMatrix([[c]]) for c in entries])
    sizes = _record_orbits(monkeypatch)
    assert grp.close() and grp.order == order
    assert sizes[-1] == (1, 1, True)
    assert orbit_is_finite_all_generators(grp, order)
    planted = MatGroup(grp.generators + [ExactMatrix([[1 + grp.p]])])     # the same conductor, so the same p
    assert planted.p == grp.p and not planted.close()
    assert planted._tree.points == grp._tree.points         # residues close as before: 1 + p = 1 mod p


def _record_orbits(monkeypatch):
    """Record (seeds, points, complete) of every Orbit that matgroups builds.

    The seed rule's residue orbits come first (one per root line it reads),
    then the exact orbits of the certificate.
    """
    sizes = []

    class Recorded(Orbit):
        def __init__(self, seeds, step, cap=None):
            super().__init__(seeds, step, cap)
            sizes.append((len(seeds), len(self.points), self.complete))

    monkeypatch.setattr(matgroups, "Orbit", Recorded)
    return sizes


def test_finite_root_orbit_that_does_not_span_is_refused(monkeypatch):
    p = split_prime(1, 1, lo=1 << 21)
    grp = MatGroup([ExactMatrix.diagonal([-1, 1]), ExactMatrix.diagonal([1, 1 + p])])
    assert grp.p == p
    sizes = _record_orbits(monkeypatch)
    assert not grp.close()          # residues close at order 2, but diag(1, 1 + p) has infinite order
    assert grp._root() is None
    assert sizes == [(1, 2, True),  # the residue orbit {(±1, 0)} of the root: rank 1, so no exact root orbit
                     (2, 5, False),  # e_1, e_2: e_2 grows past 2 * 2 vectors
                     (1, 2, True)]  # the residue orbit again, from the _root() call above


def test_reflection_found_past_the_generators_does_not_hide_infinity(monkeypatch):
    p = split_prime(6, 1, lo=1 << 21)
    z6 = root_of_unity(6)
    grp = MatGroup([ExactMatrix.diagonal([z6, z6 ** 2]),
                    permutation_matrix([1, 0]) * ExactMatrix.diagonal([1, -(1 + p)])])
    assert grp.p == p
    sizes = _record_orbits(monkeypatch)
    assert not grp.close()          # residues close at order 24, but the second generator has infinite order
    assert sizes == [(1, 12, True),  # the residue orbit of diag(-1, 1)'s root line: it spans
                     (1, 12, True),  # another root line's residue orbit: it spans, of the same size
                     (1, 25, False)]  # the exact root orbit grows past 24 vectors: G is infinite
    index, col = grp._root()
    assert len(grp._tree.word(index)) == 2      # no generator residue is a reflection; diag(-1, 1) takes 3
    g = word_product(grp.generators, grp._tree.word(index))
    assert grp._reduce(g).astype(np.int32).tobytes() == grp._tree.points[index]
    assert g.entries[0][1] == -z6 * (1 + p)     # the exact replay keeps the 1 + p


def test_group_without_residue_reflection_closes_through_the_unit_orbit(monkeypatch):
    i = root_of_unity(4)
    grp = MatGroup([ExactMatrix.diagonal([i, -i]), ExactMatrix([[0, 1], [-1, 0]])])     # Q8
    sizes = _record_orbits(monkeypatch)
    assert grp.close()
    assert grp.order == 8
    assert grp._root() is None
    assert sizes == [(2, 8, True)]


def _per_residue_reflections(grp):
    """(i, l, v) for every residue whose g - I has rank 1 by one F_p row reduction, v its column l scaled to lead with 1."""
    eye = np.eye(grp.dim, dtype=np.int64)
    residues = ((m.astype(np.int64) - eye) % grp.p for _, stack in grp._stacks() for m in stack)
    out = []
    for i, a in enumerate(residues):
        if matgroups._rank_mod_p(a, grp.p) == 1:
            col = int(np.flatnonzero(a.any(axis=0))[0])
            v = a[:, col]
            out.append((i, col, v * pow(int(v[np.flatnonzero(v)[0]]), -1, grp.p) % grp.p))
    return out


@pytest.mark.parametrize("label", ["klein-quartic", "quintic-480", "octahedral-binary-sextic",
                                   "pair-octahedral-sextic"])
def test_first_reflection_matches_a_per_residue_rank(label):
    # every reflection that the vectorised rank-1 test (after its trace test) yields, in storage order,
    # against one F_p row reduction per residue: the first reflection and all after it
    grp = closure(get_entry(label).generators())
    got = [(i, l, v.tolist()) for i, l, v in grp._reflections()]
    assert got == [(i, l, v.tolist()) for i, l, v in _per_residue_reflections(grp)]
    assert got


@pytest.mark.parametrize("label", [e.label for e in load_entries() if e.tier == "full-closure"])
def test_seed_rule_matches_a_per_root_brute_force(label):
    """_root against every reflection's root orbit, each the set of all residues times the root.

    The reflections are `_reflections()`, which the test above checks against a per-residue rank.
    """
    grp = closure(get_entry(label).generators())
    residues = np.concatenate([stack for _, stack in grp._stacks()]).astype(np.int64)
    spanning = []
    for i, l, v in grp._reflections():
        images = residues @ v % grp.p
        if matgroups._rank_mod_p(images, grp.p) == grp.dim:
            size = len(np.unique(images.view(np.dtype((np.void, images.itemsize * grp.dim)))))
            spanning.append((size, len(grp._tree.word(i)), i, l))
    assert grp._root() == (min(spanning)[2:] if spanning else None)
    assert (spanning == []) == (label == "quintic-480")


def test_klein_finiteness_from_its_root_orbit(monkeypatch):
    grp = MatGroup(get_entry("klein-quartic").generators())
    sizes = _record_orbits(monkeypatch)
    assert grp.close()
    # the residue root orbit under every generator, then the exact one without the scalar generator i·I,
    # which halves it (-1 = i^2 lies in <S'> already); none of e_1..e_3
    assert sizes == [(1, 84, True), (1, 42, True)]


def _certificate_field(grp):
    """(kept, n, seed): the certificate orbit's generators (the non-scalar ones), its least conductor and root.

    n is that of their entries and the seed, each reduced, the seed as `_root` picks it and
    `word_product` replays it; seed is None when the seeds are e_1..e_r.
    """
    r = grp.dim
    kept = [g for g in grp.generators if g != ExactMatrix.diagonal([g.entries[0][0]] * r)]
    values, found, seed = [c for g in kept for row in g.entries for c in row], grp._root(), None
    if found is not None:
        index, col = found
        g = word_product(grp.generators, grp._tree.word(index))
        seed = [g.entries[i][col] - (i == col) for i in range(r)]
    return kept, math.lcm(*(c.reduce().n for c in values + (seed or []))), seed


def _decode(grp, n, point):
    """The residues of an exact orbit point stored at conductor n."""
    return [grp._field.from_cyc(CycNum(n, num, den)) for num, den in point]


def _record_certificates(monkeypatch):
    """Record (group, |G|, seeds, cap, orbit) for each exact orbit of `_orbit_is_finite`, residue orbits left out."""
    seen = []
    finite = MatGroup._orbit_is_finite

    def recorded(self, order):
        built = []

        class Recorded(Orbit):
            def __init__(self, seeds, step, cap=None):
                super().__init__(seeds, step, cap)
                if not isinstance(seeds[0], bytes):     # not a residue orbit of the seed rule
                    built.append((list(seeds), cap, self))

        monkeypatch.setattr(matgroups, "Orbit", Recorded)
        try:
            return finite(self, order)
        finally:
            monkeypatch.setattr(matgroups, "Orbit", Orbit)
            seen.extend((self, order) + b for b in built)

    monkeypatch.setattr(MatGroup, "_orbit_is_finite", recorded)
    return seen


@pytest.mark.parametrize("label", [e.label for e in load_entries() if e.tier == "full-closure"])
def test_certificate_lemmas_hold_on_every_catalog_closure(monkeypatch, label):
    """The two lemmas that spare `close` work, on every closure of the row's pipeline, each against the slow path.

    The exponent lemma: each generator residue's order, by repeated multiplication, divides L(r, N).
    The benchmark's invariant groups are full-closure rows, so they are among these.  The root lemma:
    a complete exact root orbit reduces onto the residue orbit of its seed, a multiple of a root that
    `_root` found spanning, so its residues have F_p rank r without `close` ranking them.
    """
    seen = _record_certificates(monkeypatch)
    assert all(check.get("ok", True) for check in verify_entry(get_entry(label), skip_smooth=True)["checks"].values())
    roots = 0
    for grp, order, seeds, cap, orbit in seen:
        eye = np.eye(grp.dim, dtype=np.int64)
        for g in grp._gens:
            power, k = g % grp.p, 1
            while not (power == eye).all():
                power, k = matgroups._mulmod(power, g, grp.p), k + 1
            assert matgroups.exponent_bound(grp.dim, grp.conductor) % k == 0
        assert orbit.complete and cap == len(seeds) * order
        if grp._root() is not None:
            roots += 1
            _, n, seed = _certificate_field(grp)    # the orbit's own conductor, which may be below grp's
            residues = np.array([_decode(grp, n, x) for x in orbit.points], dtype=np.int64)
            assert residues[0].tolist() == [grp._field.from_cyc(c) for c in seed]  # decoded at the right n
            assert len(seeds) == 1 and matgroups._rank_mod_p(residues, grp.p) == grp.dim
    assert seen and roots


def test_exponent_bound_matches_a_brute_force():
    """L(r, N) against the lcm of every e with [Q(zeta_N, zeta_e) : Q(zeta_N)] = phi(lcm(e, N)) / phi(N) <= r.

    phi(lcm(e, N)) >= phi(e) >= sqrt(e / 2) bounds the search at e <= 2 (r phi(N))^2, and
    phi(lcm(e, N)) = phi(e) phi(N) / phi(gcd(e, N)).
    """
    top = 2 * (4 * 28) ** 2             # phi(N) <= 28 for N <= 30
    phi = np.arange(top + 1)
    for q in range(2, top + 1):
        if phi[q] == q:                 # q is prime
            phi[q::q] -= phi[q::q] // q
    for n in range(1, 31):
        for r in range(1, 5):
            e = np.arange(1, 2 * (r * phi[n]) ** 2 + 1)
            fits = phi[e] // phi[np.gcd(e, n)] <= r
            assert matgroups.exponent_bound(r, n) == np.lcm.reduce(e[fits])
    assert [matgroups.exponent_bound(r, n) for r, n in [(2, 1), (3, 28), (5, 3)]] == [12, 168, 360]


@pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[2]], [[2, 1], [1, 1]]])
def test_generator_of_infinite_order_is_refused_at_once(tmp_path, capsys, rows):
    # no residue order here divides L(r, 1), 12 at r = 2 and 2 at r = 1: close() stops after L products,
    # before any coset or orbit
    m = ExactMatrix(rows)
    start = time.perf_counter()
    grp = MatGroup([m])
    assert not grp.close() and not grp.closed and grp._tree.points == []
    assert time.perf_counter() - start < 1
    f = tmp_path / "gens.json"
    f.write_text(generators_to_json([m]))
    start = time.perf_counter()
    assert main(["closure", str(f)]) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["closed"] is False


def _per_product_step(grp):
    """The exact orbit's step under the kept generators, each image coordinate a left fold of CycNum products."""
    kept, n, _ = _certificate_field(grp)

    def image(point, g):
        v = [CycNum(n, num, den) for num, den in point]
        out = []
        for row in g.entries:
            acc = CycNum.zero(n)
            for a, x in zip(row, v):
                acc = acc + a * x
            out.append((acc.num, acc.den))
        return tuple(out)

    return lambda batch: [[image(x, g) for g in kept] for x in batch]


@pytest.mark.parametrize("label, orbits", [
    ("klein-quartic", [(672, 42)]),
    ("wiman-sextic", [(2160, 270)]),
    ("pair-icosahedral-12ic", [(720, 120), (144, 26)]),
])
def test_exact_orbit_matches_a_per_product_reference(monkeypatch, label, orbits):
    """Each exact orbit of `_orbit_is_finite` (one CycNum.dot per coordinate) against the fold.

    `orbits` lists (|G|, orbit size) per closure, the seed rule's residue
    orbits left out; each orbit runs under the non-scalar generators at its
    own conductor.  Klein takes its root from a generator and Wiman from a
    word of length 4.  The pair-icosahedral blocks share one closure (a 2 x 2
    group over Q(zeta_60) whose generators are not reflections, though its
    closure holds some), which takes its root from a residue past the
    generators; the 4 x 4 group takes e_1..e_r.  Without their scalar
    generators these orbits went 84 -> 42 (Klein), 240 -> 120 and 48 -> 26.
    """
    seen = _record_certificates(monkeypatch)
    report = verify_entry(get_entry(label), skip_smooth=True)
    assert all(check.get("ok", True) for check in report["checks"].values())
    assert [(order, len(orbit.points)) for _, order, _, _, orbit in seen] == orbits
    for grp, order, seeds, cap, orbit in seen:
        want = Orbit(seeds, _per_product_step(grp), cap)
        assert orbit.complete and want.complete
        assert (orbit.points, orbit.parent, orbit.gen) == (want.points, want.parent, want.gen)


def test_prime_dividing_a_denominator_is_skipped():
    p = split_prime(1, 1, lo=1 << 21)
    grp = closure([ExactMatrix([[0, p], [Fraction(1, p), 0]])])
    assert grp.p != p
    assert grp.order == 2


def test_prime_dividing_the_order_is_refused(monkeypatch):
    monkeypatch.setattr(matgroups, "split_prime", lambda conductor, den, lo: 3)
    with pytest.raises(GroupError, match="prime lemma"):    # S_3 has order 6 and 3 | 6: 3 <= r + 1 = 4
        MatGroup([permutation_matrix([1, 0, 2]), permutation_matrix([1, 2, 0])])


# -- the residue engine against an exact closure -----------------------------------


def _exact_closure(gens, cap):
    """Every element as an ExactMatrix by BFS, or None past cap elements."""
    def key(m):
        return tuple((c.to_conductor(12).num, c.to_conductor(12).den) for row in m.entries for c in row)
    ident = ExactMatrix.identity(gens[0].dim)
    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            h = m * g
            if key(h) not in seen:
                seen[key(h)] = h
                frontier.append(h)
                if len(seen) > cap:
                    return None
    return list(seen.values())


def _projective_key(m):
    """m divided by its first nonzero entry, as a hashable key."""
    lead = next(c for row in m.entries for c in row if not c.is_zero()).inverse()
    return tuple((c * lead).canonical_key() for row in m.entries for c in row)


@st.composite
def monomial_groups(draw, max_dim=4):
    """Permutation times diagonal 12th roots of unity, r <= max_dim, maybe conjugated."""
    r = draw(st.integers(1, max_dim))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(r)))
        exps = draw(st.lists(st.integers(0, 11), min_size=r, max_size=r))
        gens.append(permutation_matrix(perm) *
                    ExactMatrix.diagonal([root_of_unity(12, e) for e in exps]))
    if draw(st.booleans()):
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=r * r, max_size=r * r))
        lower = ExactMatrix([[1 if i == j else signs[i * r + j] if j < i else 0 for j in range(r)]
                             for i in range(r)])
        upper = ExactMatrix([[1 if i == j else signs[i * r + j] if j > i else 0 for j in range(r)]
                             for i in range(r)])
        unimodular = lower * upper
        inverse = unimodular.inverse()
        gens = [inverse * g * unimodular for g in gens]
    return gens


@settings(derandomize=True, deadline=None, max_examples=40)
@given(monomial_groups())
def test_residue_engine_matches_exact_closure(gens):
    elements = _exact_closure(gens, cap=200)
    assume(elements is not None)
    grp = closure(gens)
    assert grp.order == len(elements)
    assert grp.projective_order() == len({_projective_key(m) for m in elements})
    assert grp.center_order() == sum(all(m * g == g * m for g in gens) for m in elements)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(monomial_groups(), st.integers(0, 3))
def test_residue_invariants_match_exact_routes_on_monomial_groups(gens, e):
    grp = MatGroup(gens)
    assume(grp.close(cap=100))
    _assert_residue_routes_are_exact(grp, [e])


# -- the orbit primitive against brute force ----------------------------------------


def _brute_orbit(seeds, maps):
    orbit = set(seeds)
    while True:
        grown = orbit | {f(x) for x in orbit for f in maps}
        if grown == orbit:
            return orbit
        orbit = grown


def _assert_orbit_is_exact(seeds, maps):
    def step(batch):
        return [[f(x) for f in maps] for x in batch]
    orbit = Orbit(seeds, step)
    assert orbit.complete
    assert len(orbit.index) == len(orbit.points) and set(orbit.points) == _brute_orbit(seeds, maps)
    for i, x in enumerate(orbit.points):
        assert orbit.index[x] == i
        root = i
        while orbit.parent[root] >= 0:
            root = orbit.parent[root]
        y = orbit.points[root]
        for g in orbit.word(i):
            y = maps[g](y)
        assert y == x
    capped = Orbit(seeds, step, cap=len(orbit.points) - 1)
    assert not capped.complete and capped.points == orbit.points[:len(capped.points)]
    assert len(capped.points) == len(orbit.points)      # the cap is checked on the last insertion


@st.composite
def permutation_actions(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    return n, [tuple(g) for g in gens], seeds


@settings(derandomize=True, deadline=None, max_examples=60)
@given(permutation_actions())
def test_orbit_matches_brute_force(action):
    """Points under permutations, and the group itself under right multiplication."""
    n, gens, seeds = action
    _assert_orbit_is_exact(seeds, [lambda x, g=g: g[x] for g in gens])
    _assert_orbit_is_exact([tuple(range(n))], [lambda x, g=g: tuple(x[i] for i in g) for g in gens])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(monomial_groups(max_dim=3))
def test_schreier_generators_generate_the_stabilizer(gens):
    """Row vectors under v -> v·g, a right action: the stabilizer of e_1, against the closed group."""
    elements = _exact_closure(gens, cap=200)
    assume(elements is not None)
    r = gens[0].dim

    def times(v, m):
        return tuple(sum((v[k] * m.entries[k][j] for k in range(r)), CycNum.zero()) for j in range(r))

    e1 = tuple(CycNum.from_int(int(j == 0)) for j in range(r))
    orbit = Orbit([e1], lambda batch: [[times(v, g) for g in gens] for v in batch])
    reps, schreier = schreier_generators(orbit, gens)
    assert all(times(e1, u) == y for u, y in zip(reps, orbit.points))
    assert all(times(e1, s) == e1 for s in schreier)
    spanned = _exact_closure(schreier, cap=len(elements))
    assert spanned is not None
    assert len(spanned) == sum(times(e1, m) == e1 for m in elements)


# -- the coset closure against a per-element BFS ---------------------------------------


def _assert_tree_matches_bfs(grp, cap, bfs, replay):
    """close(cap) against the BFS keys: at most cap stored, the same set once closed, each a parent times a generator."""
    closed = grp.close(cap)
    tree, r = grp._tree, grp.dim
    assert closed == (cap >= len(bfs)) and len(tree.points) <= cap
    if not tree.points:
        return                      # a generator's residue order passes cap
    assert tree.points[0] == np.eye(r, dtype=np.int32).tobytes() and (tree.parent[0], tree.gen[0]) == (-1, -1)
    assert tree.index == {key: i for i, key in enumerate(tree.points)}
    orders = [len(grp._powers(g, cap)) for g in grp._gens]
    assert len(tree.points) == 1 or orders[tree.gen[1]] == max(orders)     # a largest residue order first
    assert set(tree.points) == set(bfs) if closed else set(tree.points) < set(bfs)
    if len(tree.points) > 1:
        parents = np.frombuffer(b"".join(tree.points[q] for q in tree.parent[1:]), dtype=np.int32).reshape(-1, r, r)
        products = matgroups._mulmod(parents[:, None], grp._gens[tree.gen[1:]][:, None], grp.p)
        assert products.tobytes() == b"".join(tree.points[1:])
        assert all(0 <= q < i for i, q in enumerate(tree.parent[1:], 1))
    if replay and closed:
        for i, key in enumerate(tree.points):
            m = grp._reduce(word_product(grp.generators, tree.word(i)))
            assert m.astype(np.int32).tobytes() == key


@settings(derandomize=True, deadline=None, max_examples=40)
@given(monomial_groups(), st.integers(0, 1 << 20), st.sampled_from([3, matgroups.BATCH]), st.data())
def test_batched_close_matches_a_per_element_bfs(gens, cut, batch, data):
    """Dimino's cosets against the per-element BFS, with the generators in any order, complete or capped.

    BATCH = 3 splits the cosets, the representative probes and the generator powers into several products.
    """
    gens = data.draw(st.permutations(gens))
    bfs = residue_bfs(MatGroup(gens), 3000)[0]
    assume(len(bfs) <= 3000)
    with mock.patch.object(matgroups, "BATCH", batch):
        for cap in (DEFAULT_CAP, len(bfs), len(bfs) - 1, 1 + cut % len(bfs)):
            _assert_tree_matches_bfs(MatGroup(gens), cap, bfs, replay=len(bfs) <= 48)


def test_batched_close_matches_a_per_element_bfs_past_one_batch():
    gens = get_entry("fermat-3-3").generators()
    bfs = residue_bfs(MatGroup(gens), DEFAULT_CAP)[0]
    assert len(bfs) == 29160
    for cap in (2 * matgroups.BATCH + 5, 29159, DEFAULT_CAP):
        _assert_tree_matches_bfs(MatGroup(gens), cap, bfs, replay=False)


def test_elements_replay_the_tree():
    grp = closure(get_entry("octahedral-binary-sextic").generators())
    elements = list(grp.elements())
    assert len(elements) == 144
    assert [grp._reduce(m).astype(np.int32).tobytes() for m in elements] == grp._tree.points
