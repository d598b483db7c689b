from collections import Counter

import pytest

from formaut.catalog import get_entry
from formaut.cyclotomic import CycNum, root_of_unity
from formaut.forms import ExactMatrix, Form, act, parse
from formaut.matgroups import (GroupError, MatGroup, closure, generators_from_json, generators_to_json,
                               invariant_dimension, invariant_dimension_molien,
                               invariant_dimension_reynolds, preserves, scalar_cosets, scalar_group)


def test_scalar_group():
    g = scalar_group(3, 4)
    assert g.order == 4
    assert g.projective_order() == 1
    assert g.center().order == 4


def test_scalar_group_preserves_every_form():
    g = scalar_group(3, 5)
    for F in [Form.fermat(5, 3), parse("x1^4*x2 + x2^4*x3 + x3^5")]:
        assert preserves(g, F)


def test_fermat_closure_order():
    z3 = root_of_unity(3)
    gens = [ExactMatrix.diagonal([z3, 1, 1]),
            ExactMatrix.permutation([1, 0, 2]),
            ExactMatrix.permutation([1, 2, 0])]
    grp = closure(gens)
    assert grp.order == 162             # 3^3 * 3!


def test_klein_closure_and_center():
    entry = get_entry("klein-quartic")
    grp = closure(entry.generators())
    assert grp.order == 672
    assert grp.projective_order() == 168
    assert grp.center().order == 4      # the scalar subgroup of order d


def test_binary_icosahedral():
    entry = get_entry("icosahedral-binary-12ic")
    gens = entry.generators()
    bare = closure(gens[:2])            # without the scalar generator
    assert bare.order == 120
    assert bare.center().order == 2     # {+-I}
    full = closure(gens)
    assert full.order == 720
    assert full.projective_order() == 60


def test_closure_cap():
    entry = get_entry("klein-quartic")
    grp = MatGroup(entry.generators())
    assert not grp.close(cap=100)
    assert not grp.closed
    assert grp.close()                  # resume to completion
    assert grp.order == 672


def test_closure_cap_is_checked_per_insertion():
    grp = MatGroup(get_entry("fermat-3-3").generators())
    assert not grp.close(cap=1000)
    assert len(grp._elements) <= 1001
    assert not grp.close(cap=1000)
    assert grp.close(cap=29160)         # resume to completion at exactly the order
    assert grp.order == 29160


def test_scalar_cosets_partition_and_check():
    grp = closure(get_entry("klein-quartic").generators())
    class_of, reps = scalar_cosets(grp.packed_elements())
    assert len(reps) == grp.projective_order() == 168
    assert sorted(Counter(class_of.values()).values()) == [4] * 168
    elements = list(grp.packed_elements())
    with pytest.raises(GroupError):       # one coset loses a member: not a group
        scalar_cosets(elements[:-1])


def test_subgroup_order_divides():
    z3 = root_of_unity(3)
    small = closure([ExactMatrix.diagonal([z3, 1, 1])])
    big = closure([ExactMatrix.diagonal([z3, 1, 1]), ExactMatrix.permutation([1, 2, 0])])
    assert big.order % small.order == 0


def test_lagrange_center_divides():
    for label in ["klein-quartic", "octahedral-binary-sextic", "fermat-1-3"]:
        grp = closure(get_entry(label).generators())
        assert grp.order % grp.center().order == 0


def test_diag_does_not_preserve_fermat_of_wrong_torsion():
    F = Form.fermat(3, 3)
    g = ExactMatrix.diagonal([root_of_unity(5), 1, 1])
    assert not preserves([g], F)


def test_membership():
    entry = get_entry("tetrahedral-binary-quartic")
    grp = closure(entry.generators())
    gens = entry.generators()
    assert grp.contains(gens[0] * gens[1])
    assert not grp.contains(ExactMatrix.diagonal([root_of_unity(7), 1]))


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
        for e in range(1, 9):
            assert invariant_dimension_reynolds(grp, e) == invariant_dimension_molien(grp, e)


def test_generator_json_round_trip():
    entry = get_entry("klein-quartic")
    gens = entry.generators()
    again = generators_from_json(generators_to_json(gens))
    assert all(a == b for a, b in zip(gens, again))


def test_object_dtype_fallback():
    # entries large enough to leave int64 territory still multiply exactly
    big = 1 << 40
    m = ExactMatrix([[CycNum.from_int(big), CycNum.from_int(1)],
                     [CycNum.from_int(0), CycNum.from_int(1)]])
    from formaut.matgroups import PackedContext
    ctx = PackedContext(1)
    pm = ctx.pack(m)
    prod = pm @ pm
    back = ctx.unpack(prod)
    assert back == m * m
