import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from formaut.catalog import get_entry, load_entries
from formaut.cli import form_from_payload
from formaut.cyclotomic import CycNum, ScalarSyntaxError, euler_phi, parse_scalar, root_of_unity, scalar_to_str
from formaut.forms import ExactMatrix, Form, FormError, act, block_degrees, parse, partials, serialize
from formaut.matgroups import GroupError, MatGroup

from lemmas import component, has_monomial_pattern
from oracles import fermat_form, form_product, permutation_matrix

rng = random.Random(99)


def rnd_form(n, d, k):
    terms = {}
    for _ in range(k):
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = CycNum(3, [rng.randint(-2, 2), rng.randint(-2, 2)])
    terms[(d,) + (0,) * (n - 1)] = CycNum.one()
    return Form(n, terms, d)


def rnd_matrix(n):
    return ExactMatrix([[CycNum(3, [rng.randint(-2, 2), rng.randint(-2, 2)])
                         for _ in range(n)] for _ in range(n)])


def test_parse_basics():
    klein = parse("x1^3*x2 + x2^3*x3 + x3^3*x1")
    assert (klein.nvars, klein.degree, len(klein.terms)) == (3, 4, 3)
    todd_term = parse("240*(1+2*z3)*x1*x2*x3*x4*x5*x6")
    assert todd_term.degree == 6 and len(todd_term.terms) == 1
    grouped = parse("9*(x1^5+x2^5)*x3")
    assert len(grouped.terms) == 2


def test_parse_rejects_inhomogeneous():
    with pytest.raises(FormError) as err:
        parse("x1^2 + x1")
    assert "x1" in str(err.value)


def test_fermat_symmetries():
    f = fermat_form(3, 2)
    assert act(f, permutation_matrix([1, 0])) == f
    fd = fermat_form(4, 3)
    assert act(fd, ExactMatrix.diagonal([root_of_unity(4), 1, 1])) == fd


def test_klein_cyclic_symmetry():
    klein = parse("x1^3*x2 + x2^3*x3 + x3^3*x1")
    assert act(klein, permutation_matrix([1, 2, 0])) == klein


def test_action_contravariance():
    for _ in range(25):
        F = rnd_form(3, 3, 4)
        A, B = rnd_matrix(3), rnd_matrix(3)
        assert act(F, A * B) == act(act(F, A), B)


def reference_act(form, matrix):
    """The product-of-powers action: each monomial's powers of the rows, multiplied out."""
    if matrix.dim != form.nvars:
        raise FormError("matrix dimension %d != variable count %d" % (matrix.dim, form.nvars))
    n = form.nvars
    linear = []
    for i in range(n):
        linear.append(Form(n, {tuple(1 if j == k else 0 for j in range(n)): matrix.entries[i][k]
                               for k in range(n) if not matrix.entries[i][k].is_zero()}, 1))
    power_cache = [{} for _ in range(n)]
    acc_terms: dict = {}
    for exps, coeff in form.terms.items():
        prod = None
        for i, e in enumerate(exps):
            if e == 0:
                continue
            p = _power(linear[i], e, power_cache[i])
            prod = p if prod is None else form_product(prod, p)
        contribution = ({tuple([0] * n): coeff} if prod is None
                        else {e: c * coeff for e, c in prod.terms.items()})
        for e, c in contribution.items():
            cur = acc_terms.get(e)
            acc_terms[e] = c if cur is None else cur + c
    return Form(n, acc_terms, form.degree)


def _power(base, e, cache):
    got = cache.get(e)
    if got is not None:
        return got
    if e == 1:
        cache[1] = base
        return base
    half = _power(base, e // 2, cache)
    result = form_product(half, half)
    if e % 2:
        result = form_product(result, base)
    cache[e] = result
    return result


# scalars over mixed conductors with small denominators; zeros at every conductor
scalars = st.sampled_from([1, 3, 4, 5, 12]).flatmap(lambda n: st.builds(
    lambda num, den: CycNum(n, num, den),
    st.one_of(st.just([]), st.lists(st.integers(-3, 3), min_size=1, max_size=euler_phi(n))),
    st.integers(1, 3)))


@st.composite
def act_inputs(draw, matrices=1):
    """A form (r <= 4, d <= 5, possibly zero) and square matrices, some with a zero row."""
    r, d = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = [0] * r
        for i in draw(st.lists(st.integers(0, r - 1), min_size=d, max_size=d)):
            exps[i] += 1
        terms[tuple(exps)] = draw(scalars)
    mats = []
    for _ in range(matrices):
        rows = [[draw(scalars) for _ in range(r)] for _ in range(r)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, r - 1))] = [CycNum.zero(draw(st.sampled_from([1, 5])))] * r
        mats.append(ExactMatrix(rows))
    return Form(r, terms, d), *mats


@settings(derandomize=True, deadline=None, max_examples=150)
@given(act_inputs())
def test_act_matches_reference(case):
    F, A = case
    got, want = act(F, A), reference_act(F, A)
    assert got == want
    assert serialize(got) == serialize(want)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(act_inputs(matrices=2))
def test_action_contravariance_mixed_conductors(case):
    F, A, B = case
    assert act(F, A * B) == act(act(F, A), B)


def test_act_matches_reference_on_catalog():
    # each catalog form moved off its invariant locus by one term, under every generator
    for entry in load_entries():
        F = entry.form()
        e = (F.degree - 1,) + (0,) * (F.nvars - 2) + (1,)
        moved = F + Form(F.nvars, {e: CycNum(3, [0, 2])}, F.degree)
        for g in entry.generators():
            got, want = act(moved, g), reference_act(moved, g)
            assert got == want, entry.label
            assert serialize(got) == serialize(want), entry.label


@st.composite
def shaped_matrix(draw, r):
    """A matrix that takes act's shape route: monomial rows, or I + u*w^T.

    Monomial rows may send two variables to one or be zero.  For I + u*w^T,
    w.u is 0 (a transvection), -1 (a singular g) or free; u and w may have
    zero entries, and scalars come at mixed conductors.
    """
    kind = draw(st.sampled_from(["monomial", "transvection", "singular", "rank-one"]))
    if kind == "monomial":
        rows = [[CycNum.zero()] * r for _ in range(r)]
        for row in rows:
            row[draw(st.integers(0, r - 1))] = draw(scalars)
        return ExactMatrix(rows)
    u, w = [draw(scalars) for _ in range(r)], [draw(scalars) for _ in range(r)]
    support = [k for k in range(r) if not u[k].is_zero()]
    if kind != "rank-one" and support:
        k = draw(st.sampled_from(support))
        rest = sum((w[j] * u[j] for j in range(r) if j != k), CycNum.zero())
        w[k] = ((0 if kind == "transvection" else -1) - rest) / u[k]
    return ExactMatrix([[u[i] * w[j] + (1 if i == j else 0) for j in range(r)] for i in range(r)])


@st.composite
def shaped_inputs(draw):
    F, B = draw(act_inputs())
    return F, draw(shaped_matrix(F.nvars)), B


@settings(derandomize=True, deadline=None, max_examples=200)
@given(shaped_inputs())
@example((parse("x1^2 + x2^2"), ExactMatrix([[1, 0], [1, 0]]), ExactMatrix.identity(2)))   # 2*x1^2
def test_act_on_shaped_matrices_matches_reference(case):
    F, A, B = case
    got, want = act(F, A), reference_act(F, A)
    assert got == want
    assert serialize(got) == serialize(want)
    assert act(F, A * B) == act(got, B)


def test_reflection_takes_far_fewer_dots_than_horner(monkeypatch):
    calls = []
    dot = CycNum.dot
    monkeypatch.setattr(CycNum, "dot", staticmethod(lambda pairs, n: calls.append(n) or dot(pairs, n)))

    def dots(label, index):
        entry = get_entry(label)
        F, g = entry.form(), entry.generators()[index]
        calls.clear()
        assert act(F, g) == F
        return len(calls)

    assert dots("todd-sextic", 3) <= 2000   # the reflection in (1,1,1,1,1,-sqrt(-3)); Horner makes 10,079
    assert dots("hessian-sextic", 3) == 306   # dense with rank(g - I) > 1: still Horner


@pytest.mark.parametrize("label, index, products", [
    ("pair-octahedral-sextic", 3, 2), ("pair-icosahedral-12ic", 3, 2), ("triple-icosahedral-12ic", 3, 2),
    ("triple-icosahedral-12ic", 5, 2), ("klein-quartic", 2, 41), ("todd-sextic", 3, 170)])
def test_rank_one_test_multiplies_no_zero_minor(monkeypatch, label, index, products):
    # a minor with a_ij = 0 and a_iq*a_pj = 0 is zero unmultiplied: the first four
    # generators made 18, 18, 26 and 50 products when every minor was multiplied
    entry = get_entry(label)
    F, g = entry.form(), entry.generators()[index]
    calls, mul = [], CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    image = act(F, g)
    monkeypatch.undo()
    assert image == F
    assert len(calls) == products


def test_component_examples():
    F = parse("x1^5*x2 + x3^5*x4", nvars=4)
    assert component(F, (2, 2), (6, 0)) == parse("x1^5*x2", nvars=4)
    assert not component(fermat_form(6, 4), (2, 2), (5, 1)).terms


def test_component_example_quintic():
    F = parse("(x1^4+x2^4)*x3 + (2+4*z3^2)*x1^2*x2^2*x3 - (x1^4+x2^4)*x4 "
              "+ (2+4*z3^2)*x1^2*x2^2*x4 + x3^4*x4 + x4^4*x3 + x5^5")
    got = component(F, (2, 2, 1), (4, 1, 0))
    want = parse("(x1^4+x2^4)*x3 + (2+4*z3^2)*x1^2*x2^2*x3 - (x1^4+x2^4)*x4 "
                 "+ (2+4*z3^2)*x1^2*x2^2*x4", nvars=5)
    assert got == want


def test_component_sum_reconstructs():
    for _ in range(10):
        F = rnd_form(4, 4, 6)
        total = None
        for k1 in range(F.degree + 1):
            c = component(F, (2, 2), (k1, F.degree - k1))
            if c.terms:
                total = c if total is None else total + c
        assert total == F


def test_partials_and_euler():
    ps = partials(parse("x1^3+x2^3"))
    assert ps[0] == parse("3*x1^2", nvars=2)
    ps = partials(parse("x1^3*x2", nvars=2))
    assert ps == [parse("3*x1^2*x2", nvars=2), parse("x1^3", nvars=2)]
    for _ in range(10):
        F = rnd_form(3, 4, 5)
        euler = None
        for i, p in enumerate(partials(F)):
            xi = Form(3, {tuple(1 if j == i else 0 for j in range(3)): CycNum.one()}, 1)
            t = form_product(xi, p)
            euler = t if euler is None else euler + t
        assert euler == Form(3, {e: c * F.degree for e, c in F.terms.items()}, F.degree)


def test_monomial_patterns():
    found, wit = has_monomial_pattern(parse("x1^5*x2 + x2^6"), (1, 1), (5, 1))
    assert found and wit == (5, 1)
    found, _ = has_monomial_pattern(fermat_form(6, 4), (2, 2), (5, 1))
    assert not found
    # range constraints
    found, wit = has_monomial_pattern(parse("x1^2*x2^2*x3^2", nvars=3), (1, 2), ((0, 2), (3, 6)))
    assert found and block_degrees(wit, (1, 2)) == (2, 4)


def test_serialize_round_trips():
    texts = [
        "x1^3*x2 + x2^3*x3 + x3^3*x1",
        "240*(1+2*z3)*x1*x2*x3*x4*x5*x6",
        "10*x1^3*x2^3+9*(x1^5+x2^5)*x3-45*x1^2*x2^2*x3^2-135*x1*x2*x3^4+27*x3^6",
    ]
    for text in texts:
        F = parse(text)
        assert parse(serialize(F)) == F
    for _ in range(20):
        F = rnd_form(3, 5, 5)
        assert parse(serialize(F)) == F
        terms = [{"exps": list(e), "coeff": scalar_to_str(F.terms[e])} for e in F.monomials()]
        payload = {"nvars": F.nvars, "degree": F.degree, "terms": terms}
        assert form_from_payload(json.loads(json.dumps(payload))) == F


@pytest.mark.parametrize("text, terms", [
    ("x1^3 + x1^3 + x2^3", [([3, 0], "1"), ([3, 0], "1"), ([0, 3], "1")]),
    ("x1^3 + z3*x1^3 - x2^3", [([3, 0], "1"), ([0, 3], "-1"), ([3, 0], "z3")]),
    ("x1^3 - x1^3 + x2^3", [([3, 0], "1"), ([3, 0], "-1"), ([0, 3], "1")]),
])
def test_json_sums_repeated_exponents_as_the_text_parser_does(text, terms):
    payload = {"nvars": 2, "terms": [{"exps": e, "coeff": c} for e, c in terms]}
    F = form_from_payload(payload)
    assert F == parse(text, nvars=2)
    assert serialize(F) == serialize(parse(text, nvars=2))


@pytest.mark.parametrize("fields", [{"nvars": True}, {"degree": False}])
def test_json_integer_fields_refuse_booleans(fields):
    payload = {"nvars": 2, "degree": 3, "terms": [{"exps": [3, 0], "coeff": "1"}], **fields}
    with pytest.raises(FormError, match="must be integers"):
        form_from_payload(payload)


@pytest.mark.parametrize("coeff", [0.1, True, [1]], ids=["float", "boolean", "list"])
def test_form_refuses_a_coefficient_that_is_neither_text_nor_an_integer(coeff):
    # 0.1 would be read as 3602879701896397/36028797018963968, True as 1
    with pytest.raises(FormError, match="is neither a string nor an integer"):
        Form(1, {(3,): coeff})


@st.composite
def forms(draw):
    nvars, degree = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            exps[i] += 1
        n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
        num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=n))
        terms[tuple(exps)] = CycNum(n, num, draw(st.integers(1, 4)))
    return Form(nvars, terms, degree)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(forms())
def test_serialize_round_trips_random(F):
    assume(F.terms)
    assert parse(serialize(F), nvars=F.nvars) == F


# text, error position under parse_scalar (which refuses any variable), under parse
REJECTED = [("2z3", 1, 1), ("1 2", 2, 2), ("2x1", 1, 1), ("(x1+x2)x3", 1, 7), ("z0", 0, 0),
            ("1/0", 1, 1), ("x0", 0, 0), ("(1", 2, 2)]


@pytest.mark.parametrize("text, scalar_pos, form_pos", REJECTED)
def test_one_grammar_rejects(text, scalar_pos, form_pos):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text)
    assert err.value.pos == scalar_pos
    with pytest.raises(FormError, match="at position %d$" % form_pos):
        parse(text, nvars=2)


def test_matrix_inverse():
    for _ in range(20):
        m = rnd_matrix(3)
        try:
            inv = m.inverse()
        except ZeroDivisionError:
            continue
        assert m * inv == inv * m == ExactMatrix.identity(3)


def test_act_dimension_mismatch():
    with pytest.raises(FormError):
        act(fermat_form(3, 3), ExactMatrix.identity(2))


entries_z12 = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(lambda v: CycNum(12, v))


@st.composite
def matrices_z12(draw):
    return ExactMatrix(draw(st.lists(st.lists(entries_z12, min_size=3, max_size=3), min_size=3, max_size=3)))


def _inverse_or_none(m):
    try:
        return m.inverse()
    except ZeroDivisionError:
        return None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrices_z12(), matrices_z12())
def test_inverse_is_two_sided_and_singularity_multiplicative(A, B):
    # det(AB) = det(A) det(B): A*B is singular iff A or B is
    inv_a, inv_b, inv_ab = _inverse_or_none(A), _inverse_or_none(B), _inverse_or_none(A * B)
    assert (inv_ab is None) == (inv_a is None or inv_b is None)
    if inv_a is not None:
        assert A * inv_a == ExactMatrix.identity(3)
        assert inv_a * A == ExactMatrix.identity(3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrices_z12(), st.booleans(), entries_z12, entries_z12)
@example(ExactMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), False, CycNum.zero(), CycNum.zero())
def test_every_singular_generator_is_refused(m, collapse, a, b):
    """The singular-residue lemma: MatGroup refuses each m whose inverse raises.

    With collapse, the last row becomes a*row_1 + b*row_2, so half the draws are singular.
    """
    if collapse:
        rows = m.entries
        m = ExactMatrix([rows[0], rows[1], [a * x + b * y for x, y in zip(rows[0], rows[1])]])
    if _inverse_or_none(m) is None:
        with pytest.raises(GroupError, match="singular mod p = .*: it is singular, or has infinite order"):
            MatGroup([m])


def reference_matmul(A, B):
    """Each entry the left fold of its nonzero products, one CycNum product and sum at a time."""
    out = []
    for row in A.entries:
        out_row = []
        for col in zip(*B.entries):
            terms = [a * b for a, b in zip(row, col) if not a.is_zero() and not b.is_zero()]
            acc = terms[0] if terms else CycNum.zero()
            for t in terms[1:]:
                acc = acc + t
            out_row.append(acc)
        out.append(out_row)
    return out


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.lists(st.lists(scalars, min_size=r, max_size=r), min_size=r, max_size=r), min_size=2, max_size=2)))
def test_matmul_matches_the_per_product_fold(rows):
    """Mixed conductors 1, 3, 4, 5, 12 and zero entries: every entry keeps the fold's n, num and den."""
    A, B = ExactMatrix(rows[0]), ExactMatrix(rows[1])
    got = [[(c.n, c.num, c.den) for c in row] for row in (A * B).entries]
    assert got == [[(c.n, c.num, c.den) for c in row] for row in reference_matmul(A, B)]


def test_singular_matrix_over_z12():
    z = root_of_unity(12)
    row = [1 + z, z ** 5, CycNum.from_int(2)]
    A = ExactMatrix([row, [z * c for c in row], [z ** 2, CycNum.zero(), 1 - z]])
    with pytest.raises(ZeroDivisionError):
        A.inverse()
