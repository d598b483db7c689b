import hashlib
import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formaut.cyclotomic import CycNum, root_of_unity
from formaut.forms import Form, parse
from formaut.matgroups import _monomials
from formaut.smoothness import (GF, CycField, SmoothnessError, _divides, _packing, buchberger,
                                form_to_poly, good_primes, is_smooth, split_prime, variable_components)

from lemmas import grevlex_key, smtosm_witness
from oracles import (bareiss_determinant, fermat_form, form_product, macaulay_smooth, reference_char0_verdict,
                     smooth_by_resultant, sylvester_resultant, union_find_components)

rng = random.Random(8128)
GOLDEN = Path(__file__).parent / "golden"


def _cyc_basis(forms):
    cap = 4 * max(f.degree for f in forms)
    return buchberger([form_to_poly(f, CycField()) for f in forms], CycField(), cap)


def test_groebner_trivial_cases():
    gb = _cyc_basis([parse("x1^2", nvars=2), parse("x2^2", nvars=2)])
    assert sorted(g.lm for g in gb.basis) == [(0, 2), (2, 0)]
    gb = _cyc_basis([parse("3*x1^2", nvars=3), parse("3*x2^2", nvars=3), parse("3*x3^2", nvars=3)])
    assert all(str(g.terms[g.lm]) == "1" for g in gb.basis)


def test_groebner_klein_pure_powers():
    from formaut.forms import partials
    gb = _cyc_basis(partials(parse("x1^3*x2 + x2^3*x3 + x3^3*x1")))
    assert gb.complete
    lms = [g.lm for g in gb.basis]
    for i in range(3):
        assert any(lm[i] > 0 and all(x == 0 for j, x in enumerate(lm) if j != i) for lm in lms)


def _canonical(bases):
    return sorted(tuple(sorted(terms)) for terms in bases)


def _sympy_reduced_basis(polys, nvars, **domain):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x1:%d" % (nvars + 1))
    exprs = [sum(c * sympy.prod(g ** k for g, k in zip(gens, e)) for e, c in p.items()) for p in polys]
    basis = sympy.groebner(exprs, *gens, order="grevlex", **domain)
    return [sympy.Poly(g, *gens, **domain).terms() for g in basis.exprs]


def _random_polys(nvars, coeff):
    polys = []
    while not polys:
        for _ in range(rng.randint(2, 4)):
            terms = {tuple(rng.randint(0, 3) for _ in range(nvars)): coeff()
                     for _ in range(rng.randint(1, 4))}
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                polys.append(terms)
    return nvars, polys


def _assert_matches_sympy(nvars, polys, p):
    """buchberger is sympy's reduced grevlex basis.

    Over F_p, or over Q when p is 0.  A unit ideal must give sympy's [1].
    """
    if p:
        field, ours_in = GF(p), polys
        want = [[(e, c % p) for e, c in terms] for terms in _sympy_reduced_basis(polys, nvars, modulus=p)]
    else:
        field, ours_in = CycField(), [{e: CycNum.from_int(c) for e, c in t.items()} for t in polys]
        want = [[(e, Fraction(int(c.p), int(c.q))) for e, c in terms]
                for terms in _sympy_reduced_basis(polys, nvars, domain="QQ")]
    ours = buchberger(ours_in, field, 4 * max(sum(e) for t in polys for e in t))
    assert ours.complete
    got = [[(e, c if p else c.as_fraction()) for e, c in g.terms.items()] for g in ours.basis]
    assert _canonical(got) == _canonical(want)


def test_buchberger_matches_sympy_groebner():
    # reference: sympy's reduced grevlex basis, over F_32003 and over Q
    p = 32003
    inputs = [_random_polys(rng.randint(2, 3), lambda: rng.randint(0, p - 1)) for _ in range(25)]
    # a degree 64 binary input: packing bound 128, so 9-bit exponent fields
    inputs.append((2, [{(64, 0): 1, (7, 57): 2, (0, 64): p - 1}, {(63, 1): 5, (0, 64): 3, (2, 62): 1}]))
    for nvars, polys in inputs:
        _assert_matches_sympy(nvars, polys, p)
    for _ in range(15):
        nvars, polys = _random_polys(rng.randint(2, 3), lambda: rng.randint(-3, 3))
        _assert_matches_sympy(nvars, polys, 0)


@st.composite
def _poly_systems(draw, coeffs):
    """2 to 4 polynomials in 2 to 4 variables, exponents at most 3.

    Terms have degree at most 6, at most 4 in 4 variables: sympy's reference
    basis takes up to half a minute on some degree-8 systems in 4 variables.
    """
    nvars = draw(st.integers(2, 4))
    max_degree = 6 if nvars < 4 else 4
    monomial = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= max_degree)
    polys = draw(st.lists(st.dictionaries(monomial, coeffs, min_size=1, max_size=4),
                          min_size=2, max_size=4))
    return nvars, polys


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_poly_systems(st.integers(1, 32002)))
def test_buchberger_matches_sympy_modp(system):
    _assert_matches_sympy(*system, 32003)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_poly_systems(st.sampled_from([-3, -2, -1, 1, 2, 3])))
def test_buchberger_matches_sympy_rationals(system):
    _assert_matches_sympy(*system, 0)


PACKED_PAIRS = st.integers(1, 6).flatmap(lambda n: st.integers(1, 300).flatmap(lambda bound: st.tuples(
    st.just(bound), *[st.tuples(st.integers(0, bound), st.integers(0, bound))] * n)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(PACKED_PAIRS)
def test_packed_divisibility_is_exponentwise(drawn):
    # pair update, reducer memo and reduction all rest on this test's direction
    bound, *pairs = drawn
    a, b = tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
    pack, unpack, lcm, guard, offset, shift = _packing(len(a), bound)
    assert unpack(pack(a)) == a and pack(a) >> shift == sum(a)
    assert _divides(pack(a), pack(b), guard) == all(x <= y for x, y in zip(a, b))
    assert _divides(pack(b), pack(a), guard) == all(y <= x for x, y in zip(a, b))
    assert (pack(a) < pack(b)) == (grevlex_key(a) < grevlex_key(b))
    assert _divides(offset, pack(a), guard)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(PACKED_PAIRS)
def test_packed_lcm_is_exponentwise_max(drawn):
    # the pair update's lcms; b is trimmed to degree <= bound, the helper's one hypothesis
    bound, *pairs = drawn
    a, b, rest = tuple(x for x, _ in pairs), [], bound
    for _, y in pairs:
        b.append(min(y, rest))
        rest -= b[-1]
    pack, unpack, lcm, guard, offset, shift = _packing(len(a), bound)
    assert lcm(pack(a), pack(b)) == pack(tuple(map(max, a, b)))
    assert lcm(pack(b), pack(b)) == pack(b) and lcm(offset, pack(b)) == pack(b)


def test_pair_budget_counts_processed_pairs():
    # b pairs complete a run that needs b; b - 1 leave it incomplete
    p = 32003
    polys = [{(2, 0, 0): 1, (0, 1, 1): 3, (1, 0, 1): 5}, {(0, 2, 0): 1, (1, 0, 1): 7, (1, 1, 0): 2},
             {(0, 0, 2): 1, (1, 1, 0): 11, (0, 1, 1): 13}]
    needed = buchberger(polys, GF(p), 8).pairs_processed
    assert needed > 1
    for budget in (0, needed - 1):
        short = buchberger(polys, GF(p), 8, pair_budget=budget)
        assert not short.complete and short.pairs_processed == budget
    full = buchberger(polys, GF(p), 8, pair_budget=needed)
    assert full.complete and full.pairs_processed == needed


@pytest.mark.parametrize("polys,cap,budget", [
    # x^2, x^2 + x, x^3 + 1: the third input reduces to 1 while the pair (x, x^2) is live
    ([{(2, 0): 1}, {(2, 0): 1, (1, 0): 1}, {(3, 0): 1, (0, 0): 1}], 4, 0),
    # x*y - 1, x^2, x*z^5 + 1: the second pair gives 1 while (x, x*z^5 + 1), of degree 6, is live
    ([{(1, 1, 0): 1, (0, 0, 0): 32002}, {(2, 0, 0): 1}, {(1, 0, 5): 1, (0, 0, 0): 1}], 4, 200000),
])
def test_unit_ideal_stops_complete(polys, cap, budget):
    # once 1 is in the basis, no pair left over the budget or the degree cap makes the run incomplete
    gb = buchberger(polys, GF(32003), cap, pair_budget=budget)
    one = (0,) * len(next(iter(polys[0])))
    assert gb.complete and [(g.terms, g.lm) for g in gb.basis] == [({one: 1}, one)]
    assert gb.pairs_processed <= budget


def _engine_inputs():
    """Seeded engine inputs: (name, field, polys, degree cap, pair budget).

    2 or 3 variables, 2 to 4 polynomials of at most 4 terms, exponents at
    most 3, coefficients a + b*z3 with |a|, |b| <= 3; in the inputs named
    "mixed" a third of the coefficients are c*z4 instead.  Over F_p they are
    reduced at a prime that splits Q(zeta12).  The pair budget bounds the
    characteristic-0 runs, whose coefficients can grow without bound.
    """
    local = random.Random(2501)
    z3, z4 = root_of_unity(3), root_of_unity(4)
    gf = GF(split_prime(12, 1), 12)

    def draw(mixed):
        nvars = local.randint(2, 3)
        polys = []
        for _ in range(local.randint(2, 4)):
            terms = {}
            for _ in range(local.randint(1, 4)):
                e = tuple(local.randint(0, 3) for _ in range(nvars))
                if mixed and local.random() < 1 / 3:
                    terms[e] = local.choice((-2, -1, 1, 2)) * z4
                else:
                    terms[e] = local.randint(-3, 3) + local.randint(-3, 3) * z3
            polys.append(terms)
        return polys

    runs = []
    for k in range(60):
        mixed = k % 2 == 1
        polys = draw(mixed)
        name = "%s %d" % ("mixed" if mixed else "z3", k)
        runs.append(("gf " + name, gf, [{e: gf.from_cyc(c) for e, c in t.items()} for t in polys], 8, 200000))
        runs.append(("cyc " + name, CycField(), polys, 8, 20))
    return runs


def _engine_runs():
    """{name: [leading monomials, basis digest, complete, pairs_processed]} per run.

    The runs are the seeded inputs, every buchberger call of
    `is_smooth(form, "modp")` on the 16 catalog forms, and every call of
    `is_smooth(form, "char0")` on a form whose coefficients mix z3 and z4.
    The digest is the SHA-256 of the basis as its elements' term lists in
    the engine's order, a coefficient as an int over F_p and as [n, num, den]
    over K; it stands for the basis because one characteristic-0 basis
    written out takes half a megabyte.
    """
    from formaut import smoothness
    from formaut.catalog import load_entries

    def record(gb):
        def coeff(c):
            return [c.n, list(c.num), c.den] if isinstance(c, CycNum) else c
        basis = [[[list(e), coeff(c)] for e, c in g.terms.items()] for g in gb.basis]
        digest = hashlib.sha256(json.dumps(basis).encode()).hexdigest()
        return [[list(g.lm) for g in gb.basis], digest, gb.complete, gb.pairs_processed]

    out = {name: record(buchberger(polys, field, cap, pair_budget=budget))
           for name, field, polys, cap, budget in _engine_inputs()}
    engine = smoothness.buchberger
    calls = []

    def recording(*args, **kwargs):
        calls.append(engine(*args, **kwargs))
        return calls[-1]

    smoothness.buchberger = recording
    try:
        forms = [(e.label, e.form(), "modp") for e in load_entries()]
        forms.append(("mixed", parse("x1^2*x2^2 + z3*x1*x2^3 + z4*x2^4 + x1^4"), "char0"))
        for key, form, strategy in forms:
            del calls[:]
            is_smooth(form, strategy)
            for k, gb in enumerate(calls):
                out["%s %s run %d" % (key, strategy, k + 1)] = record(gb)
    finally:
        smoothness.buchberger = engine
    return out


def test_engine_reproduces_the_golden_runs():
    # written from the engine before lazy residues, packed lcms and the fused K update
    golden = json.loads((GOLDEN / "buchberger_runs.json").read_text())
    assert json.loads(json.dumps(_engine_runs())) == golden


@pytest.mark.parametrize("d,n", [(3, 1), (6, 2), (17, 25)])
def test_fermat_smooth(d, n):
    cert = is_smooth(fermat_form(d, n + 2))
    assert cert.verdict == "smooth" and cert.method == "split-variables"


def test_catalog_small_forms_smooth_modp_and_char0_agree():
    forms = [
        parse("x1^3*x2 + x2^3*x3 + x3^3*x1"),
        parse("x1^6 + x2^6 + x3^6 - 10*(x1^3*x2^3 + x2^3*x3^3 + x3^3*x1^3)"),
        parse("10*x1^3*x2^3+9*(x1^5+x2^5)*x3-45*x1^2*x2^2*x3^2-135*x1*x2*x3^4+27*x3^6"),
    ]
    for F in forms:
        modp = is_smooth(F, "modp")
        char0 = is_smooth(F, "char0")
        assert modp.verdict == char0.verdict == "smooth"


def test_icosahedral_block_smooth_and_resultant():
    ico = parse("x1^11*x2 + 11*x1^6*x2^6 - x1*x2^11")
    assert is_smooth(ico, "char0").verdict == "smooth"
    assert smooth_by_resultant(ico)


def test_singular_controls_with_witness():
    cert = is_smooth(parse("x1^3*x2", nvars=2))
    assert cert.verdict == "singular"
    assert [str(w) for w in cert.witness] == ["0", "1"]
    cert = is_smooth(parse("x1^3 + x2^3", nvars=3))
    assert cert.verdict == "singular"
    assert [str(w) for w in cert.witness] == ["0", "0", "1"]


def test_coordinate_point_is_one_certificate_under_every_strategy():
    # e_3 kills every partial: x3 is unused in the first form, and in the
    # second, which is one variable component, no term has x2^2
    for text, point in [("x1^3 + x2^3", ["0", "0", "1"]), ("x1^3 + x1*x2*x3 + x3^3", ["0", "1", "0"])]:
        form = parse(text, nvars=3)
        certs = {json.dumps(is_smooth(form, strategy).payload()) for strategy in ("auto", "modp", "char0")}
        assert len(certs) == 1
        cert = is_smooth(form)
        assert (cert.verdict, cert.method, cert.primes) == ("singular", "coordinate-point", [])
        assert [str(w) for w in cert.witness] == point
        assert cert.detail == {"reason": "coordinate point kills all partials"}


def test_split_strategy_block_form():
    F = parse("x1^5*x2 + x2^5*x1 + x3^5*x4 + x4^5*x3")
    cert = is_smooth(F)
    assert cert.verdict == "smooth" and cert.method == "split-variables"
    assert variable_components(F) == [[0, 1], [2, 3]]


def random_binary_form(d):
    terms = {}
    for i in range(d + 1):
        c = rng.randint(-3, 3)
        if c:
            terms[(d - i, i)] = CycNum.from_int(c)
    if not terms:
        terms[(d, 0)] = CycNum.one()
    return Form(2, terms, d)


def test_binary_groebner_agrees_with_resultant():
    for _ in range(60):
        F = random_binary_form(rng.randint(2, 6))
        cert = is_smooth(F, "char0")
        assert cert.verdict in ("smooth", "singular")
        assert (cert.verdict == "smooth") == smooth_by_resultant(F)


COEFFS = [CycNum.from_int(k) for k in (1, -1, 2, -2, 3)] + [root_of_unity(3), root_of_unity(4)]


def _lines_through(p):
    """The nonzero linear forms p_i x_j - p_j x_i, which vanish at the point p."""
    r = len(p)
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    lines = [Form(r, {unit[j]: p[i], unit[i]: -p[j]}, 1) for i in range(r) for j in range(i + 1, r)]
    return [ell for ell in lines if ell.terms]


def _singular_at(p, products, d):
    """sum c * l_a * l_b * m over (a, b, m, c): every term vanishes to order 2 at p."""
    lines = _lines_through(p)
    form = Form(len(p), {}, d)
    for a, b, m, c in products:
        form = form + form_product(form_product(lines[a % len(lines)], lines[b % len(lines)]),
                                   Form(len(p), {m: c}, d - 2))
    return form


@st.composite
def _drawn_forms(draw):
    """A form of degree 2 to 4 in 2 to 4 variables, coefficients in +-1, +-2, 3, z3, z4.

    Half are drawn term by term: each pure power x_i^d present or absent,
    and up to four more terms, so the coordinate-point shortcut decides only
    some.  The other half are planted singular at a drawn point.
    """
    r, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    coeff = st.sampled_from(COEFFS)
    if draw(st.booleans()):
        p = draw(st.lists(st.sampled_from((1, -1, 2, 0)), min_size=r, max_size=r).filter(any))
        products = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                           st.sampled_from(_monomials(r, d - 2)), coeff), min_size=1, max_size=5))
        form = _singular_at(p, products, d)
        assume(form.terms)
        return form
    terms = {tuple(d if j == i else 0 for j in range(r)): c
             for i, c in enumerate(draw(st.lists(st.sampled_from(COEFFS + [None]), min_size=r, max_size=r))) if c}
    terms.update(draw(st.dictionaries(st.sampled_from(_monomials(r, d)), coeff, min_size=1, max_size=4)))
    return Form(r, terms, d)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_drawn_forms())
def test_char0_charts_match_the_pure_power_criterion(form):
    want = reference_char0_verdict(form)
    cert = is_smooth(form, "char0")
    if want is not None:
        assert cert.verdict == ("smooth" if want else "singular")
    if cert.verdict == "singular" and cert.witness is None:
        assert 1 <= cert.detail["chart"] <= form.nvars
    if form.nvars == 2 and all(c.is_rational() and c.as_fraction().denominator == 1 for c in form.terms.values()):
        assert (cert.verdict == "smooth") == smooth_by_resultant(form)


def test_macaulay_rank_oracle_agrees_with_both_routes():
    local = random.Random(1916)
    verdicts = []
    for k in range(60):
        r, d = local.randint(2, 3), local.randint(2, 4)
        if k % 2:
            p = [local.choice((0, 1, -1, 2)) for _ in range(r - 1)] + [1]
            products = [(local.randrange(3), local.randrange(3), local.choice(_monomials(r, d - 2)),
                         local.choice((1, -1, 2, 3))) for _ in range(local.randint(1, 4))]
            form = _singular_at(p, products, d)
        else:
            form = Form(r, {e: local.choice((0, 1, -1, 2, Fraction(1, 2), -3)) for e in _monomials(r, d)}, d)
        if not form.terms:
            continue
        smooth = macaulay_smooth(form)
        assert is_smooth(form).verdict == is_smooth(form, "char0").verdict == ("smooth" if smooth else "singular")
        verdicts.append(smooth)
    assert True in verdicts and False in verdicts


def test_chart_criterion_finds_a_point_off_the_coordinate_axes():
    # singular at (1 : 1 : 1), not a coordinate point, so only the charts over K decide it
    cert = is_smooth(parse("x1^3 + x2^3 + x3^3 - 3*x1*x2*x3"), "char0")
    assert (cert.verdict, cert.method, cert.witness, cert.detail) == ("singular", "groebner-char0", None, {"chart": 3})
    cert = is_smooth(parse("x1^3*x2 + x2^3*x3 + x3^3*x1"), "char0")
    assert (cert.verdict, cert.detail) == ("smooth", {"charts": 3})


@pytest.mark.parametrize("text, options, verdict, method, detail", [
    ("x1^3 + x2^3 + x3^3 - 3*x1*x2*x3 + x4^3 + x5^3", {}, "singular", "split-variables",
     {"component": [1, 2, 3], "inner": {"chart": 3}}),
    ("x1^3*x2 + x2^3*x3 + x3^3*x1 + x4^4 + x5^4", {"pair_budget": 0}, "undecided", "split-variables",
     {"component": [1, 2, 3]}),
    ("x1^3*x2 + x2^3*x3 + x3^3*x1", {"strategy": "char0", "pair_budget": 0}, "undecided", "groebner-char0",
     {"chart": 3, "pairs": 0}),
])
def test_split_and_undecided_verdicts_carry_their_detail(text, options, verdict, method, detail):
    # a singular component names itself and its own detail; an undecided one names itself;
    # an undecided characteristic-0 run names the chart that stopped and its pairs
    cert = is_smooth(parse(text), **options)
    assert (cert.verdict, cert.method, cert.detail) == (verdict, method, detail)


def test_one_variable_form_reports_the_route_that_decided():
    form = parse("x1^4")
    cert = is_smooth(form, "modp")
    assert (cert.verdict, cert.method, cert.primes) == ("smooth", "groebner-modp", [split_prime(1, 1)])
    cert = is_smooth(form, "char0")
    assert (cert.verdict, cert.method, cert.detail) == ("smooth", "groebner-char0", {"charts": 1})


def test_resultant_basic():
    f = parse("x1^2 - x2^2")
    g = parse("x1 - x2", nvars=2)
    assert sylvester_resultant(f, g).is_zero()
    g2 = parse("x1 + 2*x2", nvars=2)
    assert not sylvester_resultant(f, g2).is_zero()


def test_bareiss_matches_sympy():
    sympy = pytest.importorskip("sympy")
    local = random.Random(4096)
    for n in range(1, 7):
        for _ in range(10):
            rows = [[local.choice((0, 0, local.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(rows) == sympy.Matrix(rows).det()


def test_variable_components_match_union_find():
    local = random.Random(2718)
    for _ in range(500):
        r, degree = local.randint(1, 8), local.randint(2, 4)
        terms = {}
        for _ in range(local.randint(1, 6)):
            e = [0] * r
            for _ in range(degree):
                e[local.randrange(r)] += 1
            terms[tuple(e)] = CycNum.one()
        form = Form(r, terms, degree)
        assert variable_components(form) == union_find_components(form)


def _split_prime_by_draw_count(conductor, den, seed, lo):
    """The earlier rule: the first prime not dividing den among log_lo(den) + 1 drawn primes."""
    return next(p for p in good_primes(conductor, 1 + den.bit_length() // (lo.bit_length() - 1), seed, lo) if den % p)


def test_split_prime_matches_the_draw_count_rule():
    # dens built from the drawn primes force skips; the conductors cover a window that widens
    # (131072) and conductors above the window
    for conductor in (1, 3, 12, 131072, (1 << 20) + 3, (1 << 21) + 5):
        for lo in (1 << 20, 1 << 21):
            for seed in range(3):
                drawn = good_primes(conductor, 3, seed, lo)
                for den in (1, 7, drawn[0], drawn[0] * drawn[1], drawn[0] * drawn[1] * drawn[2], 12 * drawn[1]):
                    assert split_prime(conductor, den, seed, lo) == _split_prime_by_draw_count(conductor, den, seed, lo)


@pytest.mark.parametrize("prime", [5, 9, 4, 0])
def test_supplied_prime_must_split_the_field(prime):
    # conductor 3: 7 splits Q(z3); 5 does not, and 9, 4 and 0 are not primes
    form = parse("x1^3 + z3*x2^3 + x1*x2*x3 + x3^3")
    assert is_smooth(form, strategy="modp", primes=[7]).primes == [7]
    with pytest.raises(SmoothnessError):
        is_smooth(form, strategy="modp", primes=[prime])


def test_first_complete_prime_is_the_certificate():
    # mod 7 the form is x1^2 + x2^2, singular at (0 : 0 : 1); 13 proves it smooth
    form = parse("x1^2 + x2^2 + 7*x3^2")
    cert = is_smooth(form, "modp", primes=[7, 13])
    assert (cert.verdict, cert.method, cert.primes) == ("smooth", "groebner-modp", [13])
    cert = is_smooth(form, "modp", primes=[7])       # undecided once every prime refuses
    assert (cert.verdict, cert.primes, cert.detail["per_prime"]) == ("undecided", [7], {"7": False})


def test_drawn_prime_divides_no_denominator():
    (p,) = good_primes(1, 1, seed=0)
    cert = is_smooth(parse("x1^3*x2 + x2^3*x3 + 1/%d*x3^3*x1" % p))
    assert (cert.verdict, cert.method) == ("smooth", "groebner-modp")
    assert cert.primes != [p]


@pytest.mark.parametrize("strategy", ["auto", "modp", "char0", "bogus"])
def test_supplied_prime_dividing_a_denominator_is_refused(strategy):
    # refused up front, before any chart run: char0 never reduces mod 7, and an unknown
    # strategy is refused with no prime supplied (it once fell through to characteristic 0)
    with pytest.raises(SmoothnessError):
        is_smooth(parse("x1^3*x2 + x2^3*x3 + 1/7*x3^3*x1"), strategy, primes=None if strategy == "bogus" else [7])


def test_prime_chooser_skips_every_prime_dividing_den():
    drawn = good_primes(3, 3, seed=2)
    p = split_prime(3, drawn[0] * drawn[1] * drawn[2], seed=2)
    assert p % 3 == 1 and p not in drawn
    assert split_prime(3, 1, seed=2) == drawn[0]


def test_good_primes_split_conductor():
    primes = good_primes(12, 3, seed=5)
    assert len(set(primes)) == 3
    for p in primes:
        assert (1 << 20) <= p < (1 << 21) and p % 12 == 1
    # reduction map is a ring homomorphism
    field = GF(primes[0], 12)
    from formaut.cyclotomic import root_of_unity
    z = root_of_unity(12)
    assert pow(field.from_cyc(z), 12, field.p) == 1
    a = z + 2
    b = 3 * z ** 5 - 1
    assert field.from_cyc(a * b) == field.from_cyc(a) * field.from_cyc(b) % field.p


def test_good_primes_conductor_above_window():
    # no p = k*N + 1 with k >= 1 lies in [2^20, 2^21): k >= 1 is drawn instead
    for conductor in ((1 << 20) + 3, (1 << 21) + 5):
        primes = good_primes(conductor, 3, seed=0)
        assert len(set(primes)) == 3
        for p in primes:
            assert p > conductor and p % conductor == 1
            assert all(p % q for q in range(2, isqrt(p) + 1))
    assert good_primes(3, 1, seed=0) == [1267633]


def _first_window_draw(conductor, count, seed):
    """Reference: draw k in [2^20 // N, 2^21 // N) until `count` primes, no widening."""
    lo, hi = 1 << 20, 1 << 21
    rng = random.Random(seed)
    found, seen = [], set()
    while len(found) < count:
        p = rng.randrange(lo // conductor, hi // conductor) * conductor + 1
        if lo <= p < hi and p not in seen:
            seen.add(p)
            if all(p % q for q in range(2, isqrt(p) + 1)):
                found.append(p)
    return found


def test_good_primes_widens_an_exhausted_window():
    # [2^20, 2^21) holds fewer than 3 primes = 1 (mod N) for these conductors
    for conductor in (131072, 524289, 1048576):
        for seed in range(3):
            primes = good_primes(conductor, 3, seed)
            assert len(set(primes)) == 3 and primes == good_primes(conductor, 3, seed)
            for p in primes:
                assert p % conductor == 1 and all(p % q for q in range(2, isqrt(p) + 1))
    # a window that is not exhausted gives the same draw as before widening existed
    for conductor in range(1, 400):
        for seed in range(3):
            assert good_primes(conductor, 3, seed) == _first_window_draw(conductor, 3, seed)


def test_smtosm_witness_examples():
    F = parse("x1^3*x3 + x2^4 + x3^4", nvars=3)
    assert smtosm_witness(F, 2, 1) == (3, 0, 1)
    F = parse("x1^2*x3 + x2^3 + x3^3")
    assert smtosm_witness(F, 2, 1) == (2, 0, 1)


def test_smtosm_witness_randomized():
    found = 0
    while found < 25:
        # build a smooth form whose restriction to x1..x2 is singular:
        # start from a singular binary head and repair with tail monomials
        head = parse("x1^3*x2", nvars=3)
        tail_terms = {(0, 0, 4): CycNum.one(), (0, 3, 1): CycNum.one(),
                      (3 if rng.random() < 0.5 else 2, 0, 1 if rng.random() < 0.5 else 2): CycNum.one()}
        tail_terms = {e: c for e, c in tail_terms.items() if sum(e) == 4}
        F = head + Form(3, tail_terms, 4)
        cert = is_smooth(F)
        if cert.verdict != "smooth":
            continue
        w = smtosm_witness(F, 2, 1)
        assert sum(w[2:]) == 1
        found += 1


def test_smtosm_rejects_smooth_restriction():
    F = fermat_form(4, 3)
    with pytest.raises(SmoothnessError):
        smtosm_witness(F, 2, 1)


def test_gf_root_has_exact_order():
    for n in range(1, 101):
        p = good_primes(n, 1)[0]
        r = GF(p, n).root
        assert pow(r, n, p) == 1
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % s for s in range(2, q))]
        assert all(pow(r, n // q, p) != 1 for q in primes)
