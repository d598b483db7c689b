import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaut import cyclotomic
from formaut.cyclotomic import (CycNum, _reduce_vector, cyclotomic_polynomial, euler_phi,
                                parse_scalar, root_of_unity, scalar_to_str)

from oracles import reference_reduce

MIXED_CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20, 24, 60]


@st.composite
def cycnums(draw):
    n = draw(st.integers(1, 60))
    num = draw(st.lists(st.integers(-7, 7), min_size=euler_phi(n), max_size=euler_phi(n)))
    return CycNum(n, num, draw(st.integers(1, 12)))


@st.composite
def mixed_cycnums(draw):
    n = draw(st.sampled_from(MIXED_CONDUCTORS))
    num = draw(st.lists(st.integers(-5, 5), min_size=euler_phi(n), max_size=euler_phi(n)))
    return CycNum(n, num, draw(st.integers(1, 6)))


def test_power_by_square_and_multiply(monkeypatch):
    """x**k wastes no product (x**1 takes none, x**60 at most 8) and keeps the n, num, den of the repeated product."""
    real, products = CycNum.__mul__, []

    def counted(a, b):
        products.append(1)
        return real(a, b)

    def power(x, k):
        products.clear()
        monkeypatch.setattr(CycNum, "__mul__", counted)
        value = x ** k
        monkeypatch.setattr(CycNum, "__mul__", real)
        return value, len(products)

    z5 = root_of_unity(5)
    for k, most in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (60, 8)]:
        assert power(z5, k)[1] <= most
    for x in [z5, 1 + 2 * z5 ** 3, root_of_unity(12) - 1, CycNum.from_fraction(Fraction(-3, 2)), CycNum(4, [0, 2], 3)]:
        expected = CycNum.one(x.n)
        for k in range(25):
            got = power(x, k)[0]
            assert (got.n, got.num, got.den) == (expected.n, expected.num, expected.den)
            inv = power(x, -k)[0]
            assert inv * got == 1
            expected = expected * x


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is the totient
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 400):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(expected)), n


def test_roots_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    z3 = root_of_unity(3)
    assert (z3 * z3 + z3 + 1).is_zero()
    assert z3 * z3 * z3 == 1


def test_sqrt_minus7_inside_conductor7():
    s = root_of_unity(7) + root_of_unity(7, 2) + root_of_unity(7, 4)
    assert (s * s + s + 2).is_zero()
    assert (2 * s + 1) ** 2 == -7


def test_sqrt_minus3():
    t = 1 + 2 * root_of_unity(3)
    assert t * t == -3


@pytest.mark.parametrize("p,sign", [(3, -1), (5, 1), (7, -1), (11, -1)])
def test_gauss_sum_identity(p, sign):
    residues = {pow(a, 2, p) for a in range(1, p)}
    g = CycNum.zero(p)
    for a in range(1, p):
        z = root_of_unity(p, a)
        g = g + z if a in residues else g - z
    assert g * g == sign * p


def test_field_axioms_random():
    rng = random.Random(20240811)

    def rnd(n):
        return CycNum(n, [rng.randint(-5, 5) for _ in range(euler_phi(n))], rng.randint(1, 6))

    for _ in range(300):
        n = rng.choice([3, 4, 5, 8, 12, 15])
        x, y, z = rnd(n), rnd(n), rnd(n)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == 0
        if not x.is_zero():
            assert x * x.inverse() == 1


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(5).inverse()
    with pytest.raises(ZeroDivisionError):
        root_of_unity(5) / CycNum.zero(5)


def test_conductor_lift_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice([3, 4, 6, 8])
        m = n * rng.choice([2, 3, 5])
        x = CycNum(n, [rng.randint(-4, 4) for _ in range(euler_phi(n))], rng.randint(1, 4))
        lifted = x.to_conductor(m)
        assert lifted == x
        assert lifted.reduce() == x.reduce()


def test_canonical_keys():
    assert root_of_unity(8, 4).canonical_key() == CycNum.from_int(-1).canonical_key()
    assert root_of_unity(5).canonical_key() != root_of_unity(5, 2).canonical_key()
    assert CycNum.zero(3).canonical_key() == CycNum.zero(12).canonical_key()
    # same value entering at different conductors
    a = root_of_unity(6)
    b = -root_of_unity(3, 2)
    assert a == b and a.canonical_key() == b.canonical_key()
    c = root_of_unity(3).to_conductor(12)
    assert c.canonical_key() == root_of_unity(3).canonical_key()


def test_scalar_text_round_trip():
    cases = ["(1+2*z3)", "3/4*z8^3", "-1", "2-z7^3", "1/2", "z60^37", "5*z12^2-1/3"]
    for text in cases:
        v = parse_scalar(text)
        assert parse_scalar(scalar_to_str(v)) == v
    assert parse_scalar("(1+2*z3)") ** 2 == -3
    # each coefficient in lowest terms, not over the common denominator
    assert scalar_to_str(parse_scalar("5*z12^2-1/3")) == "14/3+5*z3"
    assert scalar_to_str(parse_scalar("(2*z3-1)/(1+z4)")) == "-3/2+z12+z12^2+1/2*z12^3"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(cycnums())
def test_scalar_text_round_trip_random(x):
    assert parse_scalar(scalar_to_str(x)) == x


def test_scalar_parse_errors():
    from formaut.cyclotomic import ScalarSyntaxError
    for bad in ["1+", "z", "x1", "(1", "1//2"]:
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(bad)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_cycnums(), mixed_cycnums(), mixed_cycnums())
def test_ring_axioms_mixed_conductors(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and (x + (-x)).is_zero()
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert y / x * x == y


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mixed_cycnums(), st.integers(1, 5))
def test_lift_keeps_value_and_hash(x, k):
    lifted = x.to_conductor(x.n * k)
    assert lifted == x
    assert hash(lifted) == hash(x)


def test_reduce_vector_matches_sympy_remainder():
    """Every length up to 3n, so vectors past the reduction rows take the fold."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(60)
    for n in MIXED_CONDUCTORS:
        phi = euler_phi(n)
        modulus = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        for length in range(3 * n + 1):
            vec = [rng.randint(-9, 9) for _ in range(length)]
            rem = sympy.Poly(list(reversed(vec)) or [0], x).rem(modulus)
            expected = [int(c) for c in reversed(rem.all_coeffs())]
            assert _reduce_vector(vec, n) == expected + [0] * (phi - len(expected))


def test_kernel_caches_are_bounded():
    """More conductors than the bound: the per-conductor tables keep at most the bound."""
    bound = cyclotomic.KERNEL_CACHE
    for n in range(1, 2 * bound + 1):
        CycNum(n, [0] * (n - 1) + [1])      # zeta^(n-1) is divided by Phi_n
    for table in (cyclotomic.cyclotomic_polynomial, cyclotomic._low_terms):
        assert table.cache_info().currsize <= bound


@st.composite
def subfield_values(draw):
    """A value drawn from Q(zeta_d), lifted to a conductor n <= 120 that d divides."""
    n = draw(st.integers(1, 120))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    phi = euler_phi(d)
    num = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi))
    return CycNum(d, num, draw(st.integers(1, 6))).to_conductor(n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(subfield_values())
def test_reduce_matches_the_elimination_oracle(x):
    assert _fields(x.reduce()) == _fields(reference_reduce(x))


DOT_CONDUCTORS = [1, 3, 4, 5, 12, 60]


@st.composite
def dot_cases(draw):
    """A conductor n and up to five pairs whose operands lie at n or at a divisor of n."""
    n = draw(st.sampled_from(DOT_CONDUCTORS))
    divisors = [m for m in DOT_CONDUCTORS if n % m == 0]

    def operand():
        m = draw(st.sampled_from(divisors))
        phi = euler_phi(m)
        num = draw(st.just([0] * phi) | st.lists(st.integers(-5, 5), min_size=phi, max_size=phi))
        return CycNum(m, num, draw(st.integers(1, 7)))

    return n, [(operand(), operand()) for _ in range(draw(st.integers(0, 5)))]


def _fields(x):
    return x.n, x.num, x.den


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dot_cases())
def test_dot_is_the_left_fold(case):
    n, pairs = case
    fold = CycNum.zero(n)
    for a, b in pairs:
        fold = fold + a * b
    assert _fields(CycNum.dot(pairs, n)) == _fields(fold)


@pytest.mark.parametrize("n", DOT_CONDUCTORS)
def test_dot_of_no_pair_and_of_one_pair(n):
    assert _fields(CycNum.dot([], n)) == _fields(CycNum.zero(n)) == (n, (0,) * euler_phi(n), 1)
    rng = random.Random(n)
    for _ in range(20):
        a, b = (CycNum(n, [rng.randint(-5, 5) for _ in range(euler_phi(n))], rng.randint(1, 7))
                for _ in range(2))
        assert _fields(CycNum.dot([(a, b)], n)) == _fields(a * b)


def test_dot_refuses_an_operand_outside_its_conductor():
    with pytest.raises(ValueError):
        CycNum.dot([(root_of_unity(3), CycNum.one())], 4)
