"""Field arithmetic tests: frozen small-field values plus exhaustive axioms."""

import time

import pytest

from thetalab.errors import DivisionByZero, IndexOutOfRange, NotPrime, OrderUnavailable, Overflow, PreconditionViolated
from thetalab.ffield import (
    FieldElement,
    element_of_order,
    field_create,
    field_from_order,
    is_prime,
    order_split,
    prime_power_split,
    subgroup,
)

PRIME_POWERS_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]


# ---------------------------------------------------------------------------
# construction and modulus selection
# ---------------------------------------------------------------------------


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        field_create(6)
    with pytest.raises(NotPrime):
        field_create(1)
    with pytest.raises(NotPrime):
        prime_power_split(12)


def test_order_cap():
    with pytest.raises(Overflow):
        field_create(2, 40)
    # refused before the trial division of p, and before 2^(10^12) is built
    with pytest.raises(Overflow, match=r"^field order 2305843009213693951\^1 exceeds 2147483648$"):
        field_create(2**61 - 1)
    with pytest.raises(Overflow):
        field_create(2, 10**12)


def test_order_split_checks_without_building_the_field():
    assert order_split(3**19) == (3, 19)  # no degree-19 modulus search
    assert order_split(49) == (7, 2)
    with pytest.raises(NotPrime):
        order_split(12)
    with pytest.raises(Overflow):
        order_split(2**40)
    # refused before factoring, which took up to sqrt(q)/2 trial divisions; a
    # non-prime-power above the cap is an Overflow too
    for q in (2**61 - 1, 6 * 2**40):
        with pytest.raises(Overflow, match=f"^field order {q} exceeds 2147483648$"):
            order_split(q)


def test_prime_power_split():
    assert prime_power_split(49) == (7, 2)
    assert prime_power_split(32) == (2, 5)
    assert prime_power_split(17) == (17, 1)
    limit = 5000
    powers = {p**a: (p, a) for p in range(2, limit) if is_prime(p) for a in range(1, 13) if p**a < limit}
    for q in range(-5, limit):
        if q in powers:
            assert prime_power_split(q) == powers[q], q
        else:
            with pytest.raises(NotPrime, match=f"^{q} is not a prime power$"):
                prime_power_split(q)


def test_field_create_refuses_degree_below_one():
    for alpha in (0, -1):
        with pytest.raises(PreconditionViolated, match="alpha must be >= 1"):
            field_create(5, alpha)


def test_element_refuses_index_outside_the_field():
    f9 = field_from_order(9)
    for i in (-1, 9):
        with pytest.raises(IndexOutOfRange, match=f"element index {i} outside \\[0, 9\\)"):
            f9.element(i)


def test_gf4_modulus_is_x2_x_1():
    # oracle: brute-force the four monic quadratics over GF(2) by root checks.
    # x^2, x^2+x have root 0; x^2+1 has root 1; x^2+x+1 has no root, and a
    # rootless quadratic is irreducible.  So the lex-smallest irreducible is
    # (1, 1, 1) low-degree-first.
    candidates = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]
    irreducible = [c for c in candidates if all((x * x + c[1] * x + c[0]) % 2 != 0 for x in (0, 1))]
    assert irreducible == [(1, 1, 1)]

    f4 = field_create(2, 2)
    assert f4.modulus == (1, 1, 1)


def test_prime_field_modulus_empty():
    f5 = field_create(5)
    assert f5.modulus == ()
    assert f5.q == 5


def test_modulus_irreducible_brute_force():
    # independent oracle: multiply out every pair of lower-degree monic
    # polynomials and confirm none hits the chosen modulus.
    from thetalab.ffield import _monic_polys, _poly_mul

    for q in [4, 8, 9, 16, 25, 27, 32, 49]:
        spec = field_from_order(q)
        m = list(spec.modulus)
        deg = spec.alpha
        for d1 in range(1, deg):
            d2 = deg - d1
            for a in _monic_polys(d1, spec.p):
                for b in _monic_polys(d2, spec.p):
                    assert _poly_mul(a, b, spec.p) != m


def test_modulus_search_skips_constant_term_zero_with_the_same_result():
    # the search over every monic polynomial, constant term 0 included
    from thetalab.ffield import _is_irreducible, _monic_polys

    checked = 0
    for q in range(4, 4097):
        try:
            p, alpha = prime_power_split(q)
        except NotPrime:
            continue
        if alpha == 1:
            continue
        full = next(m for m in _monic_polys(alpha, p) if _is_irreducible(m, p))
        assert field_create(p, alpha).modulus == tuple(full), q
        checked += 1
    assert checked == 40  # 11 powers of 2, 6 of 3, 4 of 5, 3 of 7, 2 each of 11 and 13, 12 squares


def test_modulus_search_of_degree_20_is_fast():
    # before the skip, the 2^19 candidates divisible by x took about 9 s
    start = time.perf_counter()
    spec = field_create.__wrapped__(2, 20)  # past the lru cache
    assert time.perf_counter() - start < 1.0
    assert spec.modulus == (1,) + (0,) * 16 + (1, 0, 0, 1)


def test_modulus_search_of_degree_24_is_fast():
    # enumerating, only to skip, the 2^23 candidates with constant term 0 took 4-6 s
    start = time.perf_counter()
    spec = field_create.__wrapped__(2, 24)
    assert time.perf_counter() - start < 1.0
    assert spec.modulus == (1,) + (0,) * 19 + (1, 1, 0, 1, 1)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_gf4_multiplication_example():
    # in GF(4) with modulus x^2+x+1: x * x = x + 1
    f4 = field_create(2, 2)
    x = FieldElement((0, 1))
    assert f4.mul(x, x) == FieldElement((1, 1))


def test_gf5_inverse_example():
    f5 = field_create(5)
    assert f5.inv(f5.element(2)) == f5.element(3)
    with pytest.raises(DivisionByZero):
        f5.inv(f5.zero)


def test_enumeration_bijection():
    for q in PRIME_POWERS_49:
        spec = field_from_order(q)
        seen = set()
        for i in range(q):
            e = spec.element(i)
            assert spec.index(e) == i
            seen.add(e.coeffs)
        assert len(seen) == q


def _tables(spec):
    q = spec.q
    els = [spec.element(i) for i in range(q)]
    add = [[spec.index(spec.add(a, b)) for b in els] for a in els]
    mul = [[spec.index(spec.mul(a, b)) for b in els] for a in els]
    return els, add, mul


def test_field_axioms_exhaustive_q_le_49():
    # all pairs/triples via index tables; covers every prime power up to 49
    for q in PRIME_POWERS_49:
        spec = field_from_order(q)
        els, add, mul = _tables(spec)
        zero, one = spec.index(spec.zero), spec.index(spec.one)
        assert zero == 0 and one == 1
        rng = range(q)
        for a in rng:
            assert add[a][zero] == a
            assert mul[a][one] == a
            assert mul[a][zero] == zero
            for b in rng:
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in rng:
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_inverses_and_fermat():
    for q in PRIME_POWERS_49:
        spec = field_from_order(q)
        for i in range(q):
            a = spec.element(i)
            assert spec.add(a, spec.neg(a)) == spec.zero
            assert spec.pow(a, q) == a  # Frobenius fixed points: a^q = a
            if i:
                assert spec.mul(a, spec.inv(a)) == spec.one


def test_sub_and_pow_basics():
    f9 = field_create(3, 2)
    a, b = f9.element(5), f9.element(7)
    assert f9.add(f9.sub(a, b), b) == a
    assert f9.pow(a, 0) == f9.one
    assert f9.pow(a, 3) == f9.mul(a, f9.mul(a, a))
    assert f9.mul(a, f9.pow(a, -1)) == f9.one


# ---------------------------------------------------------------------------
# multiplicative orders
# ---------------------------------------------------------------------------


def _brute_order(spec, a):
    k, cur = 1, a
    while cur != spec.one:
        cur = spec.mul(cur, a)
        k += 1
    return k


def test_element_of_order_gf5():
    # oracle: orders in GF(5)* are ord(1)=1, ord(2)=4, ord(3)=4, ord(4)=2,
    # so the first element of order 2 in enumeration order is 4.
    f5 = field_create(5)
    assert [_brute_order(f5, f5.element(i)) for i in (1, 2, 3, 4)] == [1, 4, 4, 2]
    assert element_of_order(f5, 2) == f5.element(4)
    assert element_of_order(f5, 1) == f5.one


def test_element_of_order_matches_brute_force():
    for q in [5, 7, 9, 13, 16, 17, 25]:
        spec = field_from_order(q)
        for t in range(1, q):
            if (q - 1) % t:
                with pytest.raises(OrderUnavailable):
                    element_of_order(spec, t)
                continue
            h = element_of_order(spec, t)
            assert _brute_order(spec, h) == t
            # first hit in enumeration order
            for i in range(1, spec.index(h)):
                assert _brute_order(spec, spec.element(i)) != t


def test_subgroup_closed():
    f13 = field_create(13)
    h = element_of_order(f13, 4)
    H = subgroup(f13, h, 4)
    assert len(set(H)) == 4
    assert f13.one in H
    for a in H:
        for b in H:
            assert f13.mul(a, b) in H


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    limit = 20_000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [p for p in range(-50, limit) if is_prime(p)] == [p for p in range(limit) if sieve[p]]
