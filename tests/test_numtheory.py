import random
from math import gcd as stdlib_gcd

import pytest

import dehnroots
from dehnroots import dataset
from dehnroots.numtheory import (
    FACTOR_LIMIT,
    BezoutWitness,
    ModuliNotCoprime,
    NotAUnit,
    PreconditionViolated,
    RangeExceeded,
    bezout_avoiding_primes,
    coprime_divisor_pairs,
    crt,
    divisors,
    ext_gcd,
    factorize,
    gcd,
    is_prime,
    mod_inverse,
    primes_up_to,
)


def test_gcd_examples():
    assert gcd(21, 14) == 7
    assert gcd(5, 0) == 5
    assert gcd(17, 21) == 1
    assert gcd(0, 0) == 0


def test_ext_gcd_examples():
    g, s, t = ext_gcd(5, 3)
    assert g == 1 and s * 5 + t * 3 == 1
    g, s, t = ext_gcd(6, 4)
    assert g == 2 and s * 6 + t * 4 == 2
    assert ext_gcd(1, 0) == (1, 1, 0)


def test_ext_gcd_random_identity():
    rng = random.Random(20260808)
    for _ in range(10**4):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        g, s, t = ext_gcd(a, b)
        assert g == stdlib_gcd(a, b)
        assert s * a + t * b == g


def test_mod_inverse():
    assert mod_inverse(2, 21) == 11
    assert mod_inverse(1, 9) == 1
    with pytest.raises(NotAUnit):
        mod_inverse(3, 9)
    with pytest.raises(ValueError):
        mod_inverse(1, 1)


def test_mod_inverse_all_units_small_moduli():
    for n in range(2, 501):
        for a in range(1, n):
            if stdlib_gcd(a, n) == 1:
                assert a * mod_inverse(a, n) % n == 1


def test_factorize_examples():
    assert factorize(2001).factors == ((3, 1), (23, 1), (29, 1))
    assert factorize(9).factors == ((3, 2),)
    assert factorize(54573).factors == ((3, 1), (18191, 1))
    assert factorize(1).factors == ()


def test_factorize_range_is_typed():
    assert dehnroots.RangeExceeded is dataset.RangeExceeded is RangeExceeded
    assert issubclass(RangeExceeded, ValueError)
    assert factorize(FACTOR_LIMIT).factors == ((2, 12), (5, 12))
    for n in (FACTOR_LIMIT + 1, 0, -5):
        with pytest.raises(RangeExceeded):
            factorize(n)


def test_factorize_reassembles_exhaustive():
    for n in range(1, 10**6 + 1):
        total = 1
        for p, e in factorize(n).factors:
            total *= p**e
        assert total == n


def test_factorize_reassembles_random_large():
    rng = random.Random(11)
    for _ in range(10**3):
        n = rng.randint(1, 10**12)
        fac = factorize(n)
        total = 1
        for p, e in fac.factors:
            total *= p**e
        assert total == n
        assert all(is_prime(p) for p, _ in fac.factors)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**12 + 1)
    from dehnroots.numtheory import Factorization

    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        Factorization(6, ((2, 1),))  # wrong product


def test_divisors():
    assert divisors(9) == [1, 3, 9]
    assert divisors(15) == [1, 3, 5, 15]
    assert divisors(21) == [1, 3, 7, 21]
    assert divisors(1) == [1]


def test_coprime_divisor_pairs_examples():
    assert coprime_divisor_pairs(15) == [(1, 1), (1, 3), (1, 5), (1, 15), (3, 5)]
    assert coprime_divisor_pairs(9) == [(1, 1), (1, 3), (1, 9)]
    assert coprime_divisor_pairs(1) == [(1, 1)]


def test_coprime_divisor_pairs_against_double_loop():
    for n in range(1, 10**4 + 1):
        divs = divisors(n)
        brute = sorted(
            (d1, d2)
            for i, d1 in enumerate(divs)
            for d2 in divs[i:]
            if stdlib_gcd(d1, d2) == 1 and n % (d1 * d2) == 0
        )
        assert coprime_divisor_pairs(n) == brute


def test_crt():
    assert crt([(1, 3), (2, 5)]) == 7
    assert crt([(0, 7)]) == 0
    assert crt([]) == 0
    assert crt([(2, 3), (3, 5), (2, 7)]) == 23
    with pytest.raises(ModuliNotCoprime):
        crt([(1, 2), (1, 4)])


def test_bezout_witness_identity_checked():
    with pytest.raises(ValueError):
        BezoutWitness(1, 1, 2, 3)


def test_bezout_avoiding_primes_examples():
    w = bezout_avoiding_primes(5, 3, {3, 5})
    assert w.c1 * 5 + w.c2 * 3 == 1
    for q in (3, 5):
        assert w.c1 % q != 0 and w.c2 % q != 0
    w = bezout_avoiding_primes(7, 1, set())
    assert w.c1 * 7 + w.c2 == 1
    with pytest.raises(PreconditionViolated):
        bezout_avoiding_primes(3, 3, {7})
    with pytest.raises(PreconditionViolated):
        bezout_avoiding_primes(3, 5, {2})  # both odd with 2 in the avoided set
    with pytest.raises(PreconditionViolated):
        bezout_avoiding_primes(3, 5, {4})  # 4 is not prime


def test_bezout_avoided_primes_are_bounded():
    # 10**18 + 3 is prime, but trial division that far would take hours
    assert bezout_avoiding_primes(3, 5, {999999999989}).c1 % 999999999989
    with pytest.raises(PreconditionViolated):
        bezout_avoiding_primes(3, 5, {10**18 + 3})


def test_bezout_inputs_are_bounded():
    # past the ceiling a witness can outgrow the interpreter's integer-string limit
    w = bezout_avoiding_primes(3, FACTOR_LIMIT, set())
    assert 3 * w.c1 + FACTOR_LIMIT * w.c2 == 1
    for d1, d2 in ((3, FACTOR_LIMIT + 1), (FACTOR_LIMIT + 1, 3), (2, 10**4299 + 1)):
        with pytest.raises(PreconditionViolated):
            bezout_avoiding_primes(d1, d2, {3, 5})


def test_bezout_avoiding_primes_even_input_with_two():
    w = bezout_avoiding_primes(4, 9, {2, 3})
    assert w.c1 * 4 + w.c2 * 9 == 1
    for q in (2, 3):
        assert w.c1 % q != 0 and w.c2 % q != 0


def test_bezout_avoiding_primes_randomized():
    rng = random.Random(20260808)
    small_primes = primes_up_to(60)
    for _ in range(10**3):
        while True:
            d1 = rng.randint(1, 10**4)
            d2 = rng.randint(1, 10**4)
            if stdlib_gcd(d1, d2) == 1:
                break
        avoid = set(rng.sample(small_primes, rng.randint(0, 5)))
        if 2 in avoid and d1 % 2 == 1 and d2 % 2 == 1:
            avoid.discard(2)
        w = bezout_avoiding_primes(d1, d2, avoid)
        assert w.c1 * d1 + w.c2 * d2 == 1
        for q in avoid:
            # 0 counts as divisible by every prime, and 0 % q == 0
            assert w.c1 % q != 0 and w.c2 % q != 0


def test_bezout_deterministic():
    assert bezout_avoiding_primes(5, 3, {3, 5}) == bezout_avoiding_primes(5, 3, {5, 3})


def test_is_prime_and_sieve_agree():
    sieve = set(primes_up_to(2000))
    for n in range(2001):
        assert is_prime(n) == (n in sieve)


def test_is_prime_range():
    assert is_prime(999999999989)  # the largest prime below FACTOR_LIMIT
    assert not is_prime(FACTOR_LIMIT)
    for n in (FACTOR_LIMIT + 1, 10**30 + 57):
        with pytest.raises(RangeExceeded):
            is_prime(n)
