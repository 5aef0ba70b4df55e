import pickle
import random
from math import gcd as stdlib_gcd
from time import perf_counter

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
    assert factorize(2001) == ((3, 1), (23, 1), (29, 1))
    assert factorize(9) == ((3, 2),)
    assert factorize(54573) == ((3, 1), (18191, 1))
    assert factorize(1) == ()


def test_factorize_range_is_typed():
    assert dehnroots.RangeExceeded is dataset.RangeExceeded is RangeExceeded
    assert issubclass(RangeExceeded, ValueError)
    assert factorize(FACTOR_LIMIT) == ((2, 12), (5, 12))
    for n in (FACTOR_LIMIT + 1, 0, -5):
        with pytest.raises(RangeExceeded):
            factorize(n)


def test_factorize_reassembles_exhaustive():
    for n in range(1, 10**6 + 1):
        total = 1
        for p, e in factorize(n):
            total *= p**e
        assert total == n


_MR_BASES = (2, 3, 5, 7, 11, 13, 17)


def _miller_rabin(n):
    """Deterministic Miller-Rabin with bases 2..17, exact below 341,550,071,728,321;
    it shares no code with factorize, which is_prime reads."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_helper_matches_trial_division():
    assert FACTOR_LIMIT < 341_550_071_728_321  # the helper is exact over the factoring range
    trial = [n for n in range(2, 3000) if all(n % d for d in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if _miller_rabin(n)] == trial
    # the least strong pseudoprimes to bases 2, 2..3, ..., 2..13
    pseudoprimes = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383)
    assert not any(map(_miller_rabin, pseudoprimes))


def test_factorize_reassembles_random_large():
    rng = random.Random(11)
    for _ in range(10**3):
        n = rng.randint(1, 10**12)
        fac = factorize(n)
        total = 1
        for p, e in fac:
            total *= p**e
        assert total == n
        assert all(_miller_rabin(p) for p, _ in fac)
        primes = [p for p, _ in fac]
        assert primes == sorted(set(primes))  # strictly increasing


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(10**12 + 1)


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
    assert crt([(0, 1), (2, 5)]) == 2  # a modulus of 1 adds no condition
    with pytest.raises(ValueError, match="^moduli must be >= 1, got 0$"):
        crt([(0, 0)])
    with pytest.raises(ModuliNotCoprime):
        crt([(1, 2), (1, 4)])


def test_bezout_witness_identity_checked():
    # however a witness is built: _replace, _make and unpickling included
    with pytest.raises(ValueError, match=r"^not a Bezout identity: BezoutWitness\(c1=1, c2=1, "
                                         r"d1=2, d2=3\)$"):
        BezoutWitness(1, 1, 2, 3)
    w = bezout_avoiding_primes(5, 3, {3, 5})
    assert repr(w) == "BezoutWitness(c1=-1, c2=2, d1=5, d2=3)"
    c1, c2, d1, d2 = w
    assert (c1, c2, d1, d2) == (w.c1, w.c2, w.d1, w.d2) and w == (-1, 2, 5, 3)
    with pytest.raises(ValueError, match=r"^not a Bezout identity: BezoutWitness\(c1=5, c2=2, "):
        w._replace(c1=5)
    with pytest.raises(ValueError, match="^not a Bezout identity"):
        BezoutWitness._make((5, -1, 2, 3))
    assert w._replace(c1=2, c2=-3) == (2, -3, 5, 3)
    again = pickle.loads(pickle.dumps(w))
    assert again == w and type(again) is BezoutWitness and repr(again) == repr(w)
    # a pickle of a witness that skipped the check is checked as it is rebuilt
    forged = pickle.dumps(tuple.__new__(BezoutWitness, (5, -1, 2, 3)))
    with pytest.raises(ValueError, match="^not a Bezout identity"):
        pickle.loads(forged)


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
    with pytest.raises(PreconditionViolated, match="^d1 and d2 must be positive$"):
        bezout_avoiding_primes(0, 1, ())


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


def test_bezout_checks_many_large_primes_against_one_sieve():
    # one sieve to the root of the largest prime serves every check, where trial
    # division per prime took 35-70 ms each for twelve digits
    large = [q for q in range(FACTOR_LIMIT - 1, FACTOR_LIMIT - 2000, -2) if _miller_rabin(q)][:40]
    assert len(large) == 40 and large[-1] > 10**11
    start = perf_counter()
    w = bezout_avoiding_primes(3, 5, large)
    assert perf_counter() - start < 2
    assert 3 * w.c1 + 5 * w.c2 == 1 and all(w.c1 % q and w.c2 % q for q in large)
    # 999983 is the largest prime below 10**6, the sieve's last one for twelve digits
    for bad in (999983 * 999983, 999979 * 999983, 10**12 - 1):
        with pytest.raises(PreconditionViolated, match="^%d is not prime$" % bad):
            bezout_avoiding_primes(3, 5, large[:20] + [bad] + large[20:])


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
    assert primes_up_to(1) == []
    sieve = set(primes_up_to(2000))
    for n in range(2001):
        assert is_prime(n) == (n in sieve)


def test_is_prime_range():
    assert is_prime(999999999989)  # the largest prime below FACTOR_LIMIT
    assert not is_prime(FACTOR_LIMIT)
    for n in (FACTOR_LIMIT + 1, 10**30 + 57):
        with pytest.raises(RangeExceeded):
            is_prime(n)


BIG = 10**5000  # past the interpreter's 4,300-digit integer-to-string limit
HUGE_INTEGER_CALLS = [
    (RangeExceeded, lambda: dehnroots.t_set(BIG)),
    (RangeExceeded, lambda: dehnroots.t_set(-BIG)),
    (RangeExceeded, lambda: dehnroots.ms_roots(BIG)),
    (RangeExceeded, lambda: dehnroots.de_roots(BIG)),
    (RangeExceeded, lambda: dehnroots.ms_count(BIG + 1)),
    (RangeExceeded, lambda: dehnroots.de_root_genera(BIG + 1)),
    (RangeExceeded, lambda: factorize(BIG)),
    (RangeExceeded, lambda: factorize(-BIG)),
    (RangeExceeded, lambda: is_prime(BIG)),
    (RangeExceeded, lambda: dehnroots.de_construct(BIG, 3)),
    (RangeExceeded, lambda: dehnroots.DataSet(BIG, 0, 1, 1, ((1, 3),))),
    (RangeExceeded, lambda: dehnroots.DataSet(3, -BIG, 1, 1, ((1, 3),))),
    (RangeExceeded, lambda: dehnroots.DataSet(3, 0, 1, 1, ((1, 3, BIG),))),
    (RangeExceeded, lambda: dehnroots.fractional_datasets(2, 5, -BIG)),
    (RangeExceeded, lambda: dehnroots.datasets(BIG, 3)),
    (RangeExceeded, lambda: dehnroots.genus_set(3, BIG)),
    (RangeExceeded, lambda: dehnroots.root_degrees(BIG)),
    (RangeExceeded, lambda: dehnroots.pair_table(BIG, 3)),
    (RangeExceeded, lambda: dehnroots.has_root(BIG, BIG + 1)),
    (RangeExceeded, lambda: dehnroots.datasets(BIG)),  # before its range of degrees
    (PreconditionViolated, lambda: bezout_avoiding_primes(3, 5, {BIG})),
    (NotAUnit, lambda: mod_inverse(3 * BIG, 3)),
]


@pytest.mark.parametrize("error, call", HUGE_INTEGER_CALLS)
def test_huge_integers_raise_the_typed_error(error, call):
    # the message stands in for an integer with too many digits to print
    with pytest.raises(error, match="-bit integer>|integer too long to print>"):
        call()

