"""Exact integer arithmetic: gcd/Bezout, factorization, divisors, CRT.

Everything here is deterministic and pure. Factorization is plain trial
division, good for the documented input ceiling of 10**12; there is no
probabilistic primality testing.

The one nontrivial routine is ``bezout_avoiding_primes``: given coprime
d1, d2 and a finite set Q of primes, it produces c1, c2 with
c1*d1 + c2*d2 = 1 such that no prime of Q divides c1 or c2.  (By
convention 0 is divisible by every prime, so c1 = 0 never qualifies
when Q is nonempty.)
"""

from bisect import bisect_right
from collections import namedtuple
from math import gcd, isqrt

__all__ = [
    "BezoutWitness",
    "NotAUnit",
    "ModuliNotCoprime",
    "PreconditionViolated",
    "RangeExceeded",
    "gcd",
    "ext_gcd",
    "mod_inverse",
    "is_prime",
    "factorize",
    "divisors",
    "coprime_divisor_pairs",
    "crt",
    "bezout_avoiding_primes",
]

# Documented ceiling for trial-division factoring: sqrt(10**12) = 10**6
# candidate divisors is still sub-second.
FACTOR_LIMIT = 10**12
_QUOTE_LIMIT = 40  # the most characters of a string that an error message quotes


class NotAUnit(ValueError):
    """Raised when asked to invert a residue that shares a factor with the modulus."""


class ModuliNotCoprime(ValueError):
    """Raised by ``crt`` when the moduli are not pairwise coprime."""


class PreconditionViolated(ValueError):
    """Raised by ``bezout_avoiding_primes`` on inputs outside the lemma's hypotheses."""


class RangeExceeded(ValueError):
    """An integer is outside the documented range of the function it was given to."""


def _show(value):
    """A value as an error message quotes it, bounded and unable to raise: a string past
    _QUOTE_LIMIT characters as the repr of its start and "...", an integer past the digit
    limit as its bit length, else its repr, or its type's name where that repr raises."""
    if isinstance(value, str) and len(value) > _QUOTE_LIMIT:
        return repr(value[:_QUOTE_LIMIT]) + "..."
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return "<%s holding an integer too long to print>" % type(value).__name__
        return "%s<%d-bit integer>" % ("-" if value < 0 else "", value.bit_length())


def _check_ceiling(value, limit, supported):
    """Raise RangeExceeded("<supported> = <limit>, got <value>") if value > limit."""
    if value > limit:
        raise RangeExceeded("%s = %d, got %s" % (supported, limit, _show(value)))


def _check_odd_degree(n, name="degree"):
    """Raise RangeExceeded("<name> must be odd and >= 3, got <n>") unless n is."""
    if n < 3 or n % 2 == 0:
        raise RangeExceeded("%s must be odd and >= 3, got %s" % (name, _show(n)))


def ext_gcd(a, b):
    """Extended Euclid: return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0.

    ext_gcd(0, 0) returns (0, 1, 0).
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_inverse(a, n):
    """Inverse of a mod n, as a residue in [1, n-1].  Requires n >= 2."""
    if n < 2:
        raise ValueError("modulus must be >= 2, got %s" % _show(n))
    try:
        return pow(a, -1, n)
    except ValueError:
        shown = (_show(a), _show(n), _show(gcd(a, n)))
        raise NotAUnit("%s is not a unit mod %s (gcd = %s)" % shown) from None


def is_prime(n):
    """Deterministic primality by factoring; n must not exceed FACTOR_LIMIT."""
    return n >= 2 and factorize(n) == ((n, 1),)


def factorize(n):
    """(prime, exponent) pairs of n in [1, FACTOR_LIMIT] by trial division, primes rising."""
    if n < 1:
        raise RangeExceeded("cannot factor %s" % _show(n))
    if n > FACTOR_LIMIT:
        raise RangeExceeded(
            "%s exceeds the supported factoring range %d" % (_show(n), FACTOR_LIMIT)
        )
    factors = []
    m = n
    p, step = 2, 1  # trial divisors 2, 3, then 6k - 1 and 6k + 1
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p, step = p + step, (2 if p < 5 else 6 - step)
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def divisors(n):
    """All positive divisors of n, strictly increasing."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def coprime_divisor_pairs(n):
    """Unordered pairs (d1, d2), d1 <= d2, of coprime divisors of n.

    Since d1 and d2 are coprime divisors, d1*d2 divides n automatically.
    The list includes (1, 1) and all (1, d) pairs, sorted lexicographically.
    """
    pairs = [(1, 1)]
    for p, e in factorize(n):
        # each prime power of n goes whole to d1, to d2 or to neither
        powers = [p**k for k in range(1, e + 1)]
        pairs += [(d1 * q, d2) for d1, d2 in pairs for q in powers] + [
            (d1, d2 * q) for d1, d2 in pairs for q in powers
        ]
    return sorted({(min(pair), max(pair)) for pair in pairs})


def crt(pairs):
    """Solve x = r_i (mod m_i) for pairwise coprime moduli m_i >= 1.

    Returns the unique solution in [0, prod(m_i) - 1]; an empty input
    yields 0.  Raises ModuliNotCoprime when the moduli share a factor.
    """
    x, modulus = 0, 1
    for r, m in pairs:
        if m < 1:
            raise ValueError("moduli must be >= 1, got %s" % _show(m))
        if gcd(modulus, m) != 1:
            raise ModuliNotCoprime("modulus %s is not coprime to the others" % _show(m))
        if m == 1:
            continue
        # Lift x from (mod modulus) to (mod modulus*m).
        k = ((r - x) * mod_inverse(modulus % m, m)) % m
        x += modulus * k
        modulus *= m
    return x


@classmethod
def _checked_make(cls, fields):  # namedtuple's _make, which _replace calls, skips __new__
    return cls(*fields)


class BezoutWitness(namedtuple("BezoutWitness", "c1 c2 d1 d2")):
    """Coefficients c1, c2 with c1*d1 + c2*d2 = 1: the tuple (c1, c2, d1, d2), its
    identity checked on construction, ``_replace``, ``_make`` and unpickling."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, c1, c2, d1, d2):
        self = super().__new__(cls, c1, c2, d1, d2)
        if c1 * d1 + c2 * d2 != 1:
            raise ValueError("not a Bezout identity: %s" % _show(self))
        return self


def bezout_avoiding_primes(d1, d2, avoid):
    """Bezout coefficients for coprime d1, d2 avoiding a set of primes.

    Returns a BezoutWitness (c1, c2, d1, d2) with c1*d1 + c2*d2 = 1 and
    no prime q in ``avoid`` dividing c1 or c2.  Requires gcd(d1, d2) = 1,
    d1, d2 and primes q <= FACTOR_LIMIT, and if 2 is in ``avoid``, that d1
    and d2 are not both odd (otherwise c1 + c2 would always be even, forcing
    one even).

    Construction: from a base identity A*d1 + B*d2 = 1, the full family of
    solutions is c1 = A - k*d2, c2 = B + k*d1.  For each prime q, c1(k) or
    c2(k) vanishes mod q for at most one residue of k each (and not at all
    when q divides the corresponding step d2 or d1), so some residue m_q
    avoids both; a k meeting every m_q exists by the Chinese Remainder
    Theorem.  We take the smallest valid residue for each q and the
    smallest nonnegative k, which makes the output deterministic.
    """
    if d1 < 1 or d2 < 1:
        raise PreconditionViolated("d1 and d2 must be positive")
    if d1 > FACTOR_LIMIT or d2 > FACTOR_LIMIT:
        raise PreconditionViolated("d1 and d2 must not exceed %d" % FACTOR_LIMIT)
    if gcd(d1, d2) != 1:
        raise PreconditionViolated("gcd(%d, %d) != 1" % (d1, d2))
    # one sieve up to the root of the largest avoided prime in range serves them all
    small = primes_up_to(isqrt(max([q for q in avoid if 2 <= q <= FACTOR_LIMIT], default=0)))
    for q in avoid:
        if q > FACTOR_LIMIT:
            raise PreconditionViolated("avoided prime %s exceeds %d" % (_show(q), FACTOR_LIMIT))
        if q < 2 or not all(q % p for p in small[:bisect_right(small, isqrt(q))]):
            raise PreconditionViolated("%s is not prime" % _show(q))
    if 2 in avoid and d1 % 2 == 1 and d2 % 2 == 1:
        raise PreconditionViolated("with 2 in the avoided set, d1 and d2 cannot both be odd")

    _, base1, base2 = ext_gcd(d1, d2)
    congruences = []
    for q in sorted(avoid):
        forbidden = set()
        if d2 % q:
            forbidden.add(base1 * mod_inverse(d2, q) % q)  # c1(k) = 0 mod q
        if d1 % q:
            forbidden.add(-base2 * mod_inverse(d1, q) % q)  # c2(k) = 0 mod q
        residue = next(r for r in range(q) if r not in forbidden)
        congruences.append((residue, q))
    k = crt(congruences)
    return BezoutWitness(base1 - k * d2, base2 + k * d1, d1, d2)


def primes_up_to(limit):
    """Primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]
