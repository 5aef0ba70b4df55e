"""A brute-force oracle for ``dehnroots.enumeration.datasets``, for the tests.

``oracle_datasets`` tries every raw residue tuple and keeps what ``validate``
accepts.  It shares no code with the residue search it checks, and is
exponential, so it is guarded to a small range.
"""

from itertools import product
from math import gcd

from dehnroots.dataset import DataSet, validate
from dehnroots.numtheory import divisors

# Hard bounds for the brute-force oracle; beyond them it is exponential noise.
ORACLE_MAX_DEGREE = 15
ORACLE_MAX_GENUS = 12


def oracle_datasets(g, n):
    """Brute-force cross-check of ``datasets``: try every raw residue tuple.

    Enumerates every quotient genus, every ordered tuple of cone orders
    matching the genus, and every tuple of raw residues; keeps what
    ``validate`` accepts, canonicalizes, deduplicates.  Guarded to
    n <= 15, g <= 12: past that it raises ValueError.
    """
    if n > ORACLE_MAX_DEGREE or g > ORACLE_MAX_GENUS:
        raise ValueError(
            "oracle accepts n <= %d and g <= %d" % (ORACLE_MAX_DEGREE, ORACLE_MAX_GENUS)
        )
    if g < 1 or n < 3 or n % 2 == 0:
        return []
    divs = [d for d in divisors(n) if d > 1]
    out = set()
    for g0 in range(g // n + 1):
        remaining2 = 2 * (g - g0 * n)
        shapes = [()] if remaining2 == 0 else []
        frontier = [()]
        while frontier:
            shape = frontier.pop()
            for d in divs:
                extended = shape + (d,)
                weight2 = sum((n // x) * (x - 1) for x in extended)
                if weight2 == remaining2:
                    shapes.append(extended)
                elif weight2 < remaining2:
                    frontier.append(extended)
        units = [u for u in range(n) if gcd(u, n) == 1]
        for shape in shapes:
            for a in units:
                for b in units:
                    for residues in product(*(range(d) for d in shape)):
                        # quick unit screen before paying for construction;
                        # validate() re-checks everything on survivors
                        if any(gcd(c, d) != 1 for c, d in zip(residues, shape)):
                            continue
                        candidate = DataSet(n, g0, a, b, tuple(zip(residues, shape)))
                        if validate(candidate).valid and candidate.genus == g:
                            out.add(candidate)
    return sorted(out)
