"""Seeded query lists for the three benchmark workloads, with their checks.

A query is one ``dehn-roots`` argv list plus a check on what it printed.
Checks raise ``Mismatch``; the runner counts any exception, nonzero exit
or mismatch as one failed op.  Wherever possible a check compares the
output with an independent computation written here (divisor pairs,
the triangular set T(n), conditions (I)-(IV) of the data-set theorem)
rather than with the library's own answer.

Why the lists look the way they do: the cost of the heavy queries is
irregular in their parameters (``root-set --genus 399`` takes about 40x
as long as ``--genus 400`` because one ``has_root`` call searches
exhaustively), so a seeded draw of heavy queries would make a run's
time depend on the seed more than on the code.  Each workload therefore
has a fixed spine of heavy queries spread over the ranges being
measured, and the seed draws the many light queries, whose cost is
nearly the same for every parameter.  Seeded draws are stratified: the
range is cut into equal cells and each cell gets a pair of mirrored
draws.
"""

import json
import random
import re
from dataclasses import dataclass
from hashlib import sha256
from math import gcd

from dehnroots.dataset import format_dataset, parse_dataset
from dehnroots.enumeration import genus_set
from dehnroots.special_roots import ms_roots

SWEEP_MAX_GENUS = 48
SWEEP_MAX_DEGREE = 33
SWEEP_ROWS = 359
SWEEP_CLASSES = 338628
SWEEP_SHA256 = "3dcd1be58b38d6eb4c29c5b567f571705d4d44ae79f7269f2f1ef448082557db"

TAGS = {"PRIMARY", "MARGALIT_SCHLEIMER", "DE_ROOT", "CUBE_OF_T4", "OTHER"}


class Mismatch(Exception):
    """The program's output disagrees with what the check expects."""


@dataclass
class Query:
    """One CLI call.  ``check(stdout, written)`` raises Mismatch on a wrong answer;
    ``written`` is the text of the ``--output`` file for queries that write one."""

    argv: list
    check: object
    writes_file: bool = False

    @property
    def name(self):
        return " ".join(self.argv)


def expect(condition, message, *args):
    if not condition:
        raise Mismatch(message % args if args else message)


# ---------------------------------------------------------------- arithmetic
# Deliberately independent of dehnroots.numtheory.


def divisors(n):
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def in_triangular(n, g):
    """Is g in T(n) = {g0 + m*n0 : 0 <= g0 < n0, 0 <= m <= 2*g0}, n0 = (n-1)/2?

    g0 < n0 makes g0 = g mod n0 and m = g div n0 the only candidates.
    """
    n0 = (n - 1) // 2
    return g // n0 <= 2 * (g % n0)


def de_genera(n):
    """Genera of (d,e)-roots of degree n, from pairs of divisors with lcm n."""
    divs = [d for d in divisors(n) if d >= 3]
    return {
        n - (d + e) // (2 * gcd(d, e))
        for d in divs
        for e in divs
        if d * e // gcd(d, e) == n
    }


def maximal_count(n):
    """(U(n)+1)/2 with U(n) counted directly: x mod n with x and 1-x units."""
    units = sum(1 for x in range(n) if gcd(x, n) == 1 and gcd(1 - x, n) == 1)
    return (units + 1) // 2


def data_set_genus(n, g0, a, b, cones, power=1):
    """Check conditions (I)-(IV) on raw fields; return the genus."""
    expect(n >= 2 and g0 >= 0, "bad degree or quotient genus in %r", (n, g0))
    for c, order in cones:
        expect(order >= 2 and n % order == 0, "(I) fails for cone %r of degree %d", (c, order), n)
        expect(gcd(c, order) == 1, "(II) fails for cone %r", (c, order))
    expect(gcd(a, n) == 1 and gcd(b, n) == 1, "(II) fails for a, b = %d, %d mod %d", a, b, n)
    expect((a + b - power * a * b) % n == 0, "(III) fails for %r", (n, a, b, power))
    expect((a + b + sum(n // d * c for c, d in cones)) % n == 0, "(IV) fails for %r", (n, a, b, cones))
    twice = sum(n // d * (d - 1) for _, d in cones)
    expect(twice % 2 == 0, "half-integral genus for %r", cones)
    return g0 * n + twice // 2


_LINE = re.compile(r"\((\d+), (\d+), \((\d+),(\d+)\); (.*)\)")
_CONE = re.compile(r"\((\d+),(\d+)\)")


def check_line(line, power=1):
    """Check one printed data set; return (degree, quotient genus, cones, genus).

    Candidates for twist powers may have no cone pair, a form the parser
    does not read, so only lines with cones are round-tripped.
    """
    match = _LINE.fullmatch(line)
    expect(match is not None, "unreadable data set line %r", line)
    n, g0, a, b = (int(match.group(i)) for i in range(1, 5))
    cones = [(int(c), int(d)) for c, d in _CONE.findall(match.group(5))]
    expect(", ".join("(%d,%d)" % p for p in cones) == match.group(5), "unreadable cones in %r", line)
    expect(a <= b < n and all(c < d for c, d in cones), "not canonical: %r", line)
    expect(cones == sorted(cones, key=lambda p: (p[1], p[0])), "cones unsorted: %r", line)
    genus = data_set_genus(n, g0, a, b, cones, power)
    if cones:
        expect(format_dataset(parse_dataset(line)) == line, "format(parse(line)) != line for %r", line)
    return n, g0, cones, genus


def int_list(text):
    """Read the GAP transcript form ``[ 1, 2 ]`` / ``[  ]`` of an integer list."""
    text = text.strip()
    expect(text.startswith("[") and text.endswith("]"), "not a list: %r", text[:80])
    body = text[1:-1].strip()
    return [int(v) for v in body.split(",")] if body else []


# ------------------------------------------------------------------- sweep


def figure1(max_genus, max_degree, rows=None, classes=None, digest=None):
    """The (g, n) pair table; checked against the regional laws of the paper
    and, when given, the expected row and class totals and CSV digest."""

    def check(stdout, written):
        expect(stdout == "", "figure1 printed to stdout")
        if digest is not None:
            expect(sha256(written.encode()).hexdigest() == digest, "figure1 CSV digest differs")
        lines = written.splitlines()
        expect(lines[:1] == ["g,n,classes,tags"], "bad CSV header")
        total = 0
        keys = set()
        for line in lines[1:]:
            g, n, count, tags = line.split(",")
            g, n, count, tags = int(g), int(n), int(count), tags.split("+")
            expect(len(tags) == count and set(tags) <= TAGS, "bad tags in row %r", (g, n))
            expect(n % 2 == 1 and 3 <= n <= min(max_degree, 2 * g + 1), "row %r out of range", (g, n))
            expect(not (5 * n >= 6 * (g + 2) and n <= 2 * g), "row %r in the empty band", (g, n))
            expect(("MARGALIT_SCHLEIMER" in tags) == (n == 2 * g + 1), "maximal line at %r", (g, n))
            if n == 2 * g + 1:
                expect(set(tags) == {"MARGALIT_SCHLEIMER"} and count == maximal_count(n),
                       "maximal cell %r", (g, n))
            if is_prime(n):
                expect(not in_triangular(n, g), "prime degree %d at genus %d in T(n)", n, g)
            keys.add((g, n))
            total += count
        expect([k for k in keys if k[0] == k[1]] == ([(3, 3)] if max_genus >= 3 else []),
               "n = g away from the genus-3 cube root")
        for n in range(3, max_degree + 1, 2):
            if is_prime(n):
                for g in range(1, max_genus + 1):
                    if n <= 2 * g + 1 and not in_triangular(n, g):
                        expect((g, n) in keys, "missing prime cell %r", (g, n))
        if rows is not None:
            expect(len(keys) == rows, "%d rows, expected %d", len(keys), rows)
        if classes is not None:
            expect(total == classes, "%d classes, expected %d", total, classes)

    argv = ["figure1", "--max-genus", str(max_genus), "--max-degree", str(max_degree)]
    return Query(argv, check, writes_file=True)


def sweep(seed):
    """The headline table.  The seed is not used: the input is the fixed table."""
    del seed
    return [figure1(SWEEP_MAX_GENUS, SWEEP_MAX_DEGREE, SWEEP_ROWS, SWEEP_CLASSES, SWEEP_SHA256)]


# --------------------------------------------------------------- existence


def root_set(g):
    def check(stdout, _):
        degrees = int_list(stdout)
        expect(degrees == sorted(set(degrees)), "degrees not sorted and distinct")
        found = set(degrees)
        expect(all(n % 2 == 1 and 3 <= n <= 2 * g + 1 for n in found), "degree out of [3, 2g+1]")
        expect(2 * g + 1 in found, "maximal degree %d missing", 2 * g + 1)
        expect((g in found) == (g == 3), "degree equal to the genus %d", g)
        band = {n for n in found if 5 * n >= 6 * (g + 2) and n <= 2 * g}
        expect(not band, "degrees %r in the empty band", sorted(band))
        for n in range(3, 2 * g + 2, 2):
            if is_prime(n):
                expect((n in found) == (not in_triangular(n, g)), "prime degree %d", n)
            elif g + 1 <= n and 5 * n < 6 * (g + 2) and g in de_genera(n):
                expect(n in found, "(d,e)-root degree %d missing", n)

    return Query(["root-set", "--genus", str(g)], check)


def genus_set_query(n, max_genus):
    def check(stdout, _):
        genera = int_list(stdout)
        expect(genera == sorted(set(genera)), "genera not sorted and distinct")
        expect(all(1 <= g <= max_genus for g in genera), "genus out of [1, %d]", max_genus)
        found = set(genera)
        free = {g for g in range(1, max_genus + 1) if not in_triangular(n, g)}
        if is_prime(n):
            expect(found == free, "prime degree %d: genus set is not the complement of T(n)", n)
        else:
            expect(free <= found, "a genus off T(%d) has no root", n)
        expect({g for g in de_genera(n) if g <= max_genus} <= found, "(d,e)-root genus missing")
        expect(all(g + n in found for g in found if g + n <= max_genus), "not closed under g -> g+n")

    return Query(["genus-set", "--degree", str(n), "--max-genus", str(max_genus)], check)


def de_roots_query(g, complete):
    """``complete`` also checks that no degree of the window is missing."""

    def check(stdout, _):
        degrees = int_list(stdout)
        expect(degrees == sorted(set(degrees)), "degrees not sorted and distinct")
        for n in degrees:
            expect(n % 2 == 1 and g + 1 <= n and 5 * n < 6 * (g + 2), "degree %d outside the window", n)
            expect(g in de_genera(n), "degree %d has no (d,e)-root of genus %d", n, g)
        if complete:
            window = range(g + 1 + g % 2, (6 * (g + 2) - 1) // 5 + 1, 2)
            expect(degrees == [n for n in window if g in de_genera(n)], "window incomplete")

    return Query(["de-roots", str(g)], check)


def de_root_genera_query(n):
    def check(stdout, _):
        expect(int_list(stdout) == sorted(de_genera(n)), "genera differ from divisor pairs")

    return Query(["de-root-genera", str(n)], check)


def ms_count_query(n):
    def check(stdout, _):
        expect(int(stdout) == len(ms_roots((n - 1) // 2)), "ms-count differs from ms-roots")

    return Query(["ms-count", "--degree", str(n)], check)


def t_set_query(n):
    def check(stdout, _):
        members = int_list(stdout)
        n0 = (n - 1) // 2
        top = n * (n - 3) // 2
        expect(len(members) == n0 * n0 and members[-1] == top, "|T(n)| != n0^2 or max != n(n-3)/2")
        expect(members == [g for g in range(top + 1) if in_triangular(n, g)], "T(%d) differs", n)
        if is_prime(n) and n <= 31:
            rooted = genus_set(n, top + n)
            expect(members == [g for g in range(top + n + 1) if g not in rooted],
                   "T(%d) is not the complement of the genus set", n)

    return Query(["t-set", "--degree", str(n)], check)


def stratified(rng, pool, cells):
    """Two mirrored draws from each of ``cells`` equal slices of ``pool``."""
    picks = []
    for i in range(cells):
        lo = len(pool) * i // cells
        hi = len(pool) * (i + 1) // cells - 1
        k = rng.randint(lo, hi)
        picks += [pool[k], pool[lo + hi - k]]
    return picks


def existence(seed):
    rng = random.Random("existence-%d" % seed)
    primes = [n for n in range(3, 106, 2) if is_prime(n)]
    composites = [n for n in range(9, 106, 2) if not is_prime(n)]
    queries = [root_set(g) for g in range(50, 401, 25)]
    queries.append(root_set(201))  # has_root(201, 57) alone searches ~0.3 s
    queries += [genus_set_query(45, 300), genus_set_query(105, 300), genus_set_query(15, 200)]
    queries += [genus_set_query(n, rng.randint(100, 150)) for n in stratified(rng, primes, 4)]
    queries += [genus_set_query(n, rng.randint(80, 120)) for n in stratified(rng, composites, 4)]
    queries.append(de_roots_query(10**6, complete=False))
    exponents = stratified(rng, [2 + i / 1000 for i in range(3001)], 4)
    queries += [de_roots_query(round(10**x), complete=x <= 4) for x in exponents]
    queries += [de_root_genera_query(n) for n in stratified(rng, range(3, 10**6, 2), 14)]
    queries += [ms_count_query(n) for n in stratified(rng, range(3, 2002, 2), 14)]
    queries += [t_set_query(n) for n in stratified(rng, range(3, 102, 2), 8)]
    rng.shuffle(queries)
    return queries


# ----------------------------------------------------------------- listing


def roots_query(g, degree=None, fmt="text"):
    argv = ["roots", "--genus", str(g)]
    if degree is not None:
        argv += ["--degree", str(degree)]
    if fmt == "json":
        argv += ["--format", "json"]

    def check_degrees(seen):
        if degree is not None:
            expect(seen <= {degree}, "degree other than %d", degree)
            return
        for n in range(3, 2 * g + 2, 2):
            if is_prime(n):
                expect((n in seen) == (not in_triangular(n, g)), "prime degree %d", n)
        expect(2 * g + 1 in seen, "no maximal roots")

    def check_text(stdout, _):
        lines = stdout.splitlines()
        expect(len(set(lines)) == len(lines), "duplicate classes")
        seen = set()
        for line in lines:
            n, _, _, genus = check_line(line)
            expect(genus == g, "genus %d in the genus-%d listing", genus, g)
            seen.add(n)
        check_degrees(seen)
        if degree == 2 * g + 1:
            expect(len(lines) == maximal_count(degree), "maximal count differs")

    def check_json(stdout, _):
        docs = json.loads(stdout)
        seen = set()
        for doc in docs:
            n = doc["degree"]
            cones = [tuple(c) for c in doc["cones"]]
            genus = data_set_genus(n, doc["g0"], doc["a"], doc["b"], cones)
            expect(doc["genus"] == genus == g, "genus %r in the genus-%d listing", doc["genus"], g)
            expect(doc["tag"] in TAGS, "unknown tag %r", doc["tag"])
            expect((doc["tag"] == "MARGALIT_SCHLEIMER") == (n == 2 * g + 1), "maximal tag")
            seen.add(n)
        check_degrees(seen)

    return Query(argv, check_json if fmt == "json" else check_text)


def ms_roots_query(g):
    def check(stdout, _):
        lines = stdout.splitlines()
        n = 2 * g + 1
        expect(len(lines) == len(set(lines)) == maximal_count(n), "count != (U(n)+1)/2")
        for line in lines:
            degree, g0, cones, genus = check_line(line)
            expect((degree, g0, len(cones), cones[0][1], genus) == (n, 0, 1, n, g),
                   "%r is not a maximal root of genus %d", line, g)

    return Query(["ms-roots", "--genus", str(g)], check)


def fractional_query(g, n, power):
    def check(stdout, _):
        lines = stdout.splitlines()
        expect(len(set(lines)) == len(lines), "duplicate candidates")
        for line in lines:
            text, power_field, caveat = line.split("\t")
            expect(power_field == "power=%d" % power, "power field %r", power_field)
            shares = "yes" if gcd(power, n) > 1 else "no"
            expect(caveat == "gcd_caveat=" + shares, "caveat field %r", caveat)
            degree, _, _, genus = check_line(text, power)
            expect((degree, genus) == (n, g), "candidate %r is not of degree %d, genus %d", text, n, g)

    argv = ["fractional", "--genus", str(g), "--degree", str(n), "--power", str(power)]
    return Query(argv, check)


def random_data_set(rng):
    """A valid data set built from conditions (I)-(IV) directly, in the
    canonical text form ``roots`` prints, with its degree and genus."""
    while True:
        n = rng.randrange(3, 46, 2)
        orders = [rng.choice([d for d in divisors(n) if d > 1]) for _ in range(rng.randint(1, 4))]
        x = rng.choice([x for x in range(2, n) if gcd(x, n) == 1 and gcd(x - 1, n) == 1])
        a, b = sorted((pow(x, -1, n), pow(1 - x, -1, n)))
        cones = [(rng.choice([c for c in range(1, d) if gcd(c, d) == 1]), d) for d in orders[:-1]]
        last = orders[-1]
        need = -(a + b + sum(n // d * c for c, d in cones)) % n
        if need % (n // last):
            continue
        c = need // (n // last) % last
        if gcd(c, last) != 1:
            continue
        cones = sorted(cones + [(c, last)], key=lambda p: (p[1], p[0]))
        g0 = rng.randint(0, 2)
        line = "(%d, %d, (%d,%d); %s)" % (n, g0, a, b, ", ".join("(%d,%d)" % p for p in cones))
        return line, n, data_set_genus(n, g0, a, b, cones)


def validate_query(line, degree, genus):
    def check(stdout, _):
        expect(stdout == "valid; genus %d; degree %d\n" % (genus, degree), "validate said %r", stdout)

    return Query(["validate", line], check)


def listing(seed):
    rng = random.Random("listing-%d" % seed)
    queries = [roots_query(g) for g in range(20, 37)]
    queries += [roots_query(g, fmt="json") for g in range(20, 37, 4)]
    queries.append(ms_roots_query(20000))
    for g in stratified(rng, range(20, 37), 4):
        queries.append(roots_query(g, degree=rng.randrange(3, 2 * g + 2, 2)))
    for g in stratified(rng, range(1, 2001), 5):
        queries.append(ms_roots_query(g))
    for g in stratified(rng, range(1, 13), 5):
        n = rng.randint(2, 30)
        queries += [fractional_query(g, n, power) for power in (1, 2, 3, 4)]
    for _ in range(40):
        queries.append(validate_query(*random_data_set(rng)))
    rng.shuffle(queries)
    return queries


WORKLOADS = {"sweep": sweep, "existence": existence, "listing": listing}
