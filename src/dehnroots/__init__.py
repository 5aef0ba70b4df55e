"""Roots of Dehn twists about nonseparating curves, computed exactly.

A degree-n root of the twist t about a nonseparating curve on the closed
orientable genus-(g+1) surface is a mapping class h with h^n = t.  Up to
conjugacy these roots are classified by integer "data sets"
(n, g0, (a,b); (c1,n1), ..., (cm,nm)); see ``dehnroots.dataset``.  This
package validates and canonicalizes data sets, enumerates all of them
for a given genus and degree, and computes the named families (maximal
Margalit-Schleimer roots, (d,e)-roots, primary roots, triangular sets).

Only odd degrees up to 2g+1 occur, and every root is conjugate to one of
the enumerated classes through orientation-preserving maps only, so the
listings are complete classifications.
"""

from .dataset import (
    DataSet,
    FractionalDataSet,
    ParseError,
    RangeExceeded,
    ValidationReport,
    Violation,
    equivalent,
    format_dataset,
    parse_dataset,
    stabilize,
    validate,
)
from .enumeration import (
    ClassCapExceeded,
    OracleRangeExceeded,
    cone_multisets,
    cone_weight,
    datasets,
    genus_set,
    has_root,
    oracle_datasets,
    primary_datasets,
    root_degrees,
    twist_pairs,
)
from .fractional import fractional_datasets
from .numtheory import (
    BezoutWitness,
    Factorization,
    ModuliNotCoprime,
    NotAUnit,
    PreconditionViolated,
    bezout_avoiding_primes,
    coprime_divisor_pairs,
    crt,
    divisors,
    ext_gcd,
    factorize,
    gcd,
    is_prime,
    mod_inverse,
)
from .special_roots import (
    PairRow,
    RootClass,
    RootTag,
    TriangularSet,
    classify,
    de_construct,
    de_root_genera,
    de_roots,
    ms_count,
    ms_roots,
    pair_table,
    t_set,
)

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "FractionalDataSet",
    "ValidationReport",
    "Violation",
    "ParseError",
    "RangeExceeded",
    "validate",
    "equivalent",
    "stabilize",
    "format_dataset",
    "parse_dataset",
    "ClassCapExceeded",
    "OracleRangeExceeded",
    "cone_weight",
    "cone_multisets",
    "twist_pairs",
    "datasets",
    "oracle_datasets",
    "root_degrees",
    "has_root",
    "genus_set",
    "primary_datasets",
    "fractional_datasets",
    "BezoutWitness",
    "Factorization",
    "ModuliNotCoprime",
    "NotAUnit",
    "PreconditionViolated",
    "gcd",
    "ext_gcd",
    "mod_inverse",
    "is_prime",
    "factorize",
    "divisors",
    "coprime_divisor_pairs",
    "crt",
    "bezout_avoiding_primes",
    "RootClass",
    "RootTag",
    "TriangularSet",
    "t_set",
    "ms_roots",
    "ms_count",
    "de_root_genera",
    "de_roots",
    "de_construct",
    "classify",
    "PairRow",
    "pair_table",
]
