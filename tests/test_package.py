import doctest
import sys
from pathlib import Path

import dehnroots
from dehnroots import dataset, enumeration, fractional, numtheory, special_roots

# Pinned, so that a change to any module's __all__ shows up here as a change
# to the package surface.
PUBLIC_NAMES = """
BezoutWitness ClassCapExceeded DataSet FractionalDataSet ModuliNotCoprime
NotAUnit OracleRangeExceeded PairRow ParseError PreconditionViolated RangeExceeded
RootTag ValidationReport Violation bezout_avoiding_primes class_count classify cone_multisets
cone_weight coprime_divisor_pairs crt datasets de_construct de_root_genera de_roots divisors
ext_gcd factorize format_dataset fractional_datasets gcd genus_set has_root is_prime mod_inverse
ms_count ms_roots oracle_datasets pair_table parse_dataset primary_datasets root_degrees
stabilize t_set twist_pairs validate
""".split()


def test_package_surface():
    assert sorted(dehnroots.__all__) == sorted(PUBLIC_NAMES)
    for module in (dataset, enumeration, fractional, numtheory, special_roots):
        for name in module.__all__:
            assert getattr(dehnroots, name) is getattr(module, name), (module.__name__, name)
    for name in dehnroots.__all__:
        value = getattr(dehnroots, name)
        defining = sys.modules[value.__module__]
        assert getattr(defining, name) is value, name
    assert not hasattr(dataset, "equivalent")


def test_readme_quick_start():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False,
                              optionflags=doctest.NORMALIZE_WHITESPACE)
    assert (result.failed, result.attempted) == (0, 5)
