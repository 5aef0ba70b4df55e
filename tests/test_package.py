import ast
import doctest
import re
import sys
from pathlib import Path

import pytest

import dehnroots
from dehnroots import dataset, enumeration, fractional, numtheory, special_roots

# Pinned, so that a change to any module's __all__ shows up here as a change
# to the package surface.
PUBLIC_NAMES = """
BezoutWitness ClassCapExceeded DataSet FractionalDataSet ModuliNotCoprime
NotAUnit PairRow ParseError PreconditionViolated RangeExceeded RootTag ValidationReport
Violation bezout_avoiding_primes class_count classify cone_multisets coprime_divisor_pairs crt
datasets de_construct de_root_genera de_roots divisors ext_gcd factorize format_dataset
fractional_datasets gcd genus_set has_root is_prime mod_inverse ms_count ms_roots pair_table
parse_dataset primary_datasets root_degrees stabilize t_set twist_pairs validate
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


def test_ci_workflow_parses_and_runs_the_tier1_command():
    # an invalid workflow file runs no job at all, and reports nothing
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    assert workflow[True] == ["push", "pull_request"]  # PyYAML reads the key on: as True
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                        (root / "ROADMAP.md").read_text()).group(1)
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    assert any(run.startswith(command) for run in runs), runs


def test_ci_installs_exactly_the_test_extra():
    # one list of test dependencies: the workflow installs the test extra's packages, no
    # more and no fewer
    tomllib = pytest.importorskip("tomllib")
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    extra = tomllib.loads((root / "pyproject.toml").read_text())[
        "project"]["optional-dependencies"]["test"]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    installs = [step["run"].split() for step in workflow["jobs"]["tests"]["steps"]
                if "pip install" in step.get("run", "")]
    assert installs == [["python", "-m", "pip", "install", *extra]], installs


def _repr_quotes(node, scope=()):
    """Yield the scope of each raise under ``node`` whose text formats with %r or !r."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _repr_quotes(child, scope + (child.name,))
        elif isinstance(child, ast.Raise):
            if any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                   and ("%r" in part.value or "!r}" in part.value)
                   or isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
                   for part in ast.walk(child)):
                yield ".".join(scope)
        else:
            yield from _repr_quotes(child, scope)


def test_no_raise_quotes_a_value_with_repr():
    # an error quotes a value it was given through numtheory._show, which bounds a long
    # string and an integer past the interpreter's digit limit; a bare repr does neither
    found = set()
    for path in Path(dehnroots.__file__).parent.glob("*.py"):
        found |= {(path.stem, scope) for scope in _repr_quotes(ast.parse(path.read_text()))}
    assert found == set(), found
