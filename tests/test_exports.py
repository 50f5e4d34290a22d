"""The package surface is the union of its modules' ``__all__`` lists.

Every exported name resolves, so a deleted name cannot linger in __all__;
no two modules export the same name, so the package's star imports cannot
shadow one another.
"""

from itertools import combinations

import pytest

import ppbinom
from ppbinom import cli, digits, engine, oracle, pseudo

MODULES = (digits, pseudo, engine, oracle)

SURFACE = {
    "errors", "__version__",
    "parse_natural", "to_base_p",
    "is_prime", "ensure_prime",
    "PseudoExpansion", "decompose", "pseudo_valuation", "block", "block_valuation",
    "ValuedUnit", "Factor", "EvalTrace", "exact_binom_mod", "theorem_factors",
    "theorem_evaluate", "lucas_evaluate", "davis_webb_evaluate",
    "format_trace_text", "format_trace_records",
    "binom_exact", "binom_mod_pascal", "kummer_valuation", "pascal_rows",
}


@pytest.mark.parametrize("module", [ppbinom, *MODULES, cli])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_module_surfaces_are_disjoint():
    for first, second in combinations(MODULES, 2):
        assert set(first.__all__).isdisjoint(second.__all__), (first, second)


def test_package_reexports_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ppbinom, name) is getattr(module, name), name


def test_package_surface():
    assert len(ppbinom.__all__) == len(SURFACE) == 25
    assert set(ppbinom.__all__) == SURFACE
