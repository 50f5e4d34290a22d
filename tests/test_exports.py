"""Every exported name resolves, so a deleted name cannot linger in __all__."""

import pytest

import ppbinom
from ppbinom import cli, digits, engine, oracle, pseudo


@pytest.mark.parametrize("module", [ppbinom, digits, pseudo, engine, oracle, cli])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
