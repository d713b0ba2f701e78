import importlib

import pytest


@pytest.mark.parametrize("module", [
    "hypsmear",
    "hypsmear.hypgeom",
    "hypsmear.volume",
    "hypsmear.bounds",
    "hypsmear.smear",
    "hypsmear.smear.chain",
    "hypsmear.smear.surface",
    "hypsmear.smear.net",
])
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted breaks `import *`
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
