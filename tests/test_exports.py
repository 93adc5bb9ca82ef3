"""Every name a listalign module exports in __all__ exists.

A deleted or renamed function must leave no stale entry behind: a stale name
breaks ``from listalign.<module> import *`` for every caller.
"""

import importlib
import pkgutil

import pytest

import listalign

# __main__ runs the CLI when imported, and exports nothing
MODULES = ["listalign"] + [f"listalign.{m.name}" for m in pkgutil.iter_modules(listalign.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_align_exports_its_loss_heads():
    from listalign import align

    assert {"LOSS_HEADS", "create_loss_params", "compute_loss", "temperature"} <= set(align.__all__)
    assert "LossParams" not in align.__all__
