"""The benchmark under ``perfbench/`` imports names from ``repro``.
Importing its modules here, without running Spark, makes a rename or
removal of any of those names fail the unit tests instead of the
benchmark."""
import importlib
import inspect

import pytest


@pytest.mark.parametrize("module", ["perfbench.replay", "perfbench.session"])
def test_benchmark_modules_import(module):
    importlib.import_module(module)


def test_benchmark_calls_still_bind():
    from repro.core.components import connected_components
    from repro.core.miscela import mine_caps_local

    inspect.signature(mine_caps_local).bind("spark", "readings", "locations", "params")
    inspect.signature(connected_components).bind("sensors", "edges")
