"""The benchmark ledger's wrapped entry points exist.

``perfbench/ledger.py`` wraps each layer's entry points by name
(``WRAPPED``), so renaming one breaks every traced benchmark run with a
``KeyError``.  The ledger is loaded by path, without importing
``perfbench`` as a package or writing anything under it, and every name is
resolved the way its ``Tracing`` context resolves it.
"""

from __future__ import annotations

import types
from pathlib import Path

LEDGER = Path(__file__).resolve().parent.parent / "perfbench" / "ledger.py"


def load_ledger() -> types.ModuleType:
    module = types.ModuleType("perfbench_ledger")
    module.__file__ = str(LEDGER)
    exec(compile(LEDGER.read_text(), str(LEDGER), "exec"), module.__dict__)
    return module


def test_every_wrapped_entry_point_exists():
    ledger = load_ledger()
    assert ledger.WRAPPED
    missing = [(owner, attribute)
               for _layer, owner, attribute, _hook in ledger.WRAPPED
               if attribute not in ledger._resolve(owner).__dict__]
    assert missing == []
