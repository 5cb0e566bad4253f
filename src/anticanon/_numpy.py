"""numpy, loaded at its first use.

The exact core (parsing, the divisor, the Kähler defect, lattice normal forms)
never touches numpy; only the numeric probes do.  Modules that need it write
``from ._numpy import np`` and use ``np`` as usual.  The name is bound when
the module is imported, but numpy itself runs only at the first attribute
access, so a run that stays exact never pays for loading it.

numpy remains a hard dependency: if it is not installed, importing this module
raises :class:`ModuleNotFoundError`.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    """``name`` from ``sys.modules`` if present, otherwise a lazy module."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
