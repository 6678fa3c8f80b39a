"""numpy, imported on first attribute access.

Every hlcast module takes ``np`` from here. When numpy is already imported,
``np`` is that module. Otherwise ``np`` is a module registered as
``sys.modules["numpy"]`` whose first attribute access runs numpy's import
(``importlib.util.LazyLoader``, as in Scientific Python's SPEC 1), so a
command that computes nothing, such as ``hlcast report`` on a saved report,
``--help`` or a configuration error, never pays for it. After that first
access ``np`` is the ordinary numpy module, and ``import numpy`` anywhere
returns the same object.

A plain ``import numpy`` in an hlcast module would read the lazy module's
``__spec__`` and so import numpy at once; import ``np``, and its ``spec``, from here.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module, module.__spec__
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module, spec


np, spec = _lazy_numpy()
