"""Where the assignment solver comes from.

The star distance solves one linear sum assignment per pair with SciPy's
LAPJV — a single C function that lives in the compiled extension
``scipy/optimize/_lsap``.  Reaching it through the public
``from scipy.optimize import linear_sum_assignment`` first executes
``scipy/optimize/__init__.py`` (and with it ``scipy.sparse``,
``scipy.linalg``, ``scipy.special`` …): about 600 modules, 51 MB and
0.4 s in *every* process that imports :mod:`repro` — driver, server and
each replica worker — for code the query path never runs.

This module is the one place that knows that: it loads the extension
straight from its file, so no package ``__init__`` executes, and hands out
the very function object the public import would (a later
``import scipy.optimize`` in the same interpreter still works and yields
the same callable).  The file's location is private to SciPy, so *any*
failure to find or load it falls back to the public import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_EXTENSION = "scipy.optimize._lsap"


def _load_extension():
    """SciPy's compiled ``optimize/_lsap`` module, without its packages."""
    module = sys.modules.get(_EXTENSION)
    if module is not None:
        return module
    package_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(package_dir, "optimize", "_lsap" + suffix)
        if os.path.exists(path):
            break
    else:
        raise ImportError(f"no _lsap extension under {package_dir}/optimize")
    loader = importlib.machinery.ExtensionFileLoader(_EXTENSION, path)
    spec = importlib.util.spec_from_loader(_EXTENSION, loader, origin=path)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    # A single-phase extension registers itself in sys.modules as it is
    # created; a child of packages that were never imported does not
    # belong there.  A later public import finds the cached extension.
    sys.modules.pop(_EXTENSION, None)
    return module


def _resolve():
    try:
        return _load_extension().linear_sum_assignment
    except Exception:  # private layout: whatever went wrong, SciPy's
        # public entry point is the same function, only dearer to import.
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


#: ``scipy.optimize.linear_sum_assignment`` — the same C function.
linear_sum_assignment = _resolve()
