"""The rectangular assignment solver that `matching` and `changes` share.

scipy's compiled `optimize/_lsap` kernel is loaded on its own, once per
process, at the first solve; the modules that solve assignments import
`linear_sum_assignment` from here, and the subcommands that solve none
load no solver at all.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading

import numpy as np


def _lsap_spec() -> importlib.machinery.ModuleSpec | None:
    """The spec of scipy's compiled `optimize/_lsap` extension, found
    without importing scipy, or None."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    dirs = [os.path.join(d, "optimize") for d in scipy_spec.submodule_search_locations]
    return importlib.machinery.PathFinder.find_spec("_lsap", dirs)


def _load_solver():
    """scipy's rectangular assignment solver. The compiled kernel is loaded
    on its own, because importing the scipy.optimize package around it
    takes about three times as long as importing numpy; a layout where the
    kernel is not an extension exposing the solver falls back to the
    package import."""
    spec = _lsap_spec()
    if spec is not None and isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        solve = getattr(module, "linear_sum_assignment", None)
        if callable(solve):
            return solve
    from scipy.optimize import linear_sum_assignment as solve

    return solve


_solver = None
_solver_lock = threading.Lock()


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's rectangular assignment solver, loaded once per process at
    the first solve: of the subcommands only `loss`, `diff` and `mine`
    solve assignments, so the others load no solver at all."""
    global _solver
    if _solver is None:
        with _solver_lock:
            if _solver is None:
                _solver = _load_solver()
    return _solver(cost)
