"""Tools for first-order quasilinear systems and their Poisson structures.

Modules cover a small symbolic expression language (`expr`), pointwise
differential-geometric tensors of a declared system (`tensor`), structural
verification of bracket classes and flat-coordinate construction (`verify`),
discretized field brackets on a periodic grid (`fieldbracket`), and the
generalized hodograph method for diagonal systems (`hodograph`).
`fieldbracket` and `hodograph` are imported on first use, so a process
that runs neither does not compile them.
"""

__version__ = "0.1.0"

import importlib

from hydrobrackets.expr import Expr, differentiate, evaluate, free_names, parse
from hydrobrackets.system import Box, SystemDef, sample_box
from hydrobrackets.config import load_config, parse_document
from hydrobrackets.errors import HydroBracketsError
from hydrobrackets import errors, library, tensor, verify

_LAZY = ("fieldbracket", "hodograph")

__all__ = [
    "Box", "Expr", "HydroBracketsError", "SystemDef", "__version__",
    "differentiate", "errors", "evaluate", "fieldbracket", "free_names",
    "hodograph", "library", "load_config", "parse", "parse_document",
    "sample_box", "tensor", "verify",
]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
