"""Exact-arithmetic toolkit for the identity chain around generalized
pentagonal numbers: the signed term stream, the divisor-sum recurrence, the
truncated product against its sparse expansion, root-of-unity period
cancellations, and summation of the attached divergent series.

Only the pentagonal layer loads with the package.  Every other public name
resolves on first access, importing its home module then, so a command loads
the modules it runs and no others.
"""

from importlib import import_module

# Eager: the submodule shares its name with the function pentagonal(), and a
# later import of the submodule would rebind the package attribute to it.
from .pentagonal import (
    Branch,
    PentagonalTerm,
    differences,
    interpolated_sequence,
    is_pentagonal,
    iter_terms,
    pentagonal,
    term_stream,
)

_LAZY = {
    "sigma": (
        "first_wrong_sigma",
        "load_table",
        "recurrence_terms",
        "save_table",
        "sigma_brute",
        "sigma_recurrence",
        "sigma_table",
    ),
    "qseries": (
        "elementary_symmetric",
        "euler_product",
        "fold_product",
        "pentagonal_series",
        "power_sums",
    ),
    "cyclotomic": (
        "BasisCancellationReport",
        "PeriodCancellationReport",
        "partial_sum_aggregate",
        "period_profile",
        "verify_basis_cancellation",
        "verify_period_cancellation",
    ),
    "summation": (
        "HARD_EXPONENT_CAP",
        "NonPolynomialSequenceError",
        "PowerSumSplit",
        "TruncationInfeasibleError",
        "abel_decay",
        "abel_evaluate",
        "difference_table",
        "euler_sum_alternating",
        "pentagonal_power_sum",
        "required_exponent_cap",
        "residue_class_abel",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("acceptance", "cli", *_LAZY)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the home module's
    # current attribute, so a wrapper installed there is seen, and removed, alike.
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
