"""Exact-arithmetic toolkit for the identity chain around generalized
pentagonal numbers: the signed term stream, the divisor-sum recurrence, the
truncated product against its sparse expansion, root-of-unity period
cancellations, and summation of the attached divergent series."""

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
from .sigma import (
    SigmaTable,
    load_table,
    recurrence_terms,
    save_table,
    sigma_brute,
    sigma_recurrence,
    sigma_table,
)
from .qseries import (
    DenseSeries,
    elementary_symmetric,
    euler_product,
    multiply_truncated,
    pentagonal_series,
    power_sums,
)
from .cyclotomic import (
    BasisCancellationReport,
    CycVec,
    PeriodCancellationReport,
    partial_sum_aggregate,
    period_profile,
    residue_substream,
    root_of_unity,
    roots_of_unity,
    substitute_stream,
    verify_basis_cancellation,
    verify_period_cancellation,
    zero_vector,
)
from .summation import (
    HARD_EXPONENT_CAP,
    DifferenceTable,
    NonPolynomialSequenceError,
    PowerSumSplit,
    TruncationInfeasibleError,
    abel_evaluate,
    difference_table,
    euler_sum_alternating,
    pentagonal_power_sum,
    required_exponent_cap,
    residue_class_abel,
)

__version__ = "0.1.0"
