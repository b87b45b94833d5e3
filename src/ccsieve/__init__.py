"""Cubic class sieve: experiments on 3-divisibility of real quadratic
class numbers.

Exposes the witness sieve (honda), exact form-class oracles (classnum),
exact integer kernels (intmath), count-series machinery (counting), and a
batch CLI (cli).
"""

from .classnum import (
    AnalyticEstimate,
    QuadraticForm,
    analytic_estimate_real,
    class_number_imaginary,
    class_number_real_narrow,
    three_divides_real_class_number,
)
from .counting import (
    CountSeries,
    ScholzCounterexample,
    SlopeReport,
    fit_slope,
    honda_count_series,
    scholz_counterexample_search,
    truth_count_series,
)
from .honda import (
    ConfigurationError,
    EnumConfig,
    HondaWitness,
    enumerate_discriminants,
    validate_witness,
)
from .intmath import (
    SquarefreeDecomposition,
    cubic_has_integer_root,
    fundamental_discriminant,
    mod3_shortcut_no_root,
    squarefree_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticEstimate",
    "ConfigurationError",
    "CountSeries",
    "EnumConfig",
    "HondaWitness",
    "QuadraticForm",
    "ScholzCounterexample",
    "SlopeReport",
    "SquarefreeDecomposition",
    "analytic_estimate_real",
    "class_number_imaginary",
    "class_number_real_narrow",
    "cubic_has_integer_root",
    "enumerate_discriminants",
    "fit_slope",
    "fundamental_discriminant",
    "honda_count_series",
    "mod3_shortcut_no_root",
    "scholz_counterexample_search",
    "squarefree_decompose",
    "three_divides_real_class_number",
    "truth_count_series",
    "validate_witness",
]
