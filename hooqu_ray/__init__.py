"""hooqu_ray — a Ray-Data-native data-quality + quality-filter engine.

"Unit tests for data" with the reference's declarative API
(Check / VerificationSuite / analyzers), executed as streaming Ray Data
pipelines: one shared ``map_batches``-style scan for all mergeable states,
hash-shuffle groupbys for frequency metrics, selection passes for exact
quantiles, and stateless task stages for the transcript quality-filter/scrub
flagship pipeline.
"""

from .analyzers.base import Analyzer, GroupingAnalyzer, ScanShareableAnalyzer
from .analyzers.grouping import (
    CountDistinct,
    Distinctness,
    Entropy,
    MutualInformation,
    UniqueValueRatio,
    Uniqueness,
)
from .analyzers.quantile import Quantile
from .analyzers.schema_checks import ColumnDtype, ColumnExists
from .analyzers.scan import (
    Completeness,
    Compliance,
    Correlation,
    Maximum,
    MaxLength,
    Mean,
    Minimum,
    MinLength,
    PatternMatch,
    Size,
    StandardDeviation,
    Sum,
)
from .analyzers.sketches import ApproxCountDistinct, ApproxQuantile
from .checks import Check, CheckLevel, CheckResult, CheckStatus
from .constraints import Constraint, ConstraintResult, ConstraintStatus
from .metrics import DoubleMetric, Entity, Failure, Success
from .runner import AnalyzerContext, do_analysis_run
from .verification import VerificationResult, VerificationSuite

__all__ = [
    "Analyzer",
    "AnalyzerContext",
    "ApproxCountDistinct",
    "ApproxQuantile",
    "Check",
    "CheckLevel",
    "CheckResult",
    "CheckStatus",
    "Completeness",
    "Compliance",
    "Constraint",
    "ConstraintResult",
    "ConstraintStatus",
    "Correlation",
    "CountDistinct",
    "Distinctness",
    "DoubleMetric",
    "Entity",
    "ColumnDtype",
    "ColumnExists",
    "Entropy",
    "Failure",
    "GroupingAnalyzer",
    "Maximum",
    "MaxLength",
    "Mean",
    "Minimum",
    "MinLength",
    "MutualInformation",
    "PatternMatch",
    "Quantile",
    "ScanShareableAnalyzer",
    "Size",
    "StandardDeviation",
    "Success",
    "Sum",
    "UniqueValueRatio",
    "Uniqueness",
    "VerificationResult",
    "VerificationSuite",
    "do_analysis_run",
]

__version__ = "0.1.0"
