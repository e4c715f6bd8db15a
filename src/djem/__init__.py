"""Exact derived Jacquet modules for SL2(Qp) principal-series-type representations.

Everything is computed in exact rational arithmetic on truncated weight
ladders, with stabilization certificates discharging the truncation.
"""

__version__ = "0.1.0"

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.cohomology import CohomologyResult, StabilizationCertificate, cohomology, kostant_check
from djem.jacquet import JacquetReport, OrlikStrauchSpec, assemble_les, les_consistency_check
from djem.linalg import Rational
from djem.sl2 import WeightModule, dual_verma, n_finite_dual, simple, verma

__all__ = [
    "CohomologyResult",
    "JacquetReport",
    "OrlikStrauchSpec",
    "Rational",
    "SmoothCharacter",
    "StabilizationCertificate",
    "TorusCharacter",
    "TRIVIAL_PSI",
    "WeightModule",
    "assemble_les",
    "cohomology",
    "dual_verma",
    "kostant_check",
    "les_consistency_check",
    "n_finite_dual",
    "simple",
    "verma",
]
