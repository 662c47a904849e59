"""Exact Hilbert series of circle and finite-group symplectic quotients."""

from .circle import (HilbertSeriesResult, hilbert_series, normalize_weights,
                     oracle_off_counts, u_average)
from .errors import SquotError
from .exact import (FactoredDenominator, LaurentExpansion, QPolynomial,
                    RationalFunction, TruncatedSeries, laurent_at_one,
                    laurent_prototype, rational_reconstruct,
                    resultant_transform, series_of_rational)
from .finite import (FiniteDiagonalGroup, FiniteGroupResult, analyze_group,
                     molien_series)
from .laurent import (SymplecticReport, gamma0_closed, gamma2_closed,
                      schur_eval, symplectic_check)
from .scan import (ScanResult, full_scan, gamma0_is_integral,
                   pseudoreflection_obstruction, reciprocal_gamma0)

__version__ = "1.0.0"
