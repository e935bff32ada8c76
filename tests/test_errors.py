"""The non-finite contract: every public numeric entry point refuses a NaN or
infinite exponent or bound, and an integer truncation anything but an integer,
with DomainError, never TypeError, ValueError, OverflowError or a NaN."""

import math

import numpy as np
import pytest

from siegel3 import eisenstein as eis, forms, lipschitz as lip, series, specfun as sf
from siegel3 import symplectic as sp
from siegel3.errors import DomainError
from siegel3.forms import HalfIntegralForm

SPEC = eis.TruncationSpec(4, 4)
I3 = HalfIntegralForm(1, 1, 1, 0, 0, 0)
ENTRY_POINTS = {
    "gamma3": lambda x: sf.gamma3(1, 1, x),
    "lipschitz_factor": lambda x: sf.lipschitz_factor(x, 4, 5),
    "cone_integral_gap": lambda x: sf.cone_integral_gap((2, x, 3), 1j * np.eye(3)),
    "selberg_E": lambda x: eis.selberg_E(HalfIntegralForm(1, 1, 1, 0, 0, 0), (3, x, 3), SPEC),
    "km_classic": lambda x: series.km_classic(series.ones_provider(), x, 2),
    "km_twisted": lambda x: series.km_twisted(series.ones_provider(), (3, 3, x), 1, SPEC),
    "kernel_trunc": lambda x: sp.kernel_trunc(32, (x, 4, 5), 1j * np.eye(3), 1, SPEC, 1),
    "epstein": lambda x: eis.epstein(np.eye(2), x, 10),
    "real_analytic_E": lambda x: eis.real_analytic_E(1j, x, 10),
    "zeta_Z2_star": lambda x: eis.zeta_Z2_star(x, 1j),
    "classical_lipschitz": lambda x: lip.classical_lipschitz(1j, x, 10),
    "log_gamma": sf.log_gamma,
    "complex_zeta": sf.complex_zeta,
}


BOUNDS = {
    "selberg_E": lambda x: eis.selberg_E(I3, (3, 3, 3), eis.TruncationSpec(x, 4)),
    "enumerate_flags": lambda x: eis.enumerate_flags(I3, eis.TruncationSpec(4, x)),
    "km_classic": lambda x: series.km_classic(series.ones_provider(), 30, x),
    "km_twisted": lambda x: series.km_twisted(series.ones_provider(), (3, 3, 20), 1,
                                              eis.TruncationSpec(4, x)),
    "kernel_trunc": lambda x: sp.kernel_trunc(32, (3, 4, 5), 1j * np.eye(3), x, SPEC, 1),
    "reduced_classes": forms.reduced_classes,
    "short_vectors_gram": lambda x: forms.short_vectors_gram(I3.gram2(), x),
}


INTEGER_TRUNCATIONS = {
    "lattice_sum_lhs": lambda x: lip.lattice_sum_lhs((2, 4, 5), 1j * np.eye(3), x),
    "fourier_side_rhs": lambda x: lip.fourier_side_rhs((2, 4, 5), 1j * np.eye(3), x),
    "classical_lipschitz": lambda x: lip.classical_lipschitz(1j, 2, x),
    "enumerate_pairs": sp.enumerate_pairs,
    "poincare_trunc": lambda x: sp.poincare_trunc(24, I3, 1j * np.eye(3), x),
    "kernel_trunc": lambda x: sp.kernel_trunc(32, (3, 4, 5), 1j * np.eye(3), 1, SPEC, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1.5])
@pytest.mark.parametrize("name", sorted(INTEGER_TRUNCATIONS))
def test_non_integer_truncations_raise_domain_error(name, x):
    with pytest.raises(DomainError, match="must be an integer"):
        INTEGER_TRUNCATIONS[name](x)


def test_a_warm_pair_cache_still_refuses_a_float():
    sp.enumerate_pairs(1)  # 1.0 == 1, but it is another cache key, so the intake runs
    with pytest.raises(DomainError, match="must be an integer"):
        sp.enumerate_pairs(1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_non_finite_bounds_raise_domain_error(name, x):
    with pytest.raises(DomainError, match="must be finite"):
        BOUNDS[name](x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(2, math.nan)])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_exponents_raise_domain_error(name, x):
    with pytest.raises(DomainError, match="must be finite"):
        ENTRY_POINTS[name](x)
