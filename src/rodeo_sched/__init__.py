"""Time-sampling schedule evaluation and optimization for iterative
phase-kickback energy filtering.

The package covers five layers: schedule containers and generators
(`schedules`), residual-weight evaluation against discrete spectra and
continuous bands through one log-space survival kernel and adaptive
quadrature (`spectral`), an exact sign-enumeration closed form for
short schedules kept as an oracle (`closed_form`), long-time asymptotics of
the geometric-schedule suppression product (`asymptotics`),
exact-diagonalization spin-chain backends (`hamiltonians`), and global
or one-parameter optimizers over schedules (`optimize`).
"""

from .asymptotics import (DecayFitResult, PISOT_EXAMPLES, decay_envelope,
                          exp_regime_value, fit_decay_exponent,
                          fourier_expansion, product_function,
                          rra_average_success)
from .closed_form import (BandModel, asymptotic_rsn, band_sinc_sum,
                          rsn_closed_form, rsn_closed_form_batch,
                          superiteration_limit_rsn)
from .hamiltonians import (EigenSystem, HamiltonianSpec, InitialState,
                           RodeoObjective, RodeoResult,
                           build_sector_hamiltonian, eigendecompose,
                           make_initial_state, minimum_gap, ra_fidelity,
                           sector_basis, sector_characteristic_time)
from .optimize import (AlphaOptimum, CurvePoint, OptimizationConfig,
                       OptimizationResult, RraOptimum, adaptive_alpha_curve,
                       optimize_alpha, optimize_rra_sigma, optimize_times)
from .quadrature import QuadratureError, integrate_oscillatory
from .schedules import (TimeSchedule, gaussian_random_schedule, geometric_times,
                        read_schedule, superiteration_schedule, trotter_floor,
                        trotter_round)
from .spectral import (ContinuousBand, DiscreteSpectrum, apply_schedule,
                       band_from_json, characteristic_time,
                       fidelity_from_overlaps, load_spectrum_csv,
                       rsn_quadrature, rsn_quadrature_batch, success_probability,
                       survival_product)

__version__ = "0.1.0"

__all__ = [
    "AlphaOptimum",
    "BandModel",
    "ContinuousBand",
    "CurvePoint",
    "DecayFitResult",
    "DiscreteSpectrum",
    "EigenSystem",
    "HamiltonianSpec",
    "InitialState",
    "OptimizationConfig",
    "OptimizationResult",
    "PISOT_EXAMPLES",
    "QuadratureError",
    "RodeoObjective",
    "RodeoResult",
    "RraOptimum",
    "TimeSchedule",
    "adaptive_alpha_curve",
    "apply_schedule",
    "asymptotic_rsn",
    "band_from_json",
    "band_sinc_sum",
    "build_sector_hamiltonian",
    "characteristic_time",
    "decay_envelope",
    "eigendecompose",
    "exp_regime_value",
    "fidelity_from_overlaps",
    "fit_decay_exponent",
    "fourier_expansion",
    "gaussian_random_schedule",
    "geometric_times",
    "integrate_oscillatory",
    "load_spectrum_csv",
    "make_initial_state",
    "minimum_gap",
    "optimize_alpha",
    "optimize_rra_sigma",
    "optimize_times",
    "product_function",
    "ra_fidelity",
    "read_schedule",
    "rra_average_success",
    "rsn_closed_form",
    "rsn_closed_form_batch",
    "rsn_quadrature",
    "rsn_quadrature_batch",
    "sector_basis",
    "sector_characteristic_time",
    "success_probability",
    "superiteration_limit_rsn",
    "superiteration_schedule",
    "survival_product",
    "trotter_floor",
    "trotter_round",
]
