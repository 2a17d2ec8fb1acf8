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
                          fit_decay_exponent, fourier_expansion,
                          product_function, rra_average_success)
from .closed_form import (BandModel, asymptotic_rsn, rsn_closed_form,
                          rsn_closed_form_batch, superiteration_limit_rsn)
from .hamiltonians import (EigenSystem, HamiltonianSpec, InitialState,
                           RodeoObjective, build_sector_hamiltonian, eigendecompose,
                           make_initial_state, minimum_gap, sector_basis)
from .optimize import (AlphaOptimum, CurvePoint, OptimizationResult,
                       adaptive_alpha_curve, optimize_alpha, optimize_times)
from .quadrature import QuadratureError, integrate_oscillatory
from .schedules import (TimeSchedule, geometric_times, read_schedule,
                        superiteration_schedule, trotter_floor, trotter_round)
from .spectral import (ContinuousBand, DiscreteSpectrum, band_from_json,
                       load_spectrum_csv, rsn_quadrature, rsn_quadrature_batch,
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
    "OptimizationResult",
    "PISOT_EXAMPLES",
    "QuadratureError",
    "RodeoObjective",
    "TimeSchedule",
    "adaptive_alpha_curve",
    "asymptotic_rsn",
    "band_from_json",
    "build_sector_hamiltonian",
    "decay_envelope",
    "eigendecompose",
    "fit_decay_exponent",
    "fourier_expansion",
    "geometric_times",
    "integrate_oscillatory",
    "load_spectrum_csv",
    "make_initial_state",
    "minimum_gap",
    "optimize_alpha",
    "optimize_times",
    "product_function",
    "read_schedule",
    "rra_average_success",
    "rsn_closed_form",
    "rsn_closed_form_batch",
    "rsn_quadrature",
    "rsn_quadrature_batch",
    "sector_basis",
    "superiteration_limit_rsn",
    "superiteration_schedule",
    "survival_product",
    "trotter_floor",
    "trotter_round",
]
