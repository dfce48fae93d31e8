"""Numerical toolkit for frequency-noise-robust gates on Kerr-cat qubits."""

__version__ = "0.1.0"

from .fock import (CHANNELS, FockSpace, HamiltonianAssembly, InvalidInputError,
                   InvalidSpaceError, KerrCatParams, build_hamiltonian, create,
                   destroy, number_operator, parity_operator)
from .spectral import (GapLandscape, LabeledSpectrum, NoRobustPointError,
                       RobustLineCache, diagonalize_labeled, energy_gap,
                       gap_derivative, gap_landscape, robust_line, spectrum_at)
from .cats import (CatBasis, DriveAxis, ProjectedNumberOperator, TruncationError,
                   axis_from_drive_phase, cat_vectors, coherent_vector,
                   drive_phase_for_axis, matrix_elements, projected_number_operator)
from .pulses import (AdiabaticityLossError, InvalidRampError, PulseSchedule,
                     SchemeInfeasibleError, gap_traces, idle_schedule,
                     predicted_angle, rot_x, rot_y, rot_z, scheme_kerr_gate,
                     scheme_x, scheme_xx_envelope, scheme_y_drag,
                     scheme_z_robustline, scheme_z_straight, seed_eps_x0,
                     truncated_gaussian, truncated_gaussian_deriv)
from .propagation import (PropagationResult, adiabaticity_diagnostic, propagate,
                          propagate_many, propagate_noise_trace)
from .fidelity import (InfidelityGrid, average_infidelity, computational_pair,
                       infidelity, simpson_nodes)
from .optimize import (OptimizationRecord, ParamSpace, calibrate_z_straight,
                       grid_optimize, grid_search)
from .noise import (FilterFunction, InvalidNoiseModelError, NoiseModel,
                    angle_error_functional, default_frequency_grid, filter_weight,
                    first_order_coefficient, monte_carlo_infidelity, sample_noise,
                    spectral_average_infidelity)
from .twoqubit import (TwoQubitEffectiveModel, echo_xx, effective_interaction,
                       effective_unitary, full_two_mode_propagate,
                       makhlin_invariants, projected_generator,
                       two_mode_computational_projector, xx_target)
