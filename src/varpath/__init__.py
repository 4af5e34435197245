"""varpath: pathwise Stieltjes integration with rough drivers and BV coefficients.

Numerical kernels for

* sampled Holder paths (exact fractional Brownian motion synthesis, Holder
  exponent estimation),
* discrete measures, Riesz potentials, mutual energies, occupation measures,
* a library of bounded-variation coefficients (Cantor-type, indicator,
  piecewise-constant matrices) with gradient-measure discretizations,
* the capped-potential variability statistic and its finite/diverging
  classifier,
* Riemann-Liouville fractional integrals and Weyl-Marchaud derivatives by
  product integration,
* the fractional-duality Stieltjes integral with Riemann-sum rate studies,
* Doss-transform construction and verification of solutions to dX = sigma(X) dY.

Everything is deterministic given an integer seed.
"""

from .grid_paths import (TimeGrid, SampledPath, make_fbm, make_power_path,
                         make_linear_path, make_constant_path, estimate_holder,
                         apply_map)
from .gridfun import GridFunction
from .measures import (DiscreteMeasure, KernelPolicy, occupation_measure,
                       riesz_potential, riesz_potential_many, mutual_energy,
                       fractional_maximal, upper_regularity_exponent,
                       local_time_density)
from .bv_library import (ScalarBV, MatrixBV, constant_scalar, cantor_coefficient,
                         jump_line_matrix, cone_matrix, cantor_matrix,
                         cayley_inverse, curl_check, distortion_check)
from .variability import (VariabilityParams, VariabilityReport,
                          VariabilityRefusal, classify, require_finite,
                          compose, fbm_energy_bound)
from .frac_calc import (FracParams, rl_integral_left, rl_integral_right,
                        wm_derivative_left, wm_derivative_right_adjusted,
                        norm_W0, norm_WT)
from .gls_integral import (NormOverflowError, gls_integrate,
                           gls_integrate_series, riemann_sum, rate_study)
from .doss import (DossMaps, SolveRefusal, solve_nd, closed_form_maps,
                   build_solution, residual, uniqueness_check,
                   change_of_variable_check)

__version__ = "0.1.0"
