"""
Numerical laboratory for quantum cat maps on torus state spaces:
metaplectic propagators, scarred tensor eigenfunctions, Galois-group
certification of symplectic matrices, and uncertainty-principle numerics.
"""

from .symplectic import (SymplecticMatrix, CharPoly, is_symplectic,
                         char_poly, phi_A, quantum_period, admissible_N)
from .hilbert import (StateSpace, QuantumState, project_gaussian,
                      position_density)
from .metaplectic import (Propagator, PeriodPhase, metaplectic_sl2,
                          metaplectic_adjoint,
                          rotation_propagator, tensor_propagator,
                          egorov_defect, period_phase)
from .scars import (ScarEnsemble, build_scar, overlap_closed_form,
                    overlap_quadrature, gaussian_autocorrelation,
                    lattice_overlap_sum, torus_autocorrelation,
                    semiclassical_scan, S1)
from .galois import (GaloisCertificate, CycleType, factor_type,
                     reciprocal_census, certify_wreath, power_scan,
                     sl2_census, sample_sp)
from .fup import (DiscreteSet, ScalingRun, cantor_set, porosity_check,
                  neighborhood, fup_norm, scaling_experiment)

__version__ = "0.1.0"
