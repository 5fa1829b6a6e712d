"""Membership, boundary, and structured-singular-value computations for the
symmetrized bidisc, tetrablock, pentablock, and their four-coordinate
relatives."""

from .bidisc import (bgamma_point, bgamma_test, g2_classify, g2_margins,
                     g2_point, g2_roots)
from .domain_f import (BallParamF, FRelations, ShilovParamF, f_classify,
                       f_classify_matrix_oracle, f_matrix_witness, f_relations,
                       f_rescale_by, f_scale, f_slice_s_zero, f_slice_xa_zero,
                       f_swap, minkowski_gauge, pi_f, q_value,
                       sample_point_f, sample_shilov_param_f,
                       shilov_f_double_cover, shilov_f_from_ball,
                       shilov_f_param, shilov_f_test)
from .errors import (CriteriaDisagree, DenominatorNearZero, FormulaMismatch,
                     InfeasibleConstraint, OptimizerNoConverge,
                     PreconditionViolation, UnknownSuite)
from .hexablock import (HnVerdict, PsiProbe, hexa_classify, hexa_slice_a0,
                        hn_classify, pi_hexa, psi_eval, psi_sup,
                        psi_sup_grid, shilov_h_test)
from .lie_ball import (ShilovParamL4, biholo_f, lambda_map, lie_ball_classify,
                       nearest_transport_distance, shilov_l4_lattice,
                       shilov_l4_param, transported_lattice)
from .matrix2 import (GramReport, Matrix2, contraction_from_rng,
                      contraction_test, gram_det_from_coords, gram_report,
                      operator_norm, random_contraction, random_unitary,
                      singular_values, spectral_radius, unitary_from_rng)
from .mu import (MuResult, Structure, SubspaceVerdict, classify_subspace,
                 e_theta, f_mu_membership, mu_equals_norm_suite,
                 mu_sandwich_check, mu_value, rigidity_check,
                 rigidity_grid_pass, structure_from_name)
from .pentablock import (bp_test, penta_classify, penta_dual_check,
                         penta_radius, penta_sup)
from .tetrablock import (be_point, be_test, pi_tetra, tetra_classify,
                         tetra_margins)
from .verdict import (DEFAULT_TOL, MembershipVerdict, Region,
                      verdict_from_margin)
from .verify import (SuiteReport, run_all, run_counterexamples, run_suite,
                     suite_names)

__version__ = "0.1.0"
