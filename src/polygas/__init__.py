"""Exact matroid combinatorics and Monte Carlo reduction checks for
hyperplane-arrangement polymer models."""

from .arrangement import (Arrangement, ArrangementError, braid, coxeter_b,
                          coxeter_d, custom, dowling, from_descriptor,
                          threshold, widom_rowlinson)
from .dimred import (DRReport, balanced_weight_check, check_asa_dr, check_dr,
                     hard_rod_coefficient, tonks_series_check,
                     typeD_unbalanced_check)
from .exact_linalg import (Cyclotomic, FieldMismatchError, SingularSystemError,
                           cyclotomic_polynomial, exact_inverse, exact_rank,
                           is_independent)
from .geometry import (ASAShape, BoundingBox, RNGStream, ball_volume,
                       bounding_halfwidth, capped_cylinder_shape,
                       cylinder_shape, sample_unit_sphere, sphere_area,
                       sphere_shape, surface_measure_total, uniform_ball)
from .matroid import BaseTable, LinearOrder, MatroidView
from .mayer import (MCEstimate, SpanningError, mmc_asa, mmc_d0, mmc_mc,
                    pressure_coefficient, pressure_exact_d0, z_score)
from .polymer import (G_FUNCTIONS, PolymerSample, asa_volume_mc,
                      planar_invariance_check, project_expectation,
                      safe_projection_expectation, sample_for_base, volume_mc)
from .signed_graphs import (SignedGraph, balanced_liftings, dn_graph_to_mask,
                            dn_mask_to_graph, is_balanced, is_dn_base,
                            is_dn_independent, signed_graph, split_components)

__version__ = "0.1.0"
