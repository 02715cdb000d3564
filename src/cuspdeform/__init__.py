"""cuspdeform: exact and numeric verification of one-parameter
deformation families of cusped hyperbolic lattices.

The package constructs the figure-eight knot family into SU(3,1) /
SU(2,2) and the modular-surface bending families of the Bianchi groups
into SU(3,1) and SO(4,1), then machine-checks every computable claim:
relations, form invariance, signatures, isometry types, trace
identities, boundary-orbit structure, and cusp-group (non-)discreteness
probes.
"""

from .scalars import Angle, ExtScalar, LaurentPoly, Surd
from .matrices import (CONJ_TRANSPOSE, TRANSPOSE_CONJ, GeometryError,
                       HermForm, IndeterminateError, Mat, Signature,
                       eigen, eigen_stack, form_defect, form_preserved,
                       herm_signature, siegel_form)
from .isometry import (Elliptic, Identity, IsoClass, Loxodromic, Parabolic,
                       classify, classify_stack, elliptic_boundary,
                       parabolic_subtype)
from .heisenberg import (CuspParams, HeisPoint, RS1Class, RS1Element,
                         boundary_action, box_distance, dilation_matrix,
                         heis_mul, orbit_center, orbit_gap, orbit_gap_probe,
                         orbit_point, orbit_point_via_matrices, orbit_points,
                         rotation_matrix, rs1_classify, rs1_probe,
                         translation_matrix, write_orbit_csv)
from .words import (Presentation, Rep, Word, builtin_presentation,
                    check_relations, commutator, eval_word, load_word_list,
                    trace_word)
from .figure8 import (Fig8Family, build_family, det_form_closed,
                      figure8_report, figure8_sweep, parabolicity_report,
                      signature_sweep, trace_integrality_check)
from .bending import (BendDataAmalgam, BendDataHNN, BianchiFamily,
                      algebra_dimension, bend_amalgam, bend_hnn,
                      bianchi_family, bianchi_sweep, centralizer,
                      verify_bianchi_so41, verify_bianchi_su31)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
