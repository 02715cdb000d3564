"""cuspdeform: exact and numeric verification of one-parameter
deformation families of cusped hyperbolic lattices.

The package constructs the figure-eight knot family into SU(3,1) /
SU(2,2) and the modular-surface bending families of the Bianchi groups
into SU(3,1) and SO(4,1), then machine-checks every computable claim:
relations, form invariance, signatures, isometry types, trace
identities, boundary-orbit structure, and cusp-group (non-)discreteness
probes.

The top-level names resolve on first use (PEP 562): ``import cuspdeform``
loads no submodule, and the exact layer (``scalars``, ``exact``,
``words``, ``figure8``) loads no numpy.
"""

import importlib

_EXPORTS = {
    "scalars": ("Angle", "ExtScalar", "LaurentPoly", "Surd"),
    "exact": ("CONJ_TRANSPOSE", "TRANSPOSE_CONJ", "GeometryError", "HermForm",
              "IndeterminateError", "Mat", "form_preserved", "siegel_form"),
    "matrices": ("Signature", "eigen", "eigen_stack", "form_defect", "herm_signature"),
    "isometry": ("Elliptic", "Identity", "IsoClass", "Loxodromic", "Parabolic",
                 "classify", "classify_stack", "elliptic_boundary", "parabolic_subtype"),
    "heisenberg": ("CuspParams", "HeisPoint", "RS1Class", "RS1Element",
                   "boundary_action", "box_distance", "dilation_matrix", "heis_mul",
                   "orbit_center", "orbit_gap", "orbit_gap_probe", "orbit_point",
                   "orbit_point_via_matrices", "orbit_points", "rotation_matrix",
                   "rs1_classify", "rs1_probe", "translation_matrix", "write_orbit_csv"),
    "words": ("Presentation", "Rep", "Word", "builtin_presentation", "check_relations",
              "commutator", "load_word_list"),
    "figure8": ("Fig8Family", "build_family", "det_form_closed", "figure8_report",
                "figure8_sweep", "parabolicity_report", "signature_sweep",
                "trace_integrality_check"),
    "bending": ("BendDataAmalgam", "BendDataHNN", "BianchiFamily", "algebra_dimension",
                "bend_amalgam", "bend_hnn", "bianchi_family", "bianchi_sweep",
                "centralizer", "verify_bianchi_so41", "verify_bianchi_su31"),
}

# each exported name -> the module that defines it; a submodule is its own
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((m, m) for m in (*_EXPORTS, "tolerances") if m != "exact")

__version__ = "0.1.0"

__all__ = sorted(_HOME)

# ``exact`` resolves like the other submodules, but stays out of ``__all__``,
# which keeps the names the package exported before that module existed
_HOME["exact"] = "exact"


def __getattr__(name: str):
    """Import the module that defines ``name``, and keep the value in the
    package namespace, so that the next lookup does not come here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{home}")
    if name != home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
