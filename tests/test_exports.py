"""The package's export surface, checked in a fresh interpreter: the
top-level names resolve lazily to the objects their modules bind, and
every name ``matrices`` defined before the exact layer moved to
``exact`` still resolves there."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cuspdeform

# name -> the module the package took it from before its exports became
# lazy; the 8 submodules resolve to themselves
TOP_LEVEL = {
    **dict.fromkeys(["Angle", "ExtScalar", "LaurentPoly", "Surd"], "scalars"),
    **dict.fromkeys(["CONJ_TRANSPOSE", "TRANSPOSE_CONJ", "GeometryError", "HermForm",
                     "IndeterminateError", "Mat", "Signature", "eigen", "eigen_stack",
                     "form_defect", "form_preserved", "herm_signature", "siegel_form"],
                    "matrices"),
    **dict.fromkeys(["Elliptic", "Identity", "IsoClass", "Loxodromic", "Parabolic",
                     "classify", "classify_stack", "elliptic_boundary",
                     "parabolic_subtype"], "isometry"),
    **dict.fromkeys(["CuspParams", "HeisPoint", "RS1Class", "RS1Element", "boundary_action",
                     "box_distance", "dilation_matrix", "heis_mul", "orbit_center",
                     "orbit_gap", "orbit_gap_probe", "orbit_point",
                     "orbit_point_via_matrices", "orbit_points", "rotation_matrix",
                     "rs1_classify", "rs1_probe", "translation_matrix",
                     "write_orbit_csv"], "heisenberg"),
    **dict.fromkeys(["Presentation", "Rep", "Word", "builtin_presentation",
                     "check_relations", "commutator", "load_word_list"], "words"),
    **dict.fromkeys(["Fig8Family", "build_family", "det_form_closed", "figure8_report",
                     "figure8_sweep", "parabolicity_report", "signature_sweep",
                     "trace_integrality_check"], "figure8"),
    **dict.fromkeys(["BendDataAmalgam", "BendDataHNN", "BianchiFamily",
                     "algebra_dimension", "bend_amalgam", "bend_hnn", "bianchi_family",
                     "bianchi_sweep", "centralizer", "verify_bianchi_so41",
                     "verify_bianchi_su31"], "bending"),
    **{m: m for m in ["bending", "figure8", "heisenberg", "isometry", "matrices",
                      "scalars", "tolerances", "words"]},
}

# every name defined in matrices before the split; the first row moved to exact
MATRICES = {
    "exact": ["CONJ_TRANSPOSE", "TRANSPOSE_CONJ", "GeometryError", "HermForm",
              "IndeterminateError", "Mat", "_CONVENTIONS", "_promote", "form_preserved",
              "siegel_form"],
    "matrices": ["CLUSTERING_FAILED", "EigenCluster", "EigenColumns", "EigenData",
                 "NON_FINITE", "NON_FINITE_FORM", "NOT_HERMITIAN", "Signature",
                 "UnitPowers", "chain_groups", "eigen", "eigen_columns", "eigen_stack",
                 "eye", "finite_rows", "form_defect", "form_defects", "herm_signature",
                 "hermitian_failures", "moduli", "row_means", "shifted", "signatures",
                 "unwrap"],
}


def run_fresh(script: str) -> None:
    """Run a script of assertions in a new interpreter that imports this
    package's source."""
    src = str(Path(cuspdeform.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_all_and_dir():
    assert len(TOP_LEVEL) == 79
    run_fresh(f"""
        import cuspdeform
        assert cuspdeform.__all__ == {sorted(TOP_LEVEL)!r}
        assert dir(cuspdeform) == cuspdeform.__all__
    """)


def test_import_loads_no_submodule():
    run_fresh("""
        import sys, cuspdeform
        assert not [m for m in sys.modules if m.startswith("cuspdeform.")]
    """)


def test_each_name_resolves_to_its_module_binding():
    run_fresh(f"""
        import importlib, cuspdeform
        for name, home in {TOP_LEVEL!r}.items():
            module = importlib.import_module("cuspdeform." + home)
            value = getattr(cuspdeform, name)
            assert value is (module if name == home else getattr(module, name)), name
            assert vars(cuspdeform)[name] is value, name  # kept for the next lookup
        try:
            cuspdeform.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("an unknown name resolved")
    """)


def test_exact_resolves_on_first_use():
    # a submodule outside __all__, resolved like the others
    run_fresh("""
        import sys, cuspdeform
        assert cuspdeform.exact is sys.modules["cuspdeform.exact"]
        assert "exact" not in cuspdeform.__all__
    """)


def test_star_import_binds_the_same_names():
    run_fresh(f"""
        namespace = {{}}
        exec("from cuspdeform import *", namespace)
        assert sorted(set(namespace) - {{"__builtins__"}}) == {sorted(TOP_LEVEL)!r}
    """)


def test_matrices_names_still_resolve():
    run_fresh(f"""
        from cuspdeform import exact, matrices
        for home, names in {MATRICES!r}.items():
            for name in names:
                value = getattr(matrices, name)
                assert home == "matrices" or value is getattr(exact, name), name
    """)
