"""Batch command-line front end.

Subcommands:

* ``verify``   -- run a family's verification suite, emit a JSON report
* ``sweep``    -- signature / classification table across a parameter grid (CSV)
* ``orbit``    -- boundary-orbit point cloud of a deformed cusp group (CSV)
* ``classify`` -- ad-hoc isometry classification of a matrix from a JSON file

Exit codes: 0 every check passed, 1 some check failed, 2 usage error.
Identical invocations produce byte-identical output.  Angles are
accepted as rational multiples of pi (``2/3pi``, ``-pi``, ``1/2pi``) or
raw radians (``0.85``); a negative value may follow its option after a
space (``--alpha -1/2pi``) or an ``=``.  The default tolerance 1e-9 can
be overridden with --tol or the CUSPDEFORM_TOL environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from importlib import resources

import numpy as np

from .bending import (bianchi_family, bianchi_sweep, cusp_surds,
                      validate_bianchi_d, verify_bianchi_so41, verify_bianchi_su31)
from .figure8 import figure8_report, figure8_sweep
from .heisenberg import (CuspParams, HeisPoint, MAX_ORBIT_RADIUS, bent_cusp_U,
                         cusp_translation_T, orbit_gap, orbit_points,
                         write_orbit_csv)
from .isometry import classify
from .matrices import (CONJ_TRANSPOSE, GeometryError, HermForm,
                       IndeterminateError, siegel_form)
from .scalars import Angle
from .words import load_word_list


def _parse_fraction(text: str) -> Fraction:
    """An exact rational such as ``3/4``; a zero denominator is a
    ValueError like any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_angle(text: str) -> Angle:
    """``2/3pi`` / ``pi`` / ``-1/2pi`` (exact) or plain radians."""
    t = text.strip().lower().replace(" ", "")
    if t.endswith("pi"):
        head = t[:-2].rstrip("*")
        if head in ("", "+"):
            return Angle.pi_times(1)
        if head == "-":
            return Angle.pi_times(-1)
        return Angle.pi_times(_parse_fraction(head))
    return Angle.radians(float(t))


def _parse_tol(text: str) -> float:
    """A tolerance: a finite positive number."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text!r}")
    return tol


def _default_tol(env: str | None) -> float:
    """The --tol default from the raw CUSPDEFORM_TOL value."""
    if not env:
        return 1e-9
    try:
        return _parse_tol(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CUSPDEFORM_TOL: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def schema_path() -> str:
    return str(resources.files("cuspdeform").joinpath("schemas/report.schema.json"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    tol = args.tol
    if args.family == "figure8":
        alpha = parse_angle(args.alpha) if args.alpha else None
        if args.u_exact:
            alpha = None
        extra = []
        if args.words:
            with open(args.words) as fp:
                extra = load_word_list(fp)
        report = figure8_report(alpha, extra_words=extra, tol=tol)
        ok = all(c["pass"] for c in report["checks"].values())
        report["pass"] = ok
    else:
        try:
            validate_bianchi_d(args.d)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        if args.target == "su31":
            alpha = parse_angle(args.alpha) if args.alpha and not args.u_exact else None
            report = verify_bianchi_su31(args.d, alpha, tol=tol)
        else:
            if not args.theta:
                print("usage error: so41 verification needs --theta", file=sys.stderr)
                return 2
            pyth = _parse_fraction(args.pythagorean) if args.pythagorean else Fraction(1, 2)
            report = verify_bianchi_so41(args.d, parse_angle(args.theta),
                                         pythagorean=pyth, tol=tol)
        ok = report["pass"]
    _emit(_json_text(report), args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _csv_lines(header: str, rows: list[str]) -> str:
    return "\r\n".join([header] + rows) + "\r\n"


def _margin_cell(margin: float | None) -> str:
    return "" if margin is None else repr(margin)


def cmd_sweep(args) -> int:
    tol = args.tol
    if args.count < 1:
        print("usage error: --count must be >= 1", file=sys.stderr)
        return 2
    if args.count == 1:
        grid = [0.5 * (args.start + args.end)]
    else:
        step = (args.end - args.start) / (args.count - 1)
        grid = [args.start + k * step for k in range(args.count)]

    if args.family == "figure8":
        header = "alpha,sig_plus,sig_minus,sig_zero,class_m,class_l,det,margin"
        sweep = figure8_sweep(grid, args.exclude_radius, tol=tol)
        rows = [f"{r.alpha!r},{r.signature.plus},{r.signature.minus},"
                f"{r.signature.zero},{','.join(r.classes or ('', ''))},"
                f"{r.det_value!r},{_margin_cell(r.margin)}" for r in sweep]
        failures = sum(not r.on_arc for r in sweep)
    else:
        try:
            validate_bianchi_d(args.d)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        header = "param,class_u,margin"
        rows = [f"{r.param!r},{r.class_u},{_margin_cell(r.margin)}"
                for r in bianchi_sweep(args.d, args.target, grid, tol=tol)]
        failures = 0
    _emit(_csv_lines(header, rows), args.output)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def cmd_orbit(args) -> int:
    try:
        validate_bianchi_d(args.d)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if not 0 <= args.radius <= MAX_ORBIT_RADIUS:
        print(f"usage error: --radius must be in [0, {MAX_ORBIT_RADIUS}]",
              file=sys.stderr)
        return 2
    if args.target == "su31":
        if not args.alpha:
            print("usage error: su31 orbit needs --alpha", file=sys.stderr)
            return 2
        params = CuspParams(*cusp_surds(args.d), parse_angle(args.alpha))
        gT = cusp_translation_T(params)
        gU = bent_cusp_U(params)
        p0 = HeisPoint.origin(2)
    else:
        if not args.theta:
            print("usage error: so41 orbit needs --theta", file=sys.stderr)
            return 2
        fam = bianchi_family(args.d, "so41", theta=parse_angle(args.theta))
        gT = np.asarray(fam.images["t"], dtype=complex)
        gU = np.asarray(fam.images["u"], dtype=complex)
        p0 = HeisPoint.origin(3)
    pts = orbit_points(gT, gU, p0, args.radius)
    gap = orbit_gap(pts) if len(pts) > 1 else None

    import io
    buf = io.StringIO()
    write_orbit_csv(buf, pts, gap=gap)
    _emit(buf.getvalue(), args.output)
    return 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _entries_to_array(entries) -> np.ndarray:
    def conv(e):
        if isinstance(e, (list, tuple)):
            return complex(e[0], e[1])
        return complex(e)
    return np.array([[conv(e) for e in row] for row in entries], dtype=complex)


def _load_matrix_doc(path: str) -> dict:
    with open(path) as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'entries'")
    return doc


def cmd_classify(args) -> int:
    A = _entries_to_array(_load_matrix_doc(args.matrix)["entries"])
    if args.form:
        form_doc = _load_matrix_doc(args.form)
        form = HermForm(_entries_to_array(form_doc["entries"]),
                        form_doc.get("convention", CONJ_TRANSPOSE))
    else:
        form = siegel_form(A.shape[0], CONJ_TRANSPOSE)
    try:
        cls = classify(A, form, tol=args.tol)
        _emit(_json_text({"class": str(cls), "error": None}), args.output)
        return 0
    except (GeometryError, IndeterminateError) as exc:
        _emit(_json_text({"class": None, "error": str(exc)}), args.output)
        return 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as -1e-6, -1/2pi or -pi
    as a value, not an option (argparse itself knows only -1 and -1.5)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|pi$)", re.IGNORECASE)


def make_parser() -> argparse.ArgumentParser:
    """The argument parser.  CUSPDEFORM_TOL sets the --tol default, so it
    is read on every call (a malformed value raises ValueError); the tree
    itself is built once per value."""
    return _build_parser(os.environ.get("CUSPDEFORM_TOL"))


@functools.lru_cache(maxsize=8)
def _build_parser(env: str | None) -> argparse.ArgumentParser:
    tol = _default_tol(env)
    parser = _Parser(
        prog="cuspdeform",
        description="verification suites for cusped-lattice deformation families")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite (JSON report)")
    pv.add_argument("family", choices=["figure8", "bianchi"])
    pv.add_argument("--alpha", help="deformation angle (su31 families)")
    pv.add_argument("--theta", help="bending angle (so41 families)")
    pv.add_argument("--u-exact", action="store_true",
                    help="keep the parameter symbolic (exact checks only)")
    pv.add_argument("--pythagorean", metavar="S",
                    help="exact rational slope for so41 rotation checks")
    pv.add_argument("--d", type=int, default=2, help="Bianchi discriminant tag")
    pv.add_argument("--target", choices=["su31", "so41"], default="su31")
    pv.add_argument("--words", help="extra trace words, word-list file")
    pv.add_argument("--tol", type=_parse_tol, default=tol)
    pv.add_argument("--output", help="write the report here instead of stdout")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="parameter sweep (CSV)")
    ps.add_argument("family", choices=["figure8", "bianchi"])
    ps.add_argument("--start", type=float, required=True)
    ps.add_argument("--end", type=float, required=True)
    ps.add_argument("--count", type=int, required=True)
    ps.add_argument("--exclude-radius", type=float, default=0.01,
                    help="skip grid points this close to signature transitions")
    ps.add_argument("--d", type=int, default=2)
    ps.add_argument("--target", choices=["su31", "so41"], default="su31")
    ps.add_argument("--tol", type=_parse_tol, default=tol)
    ps.add_argument("--output")
    ps.set_defaults(func=cmd_sweep)

    po = sub.add_parser("orbit", help="deformed cusp orbit dump (CSV)")
    po.add_argument("--d", type=int, default=2)
    po.add_argument("--target", choices=["su31", "so41"], default="su31")
    po.add_argument("--alpha", help="deformation angle (su31)")
    po.add_argument("--theta", help="bending angle (so41)")
    po.add_argument("--radius", type=int, default=20, help="word radius R")
    po.add_argument("--output")
    po.set_defaults(func=cmd_orbit)

    pc = sub.add_parser("classify", help="classify a matrix from a JSON file")
    pc.add_argument("--matrix", required=True, help="JSON file with 'entries'")
    pc.add_argument("--form", help="JSON file with the form (default: Siegel)")
    pc.add_argument("--tol", type=_parse_tol, default=tol)
    pc.add_argument("--output")
    pc.set_defaults(func=cmd_classify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = make_parser()
    except ValueError as exc:  # a malformed CUSPDEFORM_TOL
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (GeometryError, ValueError, OSError) as exc:  # OSError: an input or output path
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
