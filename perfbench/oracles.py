"""Per-job correctness oracles.

Each oracle checks a job's output against the laws the package is built
on (arc law, closed-form determinant, matrix-action oracle, exact
trichotomy, construction class), never against recorded bytes.  An
oracle returns None when the output is correct and a one-line cause
otherwise.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import jsonschema

from cuspdeform import (Angle, CuspParams, HeisPoint, RS1Element, Surd,
                        orbit_point_via_matrices, rs1_classify)
from cuspdeform.bending import cusp_surds
from cuspdeform.cli import schema_path
from cuspdeform.heisenberg import shift_point, unshift_point

from workloads import CLASSIFY_EXPECTED, INNER_ARC, Job, grid

TRANSITION_TOL = 1e-9   # pi-rational transition angles, up to rounding
RS1_EPS = 1e-2
RS1_FULL_RULE_ELEMENTS = 10000
ORBIT_HEADER = "m,n,re_z1,im_z1,re_z2,im_z2,v"

with open(schema_path()) as _fp:
    _VALIDATOR = jsonschema.Draft7Validator(json.load(_fp))


def _arc(alpha: float, exclusion: float):
    """Signature (plus, minus) the arc law dictates, None in an exclusion
    zone around +-2pi/3 and pi."""
    a = abs(math.remainder(alpha, 2 * math.pi))
    if a < INNER_ARC - exclusion:
        return (3, 1)
    if INNER_ARC + exclusion < a < math.pi - exclusion:
        return (2, 2)
    return None


def _det_law(alpha: float) -> float:
    c = math.cos(alpha)
    return -4.0 * (c + 1.0) ** 2 * (2.0 * c + 1.0) ** 3


def _is_margin(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _angle(value: float, frac: Fraction | None) -> Angle:
    return Angle.pi_times(frac) if frac is not None else Angle.radians(value)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(job: Job, rc: int, out: str) -> str | None:
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    errors = sorted(_VALIDATOR.iter_errors(report), key=lambda e: e.path)
    if errors:
        return f"report breaks the schema: {errors[0].message}"
    if "pass" not in report:
        return "report has no overall pass"
    meta = job.meta
    indeterminate = False
    if meta["family"] == "figure8":
        classes = report.get("classes") or {}
        indeterminate = "indeterminate" in classes.values()
        alpha = meta["alpha"]
        if alpha is not None:
            want = _arc(alpha, TRANSITION_TOL)
            sig = tuple(report["signature"])
            if want is None:  # a transition angle: the determinant law gives 0
                if sig[2] < 1:
                    return f"signature {report['signature']} at a transition has no null part"
            elif sig != (*want, 0):
                return f"signature {report['signature']} off the arc law {want}"
            if want == (3, 1) and not indeterminate:
                bad = {k: v for k, v in classes.items() if not v.startswith("parabolic")}
                if bad:
                    return f"peripheral images not parabolic: {bad}"
    else:
        d = meta["d"]
        orthogonal = d % 4 in (1, 2)
        if report["cusp"]["orthogonal"] != orthogonal:
            return f"cusp orthogonality {report['cusp']['orthogonal']} for d={d}"
        if (report["relations"] is not None) != (d in (2, 7, 11)):
            return "relations present for an unpresented d (or missing)"
        cls = report["classU"]
        indeterminate = cls == "indeterminate"
        if meta["target"] == "su31":
            if report["traceU"] != "3 + u":
                return f"stable-letter trace {report['traceU']!r}, law says 3 + u"
            if not (cls.startswith("parabolic") or indeterminate):
                return f"bent stable letter classified {cls}, law says parabolic"
        else:
            want = "elliptic" if orthogonal else "parabolic(ellipto-parabolic)"
            if not (cls.startswith(want) or indeterminate):
                return f"bent stable letter classified {cls}, law says {want}"
    if report["pass"]:
        return None if rc == 0 else f"exit code {rc} with pass=true"
    if indeterminate and rc == 1:
        return None
    failed = [k for k, c in report["checks"].items() if not c["pass"]]
    return f"pass=false (exit {rc}), failed checks {failed}"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def check_sweep(job: Job, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if not out.endswith("\r\n"):
        return "CSV does not end with CRLF"
    lines = out[:-2].split("\r\n")
    meta = job.meta
    points = grid(meta["start"], meta["end"], meta["count"])
    if job.kind == "sweep-figure8":
        if lines[0] != "alpha,sig_plus,sig_minus,sig_zero,class_m,class_l,det,margin":
            return f"bad header {lines[0]!r}"
        kept = [a for a in points if _arc(a, meta["exclude"]) is not None]
        if len(lines) - 1 != len(kept):
            return f"{len(lines) - 1} rows, exclusion rule keeps {len(kept)}"
        for a, line in zip(kept, lines[1:]):
            f = line.split(",")
            if len(f) != 8:
                return f"row with {len(f)} fields: {line!r}"
            alpha = float(f[0])
            if abs(alpha - a) > 1e-12:
                return f"row alpha {alpha!r} is not grid point {a!r}"
            want = _arc(alpha, 0.0)
            if (int(f[1]), int(f[2]), int(f[3])) != (*want, 0):
                return f"signature {f[1:4]} at {alpha!r} off the arc law {want}"
            law = _det_law(alpha)
            if abs(float(f[6]) - law) > 1e-9 * max(abs(law), 1.0):
                return f"det {f[6]} at {alpha!r}, closed form {law!r}"
            if want == (3, 1) and abs(alpha) > 1e-12:
                if f[4] == "indeterminate":
                    if f[5] != "indeterminate" or not _is_margin(f[7]):
                        return f"indeterminate row without a margin: {line!r}"
                elif not (f[4].startswith("parabolic") and f[5].startswith("parabolic")):
                    return f"peripheral classes {f[4:6]} at {alpha!r}, law says parabolic"
            elif f[4] or f[5]:
                return f"classes off the inner arc at {alpha!r}"
        return None
    if lines[0] != "param,class_u,margin":
        return f"bad header {lines[0]!r}"
    if len(lines) - 1 != len(points):
        return f"{len(lines) - 1} rows for a {len(points)}-point grid"
    orthogonal = meta["d"] % 4 in (1, 2)
    for a, line in zip(points, lines[1:]):
        f = line.split(",")
        if len(f) != 3 or abs(float(f[0]) - a) > 1e-12:
            return f"row {line!r} is not grid point {a!r}"
        cls = f[1]
        if cls == "indeterminate":
            if not _is_margin(f[2]):
                return f"indeterminate row without a margin: {line!r}"
            continue
        if meta["target"] == "su31" or not orthogonal:
            ok = cls.startswith("parabolic")
        else:
            ok = cls.startswith("elliptic") or cls.startswith("parabolic(unipotent")
        if not ok:
            return f"class {cls} at {a!r} breaks the {meta['target']} law (d={meta['d']})"
    return None


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------

def _box(p, q) -> float:
    dz2 = sum((x - y) ** 2 for x, y in zip(p[:4], q[:4]))
    return max(math.sqrt(dz2), math.sqrt(abs(p[4] - q[4])))


def check_orbit(job: Job, rc: int, out: str, rng: random.Random) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = out.split("\r\n")
    if lines[-1] != "":
        return "CSV does not end with CRLF"
    if lines[0] != ORBIT_HEADER:
        return f"bad header {lines[0]!r}"
    R = job.meta["radius"]
    body, tail = lines[1:-2], lines[-2]
    if len(body) != (2 * R + 1) ** 2:
        return f"{len(body)} rows, (2R+1)^2 = {(2 * R + 1) ** 2}"
    if not tail.startswith("# gap: "):
        return f"missing gap comment, last line {tail!r}"
    gap = float(tail[len("# gap: "):])
    if not (math.isfinite(gap) and gap > 0):
        return f"gap {gap!r} is not finite and positive"
    rows = {}
    for k, line in enumerate(body):
        f = line.split(",")
        m, n = int(f[0]), int(f[1])
        if (m, n) != (k // (2 * R + 1) - R, k % (2 * R + 1) - R):
            return f"row {k} is ({m},{n}), out of lexicographic order"
        rows[(m, n)] = tuple(float(x) for x in f[2:])
    keys = list(rows)
    for _ in range(300):
        p, q = rng.sample(keys, 2)
        dist = _box(rows[p], rows[q])
        if dist > 2e-9 and gap > dist * (1 + 1e-9):
            return f"gap {gap!r} exceeds the box distance {dist!r} of {p},{q}"
    if job.meta["target"] == "su31":
        a, b1, b2 = cusp_surds(job.meta["d"])
        params = CuspParams(a, b1, b2, _angle(job.meta["angle"], job.meta["angle_frac"]))
        origin = shift_point(HeisPoint.origin(2), params)
        corners = [(-R, -R), (-R, R), (R, -R), (R, R)]
        for m, n in corners + rng.sample(keys, 12):
            want = unshift_point(orbit_point_via_matrices(params, m, n, origin), params)
            w = (want.z[0].real, want.z[0].imag, want.z[1].real, want.z[1].imag, want.t)
            for got, exp in zip(rows[(m, n)], w):
                if abs(got - exp) > 1e-9 * max(1.0, abs(exp)):
                    return f"row ({m},{n}) = {rows[(m, n)]}, matrix oracle {w}"
    return None


# ---------------------------------------------------------------------------
# classify, rs1_probe
# ---------------------------------------------------------------------------

def check_classify(job: Job, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}: {out.strip()!r}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not _VALIDATOR.is_valid(doc):
        return "classify output breaks the schema"
    want = CLASSIFY_EXPECTED[job.meta["construction"]]
    if doc["class"] != want:
        return f"class {doc['class']!r}, construction is {want}"
    return None


def rs1_elements(meta: dict) -> tuple[RS1Element, RS1Element]:
    (qa, ka), (qb, kb) = meta["a"], meta["b"]
    tag, th = meta["theta"]
    theta = Angle.pi_times(th) if tag == "pi" else Angle.radians(th)
    return RS1Element(Surd(qa, ka), Angle.zero()), RS1Element(Surd(qb, kb), theta)


def check_rs1(job: Job, gap: float) -> str | None:
    """The exact trichotomy decides; the probe must agree at eps 1e-2.
    A discrete group keeps every gap >= eps at any sample size; the
    converse (non-discrete => gap < eps) is the criterion stated at
    10^4 elements, so smaller samples only get the sound direction."""
    T, U = rs1_elements(job.meta)
    verdict = rs1_classify(T, U)
    if not gap > 0:  # inf: every sampled element coincides (theta = 0 mod 2pi)
        return f"gap {gap!r} is not positive"
    if verdict.is_discrete and gap < RS1_EPS:
        return f"gap {gap!r} < eps for a discrete group ({verdict})"
    if (not verdict.is_discrete and job.meta["n_elements"] >= RS1_FULL_RULE_ELEMENTS
            and gap >= RS1_EPS):
        return f"gap {gap!r} >= eps for a non-discrete group ({verdict})"
    return None
