"""Tour of the Bianchi bending families.

The one-cusped Bianchi lattices (d = 2, 7, 11) embed in the Siegel
model of SO(3,1) with the modular subgroup <a, t> on a totally geodesic
plane.  Bending composes the extra cusp translation u (the stable
letter of the HNN splitting along the modular surface) with the
one-parameter centralizer of <a, t>:

* into SU(3,1): Diag(1, 1, u, 1) with u on the unit circle --
  relations hold exactly at symbolic u, the bent generator stays
  parabolic (ellipto-parabolic), and orthogonal cusps (d = 1, 2 mod 4)
  keep their boundary orbits discrete;
* into SO(4,1): the rotation R_34(theta) -- the bent generator goes
  elliptic (orthogonal cusps) or ellipto-parabolic with a non-discrete
  cusp image (non-orthogonal), so no deformation there is strongly
  parabolic-preserving away from theta in {0, pi}.

Run:  python demos/bianchi_bending_tour.py
"""

from cuspdeform import (Angle, bianchi_family, verify_bianchi_so41,
                        verify_bianchi_su31)
from cuspdeform.words import check_relations

print("=" * 72)
print("Bending Bi(d) along the modular surface")
print("=" * 72)

for d in (2, 7, 11):
    fam = bianchi_family(d, "su31")
    res = check_relations(fam.rep(), fam.presentation)
    verdicts = ", ".join(f"{r.relator}:{'ok' if r.exact else 'FAIL'}"
                         for r in res)
    print(f"\nBi({d}) -> SU(3,1), symbolic u")
    print(f"  relators exact: {verdicts}")
    print(f"  trace of bent generator: {fam.images['u'].trace()}")

print("\nfull SU(3,1) verification reports:")
for d in (2, 7, 11):
    rep = verify_bianchi_su31(d, Angle.pi_fraction(1, 3))
    cusp = rep["cusp"]
    print(f"  d={d:2d}: pass={rep['pass']}, class(U)={rep['classU']},"
          f" algebra dim={rep['algebraDim']},")
    print(f"        cusp b1={cusp['b1']:+.4f} -> {cusp['verdict']}")

print("\nthe same bending into SO(4,1) behaves differently:")
for d, theta in [(2, Angle.pi_fraction(1, 3)), (7, Angle.radians(1.0)),
                 (7, Angle.pi_fraction(1, 2)), (2, Angle.zero())]:
    rep = verify_bianchi_so41(d, theta)
    label = (f"{theta.pi_frac}*pi" if theta.is_pi_rational
             else f"{theta.raw} rad")
    print(f"  d={d}, theta={label:<9}: class(U)={rep['classU']:<32}"
          f" cusp: {rep['cusp']['verdict']}")

print("\nexact SO(4,1) checks hold at symbolic u = e^(i theta), so for")
print("every theta at once:")
for d in (2, 7, 11):
    fam = bianchi_family(d, "so41")
    res = check_relations(fam.rep(), fam.presentation)
    print(f"  Bi({d}) -> SO(4,1): {len(res)} relators, all exact:",
          all(r.exact for r in res))

print("\nfamilies exist for every squarefree d >= 2 except 3; without a")
print("shipped presentation the relation check is skipped but form,")
print("trace and classification checks still run, e.g. d = 5:")
rep = verify_bianchi_su31(5, Angle.pi_fraction(1, 4))
print(f"  d=5: pass={rep['pass']}, relations checked: {rep['relations']},"
      f" class(U)={rep['classU']}")
