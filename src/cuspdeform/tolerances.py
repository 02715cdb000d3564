"""Every numeric threshold of the package, one name per concept.  Only
DECISION_TOL can be overridden (--tol, CUSPDEFORM_TOL, or the ``tol``
argument of the classification, sweep and report functions)."""

# default relative threshold of every class decision: ranks, unit norms,
# signatures, form invariance, nilpotent powers, the algebra span
DECISION_TOL = 1e-9
# a decision whose margin is below this factor is indeterminate (an int:
# messages print "< 10")
INDETERMINATE_FACTOR = 10
# relative radius at which computed eigenvalues first join one cluster
CLUSTER_RTOL = 1e-7
# last radius of the x10 escalation from CLUSTER_RTOL; the radii are float
# products, and the slack over 1e-3 keeps the last one whatever its rounding
CLUSTER_RTOL_CEILING = 1.1e-3
# defect a numerically built family may show in its defining relation and
# form invariance before it is a transcription bug
CONSTRUCTION_TOL = 1e-10
BOUNDARY_TOL = 1e-10  # height drift and fixed-point test of a boundary action
CHART_ESCAPE = 1e-14  # a smaller last lift coordinate has left the Heisenberg chart
POINT_TOL = 1e-10  # coordinatewise distance at which boundary points count as equal
DUP_TOL = 1e-9  # box distance at which two orbit points count as one
# float test of an exact property of an input or constructed matrix:
# hermitian, unitary, commuting, the identity
STRUCTURE_TOL = 1e-12
SWEEP_ZERO_ANGLE = 1e-12  # closer to 0, a sweep angle is the undeformed parameter
LATTICE_AT_ONE_TOL = 1e-14  # the bent su31 letter at u = 1 against the lattice letter
# a numeric law: the closed-form determinant of the form (relative error)
# and the projective pass of a numeric relation
LAW_TOL = 1e-9
NORM_FLOOR = 1e-300  # floor of a norm or singular value, so no ratio divides by 0
