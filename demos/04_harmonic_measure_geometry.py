"""Harmonic measure in a ball from chord geometry alone.

The density of harmonic measure with respect to the subtended-angle measure
at P is the metric ratio r2/(r1+r2) of the chord through each boundary point.
Consequences checked here: the double-cone cap identity, the center-of-mass
property, moment identities for the subtended-angle measure, and a star
domain where subtended angle at one point equals harmonic measure at another.
"""

import math

import numpy as np

import chordmean as cm

disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
ball = cm.BallDomain(center=(0.0, 0.0, 0.0), radius=1.0)

print("cap measures three ways at P=(0.5,0), arc through (1,0) of angle pi:")
cap = cm.arc_cap(disk, (0.5, 0.0), -math.pi / 2, math.pi / 2)
w_ratio = cm.cap_measure_ratio(disk, (0.5, 0.0), cap)
w_poisson = cm.cap_measure_poisson(disk, (0.5, 0.0), cap).value
w_exact = cm.involution_image_measure(0.5, (-math.pi / 2, math.pi / 2))
print(f"  metric-ratio edge form  : {w_ratio:.10f}")
print(f"  poisson quadrature      : {w_poisson:.10f}")
print(f"  involution closed form  : {w_exact:.10f}")

print()
print("double-cone identity w(U) + w(V) = twice one nappe's solid angle:")
for dom, p, axis in ((disk, (0.5, 0.0), (0.0, 1.0)),
                     (ball, (0.2, -0.3, 0.1), (0.6, 0.64, 0.48))):
    for half in (0.5, math.pi / 4, 1.2):
        w_sum, target, defect = cm.cone_identity_check(dom, p, axis, half)
        print(f"  dim {dom.dim}, half-angle {half:.4f}: "
              f"w_sum {w_sum:.6f} target {target:.6f} defect {defect:.1e}")

print()
print("the caps' harmonic-measure center of mass sits at P:")
for dom, p, axis in ((disk, (0.5, 0.0), (0.0, 1.0)),
                     (ball, (0.0, 0.0, 0.4), (1.0, 0.0, 0.0))):
    com, offset = cm.center_of_mass_check(dom, p, axis, math.pi / 6)
    com_str = ", ".join(f"{c:+.6f}" for c in np.asarray(com))
    print(f"  dim {dom.dim}: com ({com_str}) offset {offset:.2e}")

print()
print("subtended-angle moments match (P(0) + P(w))/2 for monomials:")
w = 0.4
for d in range(5):
    got = cm.subtended_moment(w, d)
    expected = 0.5 * ((0.0 if d else 1.0) + w ** d)
    print(f"  degree {d}: {got.real:+.10f}{got.imag:+.1e}j  expected {expected:+.10f}")

print()
print("a star domain whose subtended angle at 0 is a harmonic measure at a:")
for a in (0.1, 0.25, 0.4):
    lhs, rhs, defect = cm.star_angle_measure_check(a, (0.0, 2.1))
    print(f"  a={a}: subtended angle {lhs:.12f}, 2*pi*measure {rhs:.12f}, "
          f"defect {defect:.1e}")
