"""The biharmonic extension of the chord method.

Replace the linear interpolant along each chord with the cubic Hermite
interpolant of boundary values and directional derivatives; the average over
directions solves the biharmonic boundary value problem in a ball.  The key
structural fact: the Hermite cubic of t^m evaluated at 0 factors as (ab)^2
times a symmetric polynomial of the chord roots.
"""

import numpy as np

import chordmean as cm

print("C_m(0) = (ab)^2 q(a, b) for the data t^m on the bracket a < 0 < b:")
print(f"{'m':>3} {'a':>7} {'b':>6} {'C_m(0)':>16} {'q':>14}")
for m in (4, 5, 6, 8):
    for a, b in [(-0.5, 1.5), (-1.0, 1.0), (-0.25, 0.75)]:
        c0, q = cm.hermite_monomial_at_zero(m, a, b)
        print(f"{m:>3} {a:>7.2f} {b:>6.2f} {c0:>16.10f} {q:>14.8f}")

print()
print("solving the biharmonic problem on the unit disk:")
disk = cm.BallDomain(center=(0.0, 0.0), radius=1.0)
dq = cm.build_direction_quadrature(2, "uniform_angle_2d", 4096)

# u = (|x|^2 - 1) x vanishes on the circle but has a nonzero normal derivative
u = cm.almansi_assemble(cm.HarmonicPolynomial.zero(2), cm.harmonic_poly(2, 1, "re"))
data = u.boundary_data()
for p in [(0.3, 0.0), (0.0, 0.5), (-0.4, 0.2)]:
    res = cm.solve_biharmonic(disk, data, p, dq)
    print(f"  u = (|x|^2-1)x at {str(p):>12}: value {res.value:>18.12f} "
          f"exact {res.oracle_value:>18.12f} residual {res.residual:.2e}")

print()
print("cubic boundary data is reproduced identically (cubics are fixed points):")
def cubic(pts):
    return np.asarray(pts, dtype=float)[..., 0] ** 3
def cubic_grad(pts):
    pts = np.asarray(pts, dtype=float)
    g = np.zeros(pts.shape)
    g[..., 0] = 3.0 * pts[..., 0] ** 2
    return g
data = cm.BoundaryData(cubic, cubic_grad, exact_solution=cubic)
res = cm.solve_biharmonic(disk, data, (0.2, 0.0), dq)
print(f"  f = x^3 at (0.2, 0): value {res.value:.15f} (exact 0.008), "
      f"residual {res.residual:.2e}")

print()
print("harmonic data with its gradient reduces to the harmonic solver:")
data = cm.harmonic_poly(2, 4, "im").boundary_data()
p = (0.25, -0.4)
bi = cm.solve_biharmonic(disk, data, p, dq).value
harm = cm.solve_harmonic(disk, data, p, dq).value
print(f"  biharmonic route {bi:.15f} vs harmonic route {harm:.15f}")
