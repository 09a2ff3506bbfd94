"""From a half-flat structure to a complete seven-dimensional metric.

The evolution moves a cubic along a straight line; the discriminant is
the clock.  Starting at the triple-root boundary of the symmetric
direction produces the complete metric on the rank-four bundle; the
collapsing double-root direction ends at the flat metric.  Closedness of
the pair (phi, star phi) is the numerical witness of the construction.
"""

import numpy as np

from so3g2.binaryform import BinaryForm, discriminant
from so3g2.flow import (
    clock_detg,
    flow_torsion_cubic,
    integrate_line,
    integrate_time_grid,
    time_integral,
)
from so3g2.g2 import (
    assemble_g2,
    bs_metric,
    case2_family,
    case3_family,
    check_closedness,
    frame_metric6,
    ricci7,
    smoothness_check,
    smoothness_obstruction,
)
from so3g2.variety import ModelPoint, structure_constants

LAM = 1.0

print("=== the line and its clock ===")
m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0])
d = structure_constants(m)
p = flow_torsion_cubic(d)
print(f"torsion direction p = {p}")
q_b = BinaryForm(3, [LAM, 0.0, 0.0, 0.0])
for s in (0.5, 1.0, 2.0, 4.0):
    disc = float(discriminant(BinaryForm(3, [LAM + s, 0.0, -s, 0.0])))
    print(f"s={s:4.1f}: Delta = {disc:9.4f}, "
          f"det g = {clock_detg(disc):.6f}, t = {time_integral(q_b, p, 0.0, s):.6f}")
print("the t-integral grows without bound: the complete end is at infinite time")

print()
print("=== closedness of the seven-dimensional structure ===")
h = 1e-3
t0 = time_integral(q_b, p, 0.0, 0.5)
tg = t0 + np.arange(0.0, 0.05 + h / 2, h)
traj = integrate_time_grid(p, q_b, 0.5, tg)
samples = assemble_g2(traj)
dphi, dstar = check_closedness(samples, d)
print(f"max |d phi| = {dphi:.2e}, max |d star phi| = {dstar:.2e} (step {h})")

print()
print("=== the complete metric family ===")
svals = np.array([0.25, 1.0, 2.25])
traj = integrate_line(p, q_b, svals)
print("  s     flow base   flow fibre   closed base  closed fibre(7d)")
for s, g in zip(svals, traj.frames):
    ev = np.sort(np.linalg.eigvalsh(frame_metric6(g)[:2, :2]))
    z = np.sqrt(s)
    m7 = bs_metric(LAM, z)
    print(f"{s:5.2f}  {ev[1]:.8f}  {ev[0]:.8f}   {m7[0, 0]:.8f}  {m7[3, 3]:.8f}")
print("(the 7d fibre coefficient is 4 fib / z^2 in the flat chart over z = sqrt(s))")

print()
print("=== Ricci of the complete family, down to the collapsed orbit ===")
for z in (0.01, 0.5, 1.0, 2.0):
    r = np.max(np.abs(ricci7(case3_family(LAM), d, z)))
    print(f"z={z}: max |Ric| = {r:.2e}")

print()
print("=== smoothness across the collapsed orbit ===")
for lam in (0.5, 1.0, 2.0):
    print(f"symmetric family lam={lam}: smooth = {smoothness_check(case3_family(lam))}")
for lam in (1.0 / 3.0, 1.0):
    fam = case2_family(lam)
    print(f"double-root family lam={lam:.4f}: smooth = {smoothness_check(fam)}, "
          f"obstruction = {smoothness_obstruction(fam):+.6f}")
