"""Degree-one homogeneous min-plus traffic dynamics: exclusion process,
event-graph road, crossing phases, tent-map chaos, traffic lights.

Run:  python demos/09_traffic_dynamics.py   (takes a few seconds)
"""

from decimal import Context
from fractions import Fraction

from tropkit.dynamics import (
    RingWord,
    crossing_builder,
    exclusion_run,
    four_phase_product,
    fundamental_diagram,
    hom_iterate,
    light_gate_marking,
    road_event_graph,
    t1h_simulate,
    tent_system,
    tent_trajectory,
    eigen_reduce,
    traffic_light_system,
)
from tropkit.spectral import max_cycle_mean

print("exclusion process, rule 10 -> 01 on a ring:")
traj, flows = exclusion_run(RingWord.from_string("1101001001"), 4)
for w in traj:
    print("  ", w)

print()
print("the same road as a min-plus linear event graph; its eigenvalue is the")
print("flow min(density, 1 - density, 1/2)")
f = road_event_graph([1, 0, 0, 0])
print("  m=4, one car:  eigenvalue =", max_cycle_mean(f.linear_matrix()))
_, lam = hom_iterate(f, [0, 0, 0, 0], 64)
print("  measured counter growth:", lam)

print()
print("two 10-cell roads through one crossing with right priority: the")
print("fundamental diagram has three phases (free, saturated at 1/4, jam)")
build = crossing_builder(10, "priority")
dens = [Fraction(p, 100) for p in (10, 20, 30, 40, 55, 70)]
for rho, q in fundamental_diagram(build, dens, steps=1500):
    shown = Context(prec=6).divide(q.numerator, q.denominator) if q is not None else None
    print(f"  rho = {str(rho):>5}:  q = {shown:.6g}")

print()
print("the eigenproblem of the chaotic 2-d system reduces to the tent map")
red = eigen_reduce(tent_system())
print("  g(y) samples:", [(str(Fraction(k, 4)), str(red.g([Fraction(k, 4)])[0])) for k in range(5)])
print("  fixed points 0 and 2/3 are exactly fixed:",
      red.is_fixed_point([Fraction(0)]), red.is_fixed_point([Fraction(2, 3)]))
orbit, hist = tent_trajectory(Fraction(1, 5), 12, bins=None)
print("  exact orbit of 1/5:", [str(v) for v in orbit[:6]], "... (eventually the 2-cycle 2/5, 4/5)")

print()
print("traffic light as a triangular one-homogeneous system: the light layer")
print("is min-plus linear and cycles through four phases")
sys = traffic_light_system(5, 5, [0, 2], [1, 3])
u_traj, x_traj, report, rates = t1h_simulate(sys, 600)
print("  gate markings (a0, b0):", [tuple(map(str, light_gate_marking(sys, u))) for u in u_traj[:4]])
print("  u-orbit periodic with period", report.period, "and gain", [str(g) for g in report.gain])
lam_v = max_cycle_mean(four_phase_product(sys, "vertical", 5)).value
print("  vertical road flow:", rates[0], " = lambda/4 =", Fraction(lam_v, 4))
