"""Max-plus matrices: product, residuation, Kleene star, interval star.

Run:  python demos/02_matrices_and_star.py
"""

from tropkit.errors import Divergent
from tropkit.tropmat import (
    interval_matrix,
    iv_kleene_star,
    kleene_star,
    mat_mul,
    mat_residual_left,
    matrix,
    vector,
)

a = matrix([[0, 3], [2, 1]])
print("A =", a)
print("A * [[0],[0]] =", mat_mul(a, matrix([[0], [0]])), " (row maxima)")

print()
print("left residuation V \\ x: the greatest lam with V lam <= x")
v = matrix([[0], [0]])
print("  V = two stacked zeros, x = (1,3):  V\\x =", mat_residual_left(v, vector([1, 3])))
print("  check: V (V\\x) =", v.apply(mat_residual_left(v, vector([1, 3]))), "<= (1, 3)")

print()
print("Kleene star A* = I + A + A^2 + ... collects optimal path weights;")
print("it exists exactly when no cycle of A is positive")
m = matrix([[-1, -3], [-2, -1]])
st = kleene_star(m)
print("  A  =", m)
print("  A* =", st)
print("  A* is multiplicatively idempotent:", mat_mul(st, st) == st)
try:
    kleene_star(matrix([[1]]))
except Divergent as exc:
    print("  star of [[1]] -> Divergent:", exc)

print()
print("interval star: run the algorithm on both endpoint matrices; isotonicity")
print("makes the result the exact interval hull of all stars in the box")
lo = matrix([["-inf", "-inf"], ["-inf", "-inf"]])
ivm = interval_matrix(lo, m)
st_iv = iv_kleene_star(ivm)
print("  lo endpoint star =", st_iv.lo)
print("  hi endpoint star =", st_iv.hi)
