"""Max-plus spectral theory: cycle means, critical graph, Collatz-Wielandt.

Run:  python demos/03_spectral_theory.py
"""

from fractions import Fraction
from itertools import permutations

from tropkit.spectral import (
    collatz_wielandt_certificate,
    max_cycle_mean,
    spectral_analysis,
)
from tropkit.tropmat import matrix


def simple_cycles(a):
    """Every simple cycle, listed from its smallest node, with its mean weight.

    Exponential in the size; Howard's policy iteration finds the best mean without it.
    """
    n = a.rows
    for k in range(1, n + 1):
        for nodes in permutations(range(n), k):
            edges = [a[nodes[t], nodes[(t + 1) % k]] for t in range(k)]
            if nodes[0] == min(nodes) and all(e.is_finite for e in edges):
                yield nodes, Fraction(sum(e.value for e in edges), k)


a = matrix([["-inf", 2], [0, "-inf"]])
print("A =", a)
print("all simple cycles and their means:", list(simple_cycles(a)))
print("eigenvalue (policy iteration) =", max_cycle_mean(a))

res = spectral_analysis(a)
print()
print("critical nodes:", sorted(res.critical_nodes))
print("critical edges:", sorted(res.critical_edges))
print("critical classes:", [sorted(c) for c in res.critical_classes])
print("eigenvector generator per class:", list(res.eigenvectors))
v = res.eigenvectors[0]
print("exact check A v = lambda v:", a.apply(v) == v.scale(res.eigenvalue))

print()
print("a reducible example: only the best self-loop is critical")
b = matrix([[0, "-inf"], ["-inf", -1]])
res_b = spectral_analysis(b)
print("B =", b, " -> eigenvalue", res_b.eigenvalue, ", critical nodes", sorted(res_b.critical_nodes))

print()
print("the Collatz-Wielandt number: inf over finite u of max_i (A u - u)_i;")
print("for a linear map it equals the cycle-mean eigenvalue, certified by a")
print("finite super-eigenvector that attains the infimum")
lam, u = collatz_wielandt_certificate(a)
print("value =", lam, ", witness u =", u)
au = a.apply(u)
print("coordinatewise (A u - u):", [repr(au[i].value - u[i].value) for i in range(2)])
