"""Modular operators, modular flow, and the KMS boundary identity.

A faithful state on a matrix block generates a flow x -> D^{it} x D^{-it}.
The state satisfies the boundary identity of its own flow exactly; a
state rotated against the flow generator does not, and the defect is a
clean numeric witness.
"""

import numpy as np

from amplitude_lab import (
    BlockOperator,
    Functional,
    evaluate,
    kms_defect,
    make_algebra,
    modular_conjugation,
    modular_flow,
    relative_modular,
    sqrt_vector,
)
from amplitude_lab.sampling import random_gibbs, random_operator

rng = np.random.default_rng(23)
alg = make_algebra([3])
phi = Functional(alg, (random_gibbs(rng, 3),))

# the square root of the relative modular operator at equal arguments
delta_half = relative_modular(phi, phi, 0.5)
x = random_operator(rng, alg)
root = sqrt_vector(phi)
lhs = delta_half.apply(x @ root)
rhs = root @ x
print("Delta^(1/2) maps x phi^(1/2) to phi^(1/2) x:")
print("  max gap =", (lhs - rhs).norm())

# modular conjugation is the antilinear adjoint map; J Delta^(1/2) = S
j = modular_conjugation(phi)
s_op = j.compose(delta_half)
print("S = J Delta^(1/2) maps x phi^(1/2) to x* phi^(1/2):")
print("  max gap =", (s_op.apply(x @ root) - x.adjoint() @ root).norm())

# the flow leaves its generating state invariant
y = random_operator(rng, alg)
print("\nflow invariance |phi(sigma_t(y)) - phi(y)| over a t grid:")
for t in (-2.0, -0.5, 1.0):
    gap = abs(evaluate(phi, modular_flow(phi, t, y)) - evaluate(phi, y))
    print(f"  t = {t:+.1f}: {gap:.3e}")

# boundary identity: exact for the state's own flow
print("\nKMS boundary defect of phi under its own flow:")
for t in (-2.0, 0.0, 2.0):
    print(f"  t = {t:+.1f}: {kms_defect(phi, x, y, t):.3e}")

# a foreign flow is detected: rotate the same spectrum by pi/8
alg2 = make_algebra([2])
flow = Functional(alg2, (np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex),))
th = np.pi / 8.0
u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
omega = Functional(alg2, (u @ flow.densities[0] @ u.conj().T,))
e01 = BlockOperator(alg2, (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),))
defect = kms_defect(omega, e01, e01.adjoint(), 0.0, flow=flow)
print("\nsame spectrum rotated by pi/8 against the original flow:")
print(f"  boundary defect = {defect:.6f}   (zero only for the flow's own state)")
