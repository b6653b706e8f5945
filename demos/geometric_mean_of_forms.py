"""Geometric mean of positive forms and the variational characterization.

Two positive sesquilinear forms have a canonical commuting
representation; the mean is the largest Hermitian form dominated by the
pair.  The script shows the closed-form agreement on commuting and
invertible pairs, the mean of a direct sum taken summand by summand,
Ando's certificate, the domination certificate, and the interpolation
family whose midpoint ties the mean to transition amplitudes.
"""

import numpy as np

from amplitude_lab import (
    HermitianForm,
    PositiveForm,
    geometric_mean,
    interpolated_form,
    is_dominated,
    left_form,
    make_algebra,
    psd_sqrt,
    right_form,
)
from amplitude_lab.sampling import random_psd, random_state
from amplitude_lab.selftest import ando_defect

rng = np.random.default_rng(11)

# commuting case: the mean is the entrywise square root of the product
alpha = PositiveForm(np.diag([4.0, 1.0]))
beta = PositiveForm(np.diag([1.0, 9.0]))
print("commuting diagonal pair diag(4,1), diag(1,9):")
print("  mean =", np.real(np.diag(geometric_mean(alpha, beta).gram)), "(expect [2, 3])")

# the mean against the identity form is the matrix square root
g = np.array([[2.0, 1.0], [1.0, 1.0]])
mean = geometric_mean(PositiveForm(g), PositiveForm(np.eye(2)))
print("\nmean with the identity reproduces the square root:")
print(np.real(mean.gram))
print("  max gap vs psd_sqrt:", np.max(np.abs(mean.gram - psd_sqrt(g))))

# the mean of a direct sum is the direct sum of the means: each diagonal
# block of exact zeros is its own pair, on its own scale
g = PositiveForm(np.diag([1e308, 1.0]))
print("\ndiag(1e308, 1) # itself keeps the summand 1, 308 decades below the other:")
print("  mean =", np.real(np.diag(geometric_mean(g, g).gram)), "(expect [1e308, 1])")

# Ando's certificate: M = A # B is the largest M with [[A, M], [M, B]] >= 0,
# and for a faithful A it satisfies M A^{-1} M = B
ga = random_psd(rng, 4) + 0.1 * np.eye(4)
gb = random_psd(rng, 4, rank=2)
print("\nAndo's certificate on a faithful 4x4 A and a rank-2 B:")
print("  max|M A^-1 M - B| =", ando_defect(ga, gb))

# variational characterization: dominated forms never exceed the mean
ga = random_psd(rng, 3) + 0.1 * np.eye(3)
gb = random_psd(rng, 3) + 0.1 * np.eye(3)
alpha, beta = PositiveForm(ga), PositiveForm(gb)
mean = geometric_mean(alpha, beta)
k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
k /= np.linalg.norm(k, 2)
gamma = psd_sqrt(ga) @ k @ psd_sqrt(gb)
gamma = 0.5 * (gamma + gamma.conj().T)
while not is_dominated(HermitianForm(gamma), alpha, beta):
    gamma = 0.5 * gamma
margin = np.linalg.eigvalsh(mean.gram - gamma)[0]
print("\na certified dominated Hermitian form stays below the mean:")
print(f"  min eig(mean - gamma) = {margin:+.3e}  (nonnegative)")
print("  the mean itself is dominated:", is_dominated(mean, alpha, beta))

# interpolation family between the left form of phi and the right form
# of psi; the midpoint is exactly their geometric mean
alg = make_algebra([2])
phi = random_state(rng, alg)
psi = random_state(rng, alg)
mid = interpolated_form(phi, psi, 0.5)
mean = geometric_mean(left_form(phi), right_form(psi))
print("\ninterpolation family on a random qubit pair:")
print("  t=0 gap to left form :", np.max(np.abs(interpolated_form(phi, psi, 0.0).gram - left_form(phi).gram)))
print("  t=1 gap to right form:", np.max(np.abs(interpolated_form(phi, psi, 1.0).gram - right_form(psi).gram)))
print("  t=1/2 gap to mean    :", np.max(np.abs(mid.gram - mean.gram)))
