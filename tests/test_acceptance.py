"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import subprocess
import sys

import numpy as np
import pytest

from amplitude_lab import (
    Functional,
    HermitianForm,
    PositiveForm,
    amplitude_sum_check,
    build_lumped_diagonal_chain,
    build_product_chain,
    diagonal_state,
    geometric_mean,
    geometric_weights,
    inequality_suite,
    is_dominated,
    kms_defect,
    make_algebra,
    purify,
    quotient_map,
    transition_amplitude,
)
from amplitude_lab.linalg import psd_sqrt
from amplitude_lab.sampling import random_psd, random_state, random_ucp, random_unitary
from amplitude_lab.selftest import (
    bridge_gap,
    chain_margin,
    commuting_mean_gap,
    foreign_flow_defect,
    product_chain_gap,
    purification_defect,
    quotient_gap,
    thermal_gap,
    ucp_gain,
)

from helpers import min_eigval, spd_mean_closed_form


def report(num, name, witness_name, witness):
    print(f"criterion {num} ({name}): PASS {witness_name}={witness:.3e}")


def test_criterion_1_main_theorem_bridge():
    rng = np.random.default_rng(101)
    algebras = [make_algebra([2]), make_algebra([3]), make_algebra([2, 2])]
    gaps = [
        bridge_gap(
            random_state(rng, algebras[i % 3], rank_deficient=(i % 2 == 0)),
            random_state(rng, algebras[i % 3], rank_deficient=(i % 4 < 2)),
        )
        for i in range(210)
    ]
    assert len(gaps) >= 200
    worst = max(gaps)
    assert worst <= 1e-8
    report(1, "main-theorem bridge", "max_entrywise_gap", worst)


def test_criterion_2_geometric_mean_oracle():
    rng = np.random.default_rng(102)
    worst_oracle = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a = random_psd(rng, d) + 0.05 * np.eye(d)
        b = random_psd(rng, d) + 0.05 * np.eye(d)
        mean = geometric_mean(PositiveForm(a), PositiveForm(b)).gram
        worst_oracle = max(worst_oracle, float(np.max(np.abs(mean - spd_mean_closed_form(a, b)))))
    assert worst_oracle <= 1e-8

    worst_commuting = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 9))
        u = random_unitary(rng, d)
        wa = rng.uniform(0.0, 3.0, d)
        worst_commuting = max(worst_commuting, commuting_mean_gap(u, wa, rng.uniform(0.0, 3.0, d)))
    assert worst_commuting <= 1e-8

    worst_defect = np.inf
    count = 0
    while count < 1000:
        d = int(rng.integers(2, 7))
        ga = random_psd(rng, d) + 0.05 * np.eye(d)
        gb = random_psd(rng, d) + 0.05 * np.eye(d)
        alpha, beta = PositiveForm(ga), PositiveForm(gb)
        mean = geometric_mean(alpha, beta)
        k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k /= max(np.linalg.norm(k, 2), 1.0)
        gamma = psd_sqrt(ga) @ k @ psd_sqrt(gb)
        gamma = 0.5 * (gamma + gamma.conj().T)
        certified = False
        for _ in range(80):
            if is_dominated(HermitianForm(gamma), alpha, beta):
                certified = True
                break
            gamma = 0.5 * gamma
        if not certified:
            continue
        count += 1
        worst_defect = min(worst_defect, min_eigval(mean.gram - gamma))
    assert worst_defect >= -1e-9
    report(2, "geometric-mean oracle", "min_domination_margin", worst_defect)


def test_criterion_3_purification_square_law():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(110):
        alg = make_algebra([2 if i % 2 == 0 else 3])
        phi = random_state(rng, alg, rank_deficient=(i % 3 == 0))
        worst = max(worst, purification_defect(phi, random_state(rng, alg)))
    assert worst <= 1e-9

    alg = make_algebra([2])
    big_a = purify(Functional(alg, (np.diag([0.75, 0.25]).astype(complex),)))
    big_b = purify(Functional(alg, (np.diag([0.5, 0.5]).astype(complex),)))
    worked = transition_amplitude(big_a, big_b)
    assert worked == pytest.approx(0.9330127018922193, abs=1e-7)
    report(3, "purification square law", "max_defect", worst)


def test_criterion_4_inequality_suites():
    rng = np.random.default_rng(104)
    dims_pool = [[2], [4], [8], [16], [2, 3], [4, 4], [1, 1, 2]]
    worst = np.inf
    checked = 0
    for i in range(1000):
        alg = make_algebra(dims_pool[i % len(dims_pool)])
        phi = random_state(rng, alg, rank_deficient=(i % 2 == 0))
        psi = random_state(rng, alg)
        worst = min(worst, inequality_suite(phi, psi).min_defect())
        checked += 1
    assert checked >= 1000
    assert worst >= -1e-9

    alg = make_algebra([2])
    rep = inequality_suite(
        Functional(alg, (np.diag([0.9, 0.1]).astype(complex),)),
        Functional(alg, (np.diag([0.5, 0.5]).astype(complex),)),
    )
    assert rep.root_difference_sq == pytest.approx(0.21115, abs=1e-5)
    assert rep.predual_distance == pytest.approx(0.8, abs=1e-5)
    upper = np.sqrt(rep.root_difference_sq) * rep.root_sum_norm
    assert upper == pytest.approx(0.89443, abs=1e-5)
    report(4, "inequality suites", "min_defect", worst)


def test_criterion_5_monotone_chains():
    # product chain of eight qubit sites, pure vs maximally mixed
    worst_closed_form = product_chain_gap(8)
    assert worst_closed_form <= 1e-9

    rng = np.random.default_rng(105)
    ambient, chain4 = build_product_chain([2] * 4)
    worst_mono = np.inf
    for _ in range(100):
        a = random_state(rng, ambient)
        worst_mono = min(worst_mono, chain_margin(a, random_state(rng, ambient), chain4))
    assert worst_mono >= -1e-9

    # the lumped chain falls to the amplitude, which is thermal_amplitude up to the tail
    lam, mu = 0.35, 0.65
    n = 200
    p, q = geometric_weights(lam, n), geometric_weights(mu, n)
    lumped = build_lumped_diagonal_chain(p, q)
    assert chain_margin(diagonal_state(p), diagonal_state(q), lumped) >= -1e-9
    gap = thermal_gap(lam, mu, n)
    assert gap <= 1e-6
    report(5, "monotone chains", "max_closed_form_gap", max(worst_closed_form, gap))


def test_criterion_6_kms_exactness():
    rng = np.random.default_rng(106)
    from amplitude_lab.sampling import random_gibbs, random_operator

    worst = 0.0
    for n in range(2, 9):
        alg = make_algebra([n])
        phi = Functional(alg, (random_gibbs(rng, n),))
        x = random_operator(rng, alg)
        y = random_operator(rng, alg)
        for t in (-2.0, -1.0, 0.0, 1.0, 2.0):
            worst = max(worst, kms_defect(phi, x, y, t))
    assert worst <= 1e-9

    assert foreign_flow_defect() >= 1e-3
    report(6, "KMS exactness", "max_gibbs_defect", worst)


def test_criterion_7_central_decomposition():
    rng = np.random.default_rng(107)
    dims_pool = [[2, 2], [3, 1], [2, 3, 2], [1, 1, 1, 1], [4, 2]]
    worst = 0.0
    states = 0
    for i in range(100):
        alg = make_algebra(dims_pool[i % len(dims_pool)])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        worst = max(worst, amplitude_sum_check(phi, psi).defect)
        values = []
        for _ in range(5):
            mu = rng.uniform(0.05, 1.0, alg.num_blocks)
            mu /= mu.sum()
            res = amplitude_sum_check(phi, psi, mu)
            worst = max(worst, res.defect)
            values.append(res.rhs)
        worst = max(worst, float(np.ptp(values)))
        states += 1
    assert states >= 100
    assert worst <= 1e-9
    report(7, "central decomposition", "max_defect", worst)


def test_criterion_8_quotient_and_ucp():
    rng = np.random.default_rng(108)
    source = make_algebra([2, 3, 2])
    image = make_algebra([3, 2])
    pi = quotient_map(source, image, (1, 0))
    worst_quotient = 0.0
    for _ in range(200):
        phi = random_state(rng, image)
        worst_quotient = max(worst_quotient, quotient_gap(pi, phi, random_state(rng, image)))
    assert worst_quotient <= 1e-9

    src = make_algebra([2, 2])
    tgt = make_algebra([3])
    worst_mono = np.inf
    for _ in range(200):
        chan = random_ucp(rng, src, tgt)
        phi = random_state(rng, tgt)
        worst_mono = min(worst_mono, ucp_gain(chan, phi, random_state(rng, tgt)))
    assert worst_mono >= -1e-9
    report(8, "quotient and UCP", "min_monotonicity_margin", worst_mono)


SELFTEST_CHECKS = [
    "psd-sqrt-roundtrip",
    "support-projection-annihilates",
    "evaluate-positive-on-squares",
    "gmean-closed-form-oracle",
    "gmean-commuting-case",
    "gmean-symmetry",
    "gmean-variational-bound",
    "amplitude-kernel-bridge",
    "interpolation-midpoint",
    "inequality-defects",
    "purification-square-law",
    "fidelity-sandwich",
    "relative-modular-root",
    "modular-conjugation",
    "kms-boundary-identity",
    "kms-foreign-flow-detected",
    "flow-invariance",
    "support-reduce-evaluation",
    "product-chain-closed-form",
    "chain-monotone",
    "ucp-pullback-monotone",
    "dephasing-example",
    "restriction-tower",
    "embedding-vs-ucp-restrict",
    "central-sum-formula",
    "integrate-decompose-roundtrip",
    "qf-reduction-invariance",
    "thermal-amplitude-limit",
    "quotient-pullback-invariance",
]


def test_criterion_9_selftest_determinism():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "amplitude_lab.cli", "selftest", "--seed", "7"],
            capture_output=True,
        )

    first = run()
    second = run()
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.decode().splitlines()
    # the battery: the check_* methods of selftest._Suite, in definition order
    assert [line.split()[2].rstrip(":") for line in lines[:-1]] == SELFTEST_CHECKS
    assert lines[-1] == f"selftest summary: PASS ({len(SELFTEST_CHECKS)} checks)"
    report(9, "selftest determinism", "bytes", float(len(first.stdout)))
