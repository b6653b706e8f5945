import json
import os
import subprocess
import sys

import numpy as np
import pytest

from amplitude_lab import Functional, make_algebra
from amplitude_lab import serialize as ser
from amplitude_lab.restriction import MAX_CHAIN_DIM
from amplitude_lab.sampling import random_state


def run_cli(*args, env=None):
    """Run ``amplab`` in a child process.

    The child inherits this process's environment (so it imports the
    package the same way the tests do, e.g. through PYTHONPATH); ``env``
    holds variables to set on top of it.
    """
    return subprocess.run(
        [sys.executable, "-m", "amplitude_lab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )


def write_functional(path, phi):
    path.write_text(ser.dumps(ser.functional_to_json(phi)))
    return str(path)


@pytest.fixture
def qubit_pair(tmp_path):
    alg = make_algebra([2])
    phi = Functional(alg, (np.diag([1.0, 0.0]).astype(complex),))
    psi = Functional(alg, (np.eye(2, dtype=complex) / 2,))
    a = write_functional(tmp_path / "a.json", phi)
    b = write_functional(tmp_path / "b.json", psi)
    return a, b


class TestScalarCommands:
    def test_amp(self, qubit_pair):
        res = run_cli("amp", *qubit_pair)
        assert res.returncode == 0
        assert json.loads(res.stdout) == {"amplitude": 0.707106781}

    def test_amp_csv(self, qubit_pair):
        res = run_cli("amp", "--csv", *qubit_pair)
        assert res.returncode == 0
        assert res.stdout.strip() == "amplitude,0.707106781"

    def test_fidelity(self, qubit_pair):
        res = run_cli("fidelity", *qubit_pair)
        assert res.returncode == 0
        assert json.loads(res.stdout)["fidelity"] == pytest.approx(0.5)

    def test_ineq(self, qubit_pair):
        res = run_cli("ineq", *qubit_pair)
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["amplitude"] == pytest.approx(0.707106781)
        assert rep["lower_defect"] >= -1e-9
        assert rep["concavity_min_eig"] >= -1e-9


class TestPurifyAndGmean:
    def test_purify_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        phi = random_state(rng, make_algebra([2]))
        path = write_functional(tmp_path / "phi.json", phi)
        res = run_cli("purify", path)
        assert res.returncode == 0
        big = ser.functional_from_json(json.loads(res.stdout))
        assert big.algebra.block_dims == (4,)
        assert big.mass == pytest.approx(1.0, abs=1e-7)

    def test_gmean(self, tmp_path):
        from amplitude_lab import PositiveForm

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(ser.dumps(ser.form_to_json(PositiveForm(np.diag([4.0, 1.0])))))
        b.write_text(ser.dumps(ser.form_to_json(PositiveForm(np.diag([1.0, 9.0])))))
        res = run_cli("gmean", str(a), str(b))
        assert res.returncode == 0
        mean = ser.form_from_json(json.loads(res.stdout))
        assert np.allclose(mean.gram, np.diag([2.0, 3.0]))


class TestChain:
    def test_product_chain_csv(self):
        res = run_cli("chain", "--product-chain", "6", "--site-a", "pure0", "--site-b", "mixed")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "n,a_n,defect"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(values, 2.0 ** (-0.5 * np.arange(1, 7)), atol=1e-9)

    def test_lumped_chain(self):
        res = run_cli("chain", "--lumped", "50", "--lambda", "0.25", "--mu", "0.5")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(0.9472900419, abs=1e-6)

    def test_chain_spec_file(self, tmp_path):
        rng = np.random.default_rng(1)
        alg = make_algebra([4])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        spec = {
            "phi": ser.functional_to_json(phi),
            "psi": ser.functional_to_json(psi),
            "chain": {
                "algebras": [{"blocks": [2]}, {"blocks": [4]}],
                "links": [
                    {
                        "source": {"blocks": [2]},
                        "target": {"blocks": [4]},
                        "multiplicity": [[2]],
                    }
                ],
                "final": {
                    "source": {"blocks": [4]},
                    "target": {"blocks": [4]},
                    "multiplicity": [[1]],
                },
            },
        }
        path = tmp_path / "spec.json"
        path.write_text(ser.dumps(spec))
        res = run_cli("chain", str(path))
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 3
        a1, a2 = (float(line.split(",")[1]) for line in lines[1:])
        assert a1 >= a2 - 1e-9

    def test_product_chain_rows(self):
        res = run_cli("chain", "--product-chain", "4", "--site-a", "plus", "--site-b", "mixed")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "n,a_n,defect"
        assert len(lines) == 5  # header and four chain points
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(values, 2.0 ** (-0.5 * np.arange(1, 5)), atol=1e-9)
        assert lines[-1].endswith(",")

    @pytest.mark.parametrize("args", [("11",), ("20", "--max-dim", "20")])
    def test_product_chain_is_capped_by_dimension(self, args):
        # 2**11 and 2**20 exceed the 1024 cap on the ambient dimension
        res = run_cli("chain", "--product-chain", *args)
        assert res.returncode == 6, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "TooLarge"

    @pytest.mark.parametrize("n", [MAX_CHAIN_DIM + 1, 10**9])
    def test_lumped_chain_is_capped(self, n):
        # refused before the weight vectors are allocated
        res = run_cli("chain", "--lumped", str(n))
        assert res.returncode == 6, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "TooLarge"


class TestDecomposeAndKms:
    def test_decompose_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        alg = make_algebra([2, 2])
        phi = random_state(rng, alg)
        psi = random_state(rng, alg)
        a = write_functional(tmp_path / "a.json", phi)
        b = write_functional(tmp_path / "b.json", psi)
        res = run_cli("decompose", a, b)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "block,weight,component_amplitude"
        assert lines[3] == "lhs,rhs,defect"
        defect = float(lines[4].split(",")[2])
        assert defect <= 1e-9

    def test_kms_check(self, tmp_path):
        alg = make_algebra([2])
        phi = Functional(alg, (np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex),))
        path = write_functional(tmp_path / "gibbs.json", phi)
        res = run_cli("kms-check", path, "--times=-2,-1,0,1,2", "--seed", "3")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["max_defect"] <= 1e-9

    def test_qf_reduce(self, tmp_path):
        triple = {
            "sigma": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "S": {
                "dim": 3,
                "gram": [
                    [0.5, 0.0], [0.0, 0.5], [0.0, 0.0],
                    [0.0, -0.5], [0.5, 0.0], [0.0, 0.0],
                    [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                ],
            },
            "T": {
                "dim": 3,
                "gram": [
                    [0.5, 0.0], [0.0, 0.5], [0.0, 0.0],
                    [0.0, -0.5], [0.5, 0.0], [0.0, 0.0],
                    [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                ],
            },
        }
        path = tmp_path / "triple.json"
        path.write_text(ser.dumps(triple))
        res = run_cli("qf-reduce", str(path))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["kernel_dim"] == 1
        assert len(payload["sigma"]) == 2

    def test_qf_reduce_reads_tol(self, tmp_path):
        # S - S^T misses i sigma by 2e-6: outside the default num = 1e-8,
        # inside --tol 1e-4
        sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        gram = 0.5 * (2.0 * np.eye(2) + 1j * (1.0 + 2e-6) * sigma)
        form = {"dim": 2, "gram": ser.matrix_to_pairs(gram)}
        path = tmp_path / "triple.json"
        path.write_text(ser.dumps({"sigma": sigma.tolist(), "S": form, "T": form}))
        assert run_cli("qf-reduce", str(path)).returncode == 7
        res = run_cli("qf-reduce", str(path), "--tol", "1e-4")
        assert res.returncode == 0
        assert json.loads(res.stdout)["kernel_dim"] == 0

    def test_decompose_decomposes_each_state_once(self, tmp_path, monkeypatch, capsys):
        import amplitude_lab.central as central
        from amplitude_lab.cli import main

        calls = []
        real = central.decompose
        monkeypatch.setattr(
            central, "decompose", lambda phi, mu=None: calls.append(1) or real(phi, mu)
        )
        rng = np.random.default_rng(4)
        alg = make_algebra([2, 1])
        a = write_functional(tmp_path / "a.json", random_state(rng, alg))
        b = write_functional(tmp_path / "b.json", random_state(rng, alg))
        assert main(["decompose", a, b]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines()[0] == "block,weight,component_amplitude"


class TestErrorsAndDeterminism:
    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("amp", str(bad), str(bad))
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
    def test_bad_tol_is_a_parse_error(self, qubit_pair, tol):
        # a negative or NaN tolerance failed as NotPositive; inf switched off the checks
        res = run_cli("amp", *qubit_pair, "--tol", tol)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("mu", ["x,y", "nan,nan"])
    def test_bad_mu_weights_are_a_parse_error(self, qubit_pair, mu):
        res = run_cli("decompose", *qubit_pair, "--mu", mu)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("times", ["", "nan"])
    def test_bad_times_are_a_parse_error(self, qubit_pair, times):
        # a NaN time would give a NaN defect, which max() drops: max_defect 0.0
        res = run_cli("kms-check", qubit_pair[1], f"--times={times}")
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_trials_below_one_are_a_parse_error(self, qubit_pair, trials):
        # zero trials would report max_defect 0.0 without checking anything
        res = run_cli("kms-check", qubit_pair[1], "--trials", trials)
        assert res.returncode == 2, res.stderr
        assert json.loads(res.stdout)["error"]["type"] == "ParseError"

    def test_missing_file(self):
        res = run_cli("amp", "/nonexistent/a.json", "/nonexistent/b.json")
        assert res.returncode == 2

    def test_not_positive_exit_code(self, tmp_path):
        alg = make_algebra([2])
        signed = Functional(alg, (np.diag([1.0, -0.5]).astype(complex),))
        a = write_functional(tmp_path / "signed.json", signed)
        res = run_cli("amp", a, a)
        assert res.returncode == 4
        assert json.loads(res.stdout)["error"]["type"] == "NotPositive"

    def test_shape_error_exit_code(self, tmp_path):
        phi = Functional(make_algebra([2]), (np.eye(2, dtype=complex) / 2,))
        psi = Functional(make_algebra([3]), (np.eye(3, dtype=complex) / 3,))
        a = write_functional(tmp_path / "a.json", phi)
        b = write_functional(tmp_path / "b.json", psi)
        res = run_cli("amp", a, b)
        assert res.returncode == 3

    def test_selftest_deterministic(self):
        first = run_cli("selftest", "--seed", "7", "--max-dim", "4")
        second = run_cli("selftest", "--seed", "7", "--max-dim", "4")
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert "summary: PASS" in first.stdout
