import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amplitude_lab import Functional, make_algebra
from amplitude_lab import serialize as ser
from amplitude_lab.restriction import MAX_CHAIN_DIM
from amplitude_lab.sampling import random_state

from helpers import peak_bytes


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

    def test_purify_csv_is_printed_a_row_at_a_time(self, tmp_path):
        # every row joined before the print peaked at 22.7 x 8 n^4 bytes at n = 12, and the
        # JSON path, written a row at a time, at 6.9
        from amplitude_lab import purify
        from amplitude_lab.cli import main
        from amplitude_lab.serialize import _fmt

        phi = random_state(np.random.default_rng(8), make_algebra([12]))
        path = str(write_functional(tmp_path / "phi.json", phi))
        sink = hashlib.sha256()

        class Sink:
            def write(self, text):
                sink.update(text.encode())

        with contextlib.redirect_stdout(Sink()):
            peak, _ = peak_bytes(lambda: main(["purify", "--csv", path]))
        m = purify(ser.functional_from_json(json.loads(Path(path).read_text()))).densities[0]
        rows = (f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}" for (i, j), z in np.ndenumerate(m))
        expected = "\n".join(["i,j,re,im", *rows]) + "\n"
        assert sink.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
        assert peak < 10 * 8 * len(m) ** 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    def test_a_matrix_with_a_non_finite_entry_prints_no_row(self, bad, capsys):
        from amplitude_lab import SolverFailed
        from amplitude_lab.cli import _emit_matrix

        m = np.eye(3, dtype=type(bad))
        m[2, 1] = bad
        with pytest.raises(SolverFailed, match="non-finite result"):
            _emit_matrix(m)
        assert capsys.readouterr().out == ""

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

    def test_gmean_takes_each_summand_on_its_own_scale(self, tmp_path, capsys):
        # one pair computation on the whole Gram printed diag(1e308, 0)
        from amplitude_lab.cli import main

        g = '{"dim": 2, "gram": [[1e+308, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}'
        (tmp_path / "g.json").write_text(g)
        assert main(["gmean", str(tmp_path / "g.json"), str(tmp_path / "g.json")]) == 0
        assert capsys.readouterr().out == g + "\n"

    def test_gmean_of_side_zero_and_of_two_sides(self, tmp_path, capsys):
        from amplitude_lab.cli import main

        empty, one = tmp_path / "empty.json", tmp_path / "one.json"
        empty.write_text('{"dim": 0, "gram": []}')
        one.write_text('{"dim": 1, "gram": [[1.0, 0.0]]}')
        assert main(["gmean", str(empty), str(empty)]) == 0
        assert capsys.readouterr().out == '{"dim": 0, "gram": []}\n'
        assert main(["gmean", str(empty), str(one)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ShapeError"

    def test_purify_above_the_cap_exits_6(self, tmp_path, capsys):
        from amplitude_lab.cli import main

        # side 33^2 = 1089 is above MAX_CHAIN_DIM
        phi = random_state(np.random.default_rng(1), make_algebra([33]))
        assert main(["purify", write_functional(tmp_path / "phi.json", phi)]) == 6
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "TooLarge"


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

    @pytest.mark.parametrize("args", [("11",)])
    def test_product_chain_is_capped_by_dimension(self, args):
        # 2**11 exceeds the 1024 cap on the ambient dimension
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

    @pytest.mark.parametrize("scale", [1e300, 1.5e308])
    def test_qf_reduce_of_a_finite_sigma_near_the_float_range(self, tmp_path, scale):
        # sigma - sigma^T overflowed at 1.5e308: the valid triple exited 7, with two warnings
        sigma = np.array([[0.0, scale], [-scale, 0.0]])
        form = {"dim": 2, "gram": ser.matrix_to_pairs(0.5 * (scale * np.eye(2) + 1j * sigma))}
        path = tmp_path / "triple.json"
        path.write_text(ser.dumps({"sigma": sigma.tolist(), "S": form, "T": form}))
        res = run_cli("qf-reduce", str(path))
        assert (res.returncode, res.stderr) == (0, "")
        assert json.loads(res.stdout)["sigma"] == sigma.tolist()

    def test_qf_reduce_non_hermitian_covariance_exits_7(self, tmp_path):
        sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        gram = 0.5 * (2.0 * np.eye(2) + 1j * sigma)
        gram[0, 1] += 1e-3
        form = {"dim": 2, "gram": ser.matrix_to_pairs(gram)}
        path = tmp_path / "triple.json"
        path.write_text(ser.dumps({"sigma": sigma.tolist(), "S": form, "T": form}))
        res = run_cli("qf-reduce", str(path))
        assert res.returncode == 7
        assert json.loads(res.stdout)["error"]["type"] == "InvalidCovariance"

    def test_decompose_counts_a_block_far_below_the_largest(self, tmp_path, capsys):
        from amplitude_lab.cli import main

        alg = make_algebra([1, 96])
        phi = Functional(alg, (np.eye(1), 1e-15 * np.eye(96)))
        psi = Functional(alg, (np.zeros((1, 1)), np.eye(96) / 96))
        a = write_functional(tmp_path / "a.json", phi)
        b = write_functional(tmp_path / "b.json", psi)
        assert main(["decompose", a, b]) == 0
        lhs, rhs, _ = capsys.readouterr().out.splitlines()[-1].split(",")
        assert rhs == lhs

    def test_decompose_of_a_tiny_weight_prints_no_inf(self, tmp_path, capsys):
        # the sum check took sqrt(rp * rq) of two Radon-Nikodym factors: for factors of
        # 1e155 the product overflowed (rhs and defect printed inf), for 1e-170 it
        # underflowed (rhs printed 0, defect 1e-170), both with exit 0
        from amplitude_lab.cli import main

        phi = Functional(make_algebra([1, 1]), (np.array([[1e155]]), np.array([[1.0]])))
        a = write_functional(tmp_path / "a.json", phi)
        assert main(["decompose", a, a]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1e+155,1e+155,0"
        tiny = Functional(make_algebra([1]), (np.array([[1e-170]]),))
        b = write_functional(tmp_path / "b.json", tiny)
        assert main(["decompose", b, b]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1e-170,1e-170,0"

    @staticmethod
    def _qf_triple(path, s_real):
        """A triple file: sigma pairs coordinates 0 and 1, T = diag(1, 1, 0), both + i sigma / 2."""
        sigma = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        grams = (("S", s_real), ("T", np.diag([1.0, 1.0, 0.0])))
        forms = {k: {"dim": 3, "gram": ser.matrix_to_pairs(g + 0.5j * sigma)} for k, g in grams}
        path.write_text(ser.dumps({"sigma": sigma.tolist(), **forms}))
        return str(path)

    def test_qf_reduce_ranks_each_coordinate_block_on_its_own_scale(self, tmp_path, capsys):
        # S[1, 1] = 1e308: the rank cut of the whole quarter could not tell T's eigenvalue 1
        # from 0 and dropped a direction sigma pairs, exit 9; each block is ranked alone now
        from amplitude_lab.cli import main

        path = self._qf_triple(tmp_path / "triple.json", np.diag([1.0, 1e308, 0.0]))
        assert main(["qf-reduce", path]) == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim"] == 1

    def test_qf_reduce_solver_failure_exits_9(self, tmp_path, capsys):
        # a finite Gram entry of 1e308 ended in numpy's LinAlgError traceback, exit 1.  Here
        # S's eigenvalues 1 and 1e300 share a block, whose rank cut cannot tell the 1 from 0
        # and drops a direction sigma pairs: kernel_dim 2 where it is 1
        from amplitude_lab.cli import main

        r = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
        path = self._qf_triple(tmp_path / "triple.json", r @ np.diag([1.0, 1e300, 0.0]) @ r.T)
        assert main(["qf-reduce", path]) == 9
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "SolverFailed" and "too badly scaled" in error["message"]

    def test_decompose_of_an_overflowing_block_mass_exits_9(self, tmp_path):
        # the mass inf became NaN weights, refused as a "weight vector" the caller never gave:
        # exit 6, where amp on the same file exits 9.  Both then also printed numpy's
        # "overflow encountered in reduce" RuntimeWarning on stderr, from the sums they refuse
        phi = Functional(make_algebra([2, 1]), (np.diag([1.7e308, 0.85e308]), np.eye(1)))
        a = write_functional(tmp_path / "a.json", phi)
        errors = {}
        for command in ("decompose", "amp"):
            res = run_cli(command, a, a)
            assert (res.returncode, res.stderr) == (9, ""), command
            errors[command] = json.loads(res.stdout)["error"]
        assert {e["type"] for e in errors.values()} == {"SolverFailed"}
        assert errors["decompose"]["message"] == "block 0 has mass inf: finite input too large"
        assert errors["amp"]["message"] == "non-finite result inf: finite input too large"

    def test_decompose_decomposes_each_state_once(self, tmp_path, monkeypatch, capsys):
        import amplitude_lab.central as central
        from amplitude_lab.cli import main

        calls = []
        real = central._positive_parts
        monkeypatch.setattr(central, "_positive_parts", lambda phi: calls.append(1) or real(phi))
        rng = np.random.default_rng(4)
        alg = make_algebra([2, 1])
        a = write_functional(tmp_path / "a.json", random_state(rng, alg))
        b = write_functional(tmp_path / "b.json", random_state(rng, alg))
        assert main(["decompose", a, b]) == 0
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines()[0] == "block,weight,component_amplitude"


def test_cli_start_up_imports_nothing_new():
    # amplab is one process per call, so every import it adds is paid on each
    # call; numpy, json and argparse are loaded before the package
    code = (
        "import sys, numpy, json, argparse\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import amplitude_lab.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} - before)))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # a subset, so that it does not matter which of these numpy loads already
    assert set(res.stdout.split()) - {"amplitude_lab"} <= {"__future__", "copy", "dataclasses"}


class TestFlags:
    # a flag the command does not read; the file arguments are never opened
    UNREAD = [
        ("qf-reduce", ["triple.json"], "--csv"),
        ("selftest", [], "--csv"),
        ("amp", ["phi.json", "psi.json"], "--seed"),
        ("chain", ["--lumped", "3"], "--csv"),
        ("chain", ["--lumped", "3"], "--seed"),
        ("decompose", ["phi.json", "psi.json"], "--csv"),
        ("purify", ["phi.json"], "--seed"),
    ]

    @staticmethod
    def _flag_args(flag):
        return [flag] if flag == "--csv" else [flag, "5"]

    @staticmethod
    def _parse_error(capsys) -> str:
        """The message of the one ParseError object on stdout; stderr stays empty."""
        out, errs = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error["type"] == "ParseError" and errs == ""
        return error["message"]

    @pytest.mark.parametrize("command, rest, flag", UNREAD)
    def test_unread_flag_after_the_command_exits_2(self, command, rest, flag, capsys):
        from amplitude_lab.cli import main

        assert main([command, *self._flag_args(flag), *rest]) == 2
        assert flag in self._parse_error(capsys)

    @pytest.mark.parametrize("command, rest, flag", UNREAD)
    def test_unread_flag_before_the_command_exits_2(self, command, rest, flag, capsys):
        from amplitude_lab.cli import main

        assert main([*self._flag_args(flag), command, *rest]) == 2
        assert flag in self._parse_error(capsys)

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--tol", "-1e-3", "selftest"], "--tol"),
            (["chain", "--lumped", "3", "--mu", "-inf"], "--mu"),
            (["chain", "--lumped", "abc"], "--lumped"),
            (["amp", "--seed", "3", "a.json", "b.json"], "--seed"),
            ([], "command"),
        ],
    )
    def test_argparse_errors_end_in_the_json_error_object(self, argv, named, capsys):
        # argparse printed its usage to stderr and exited 2 with nothing on stdout
        from amplitude_lab.cli import main

        assert main(argv) == 2
        assert named in self._parse_error(capsys)

    def test_help_still_exits_0(self, capsys):
        from amplitude_lab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: amplab")

    @pytest.mark.parametrize("before", [True, False])
    def test_read_flags_are_accepted_in_either_position(self, qubit_pair, before, capsys):
        from amplitude_lab.cli import main

        flags = ["--seed", "3", "--csv", "--tol", "1e-6"]
        argv = ["kms-check", qubit_pair[1], "--trials", "1"]
        assert main(flags + argv if before else argv + flags) == 0
        assert capsys.readouterr().out.startswith("t,max_defect\n")


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

    @pytest.mark.parametrize("command", ["kms-check", "selftest"])
    def test_negative_seed_is_a_parse_error(self, qubit_pair, command):
        # numpy's default_rng rejected it with a traceback and exit 1
        state = [qubit_pair[1]] if command == "kms-check" else []
        res = run_cli(command, *state, "--seed", "-1")
        assert res.returncode == 2, res.stderr
        error = json.loads(res.stdout)["error"]
        assert error["type"] == "ParseError" and "--seed" in error["message"]

    def test_selftest_tol_moves_its_verdicts_only(self, capsys):
        # the draws were read under --tol: 1e-15 exited 7 (NotUnital) and 1e-300 4 (NotPositive)
        from amplitude_lab.cli import main

        def witnesses(argv):
            code = main(["--seed", "7", *argv, "selftest"])
            return code, [line.split()[-1] for line in capsys.readouterr().out.splitlines()]

        default = witnesses([])
        assert default[0] == 0 and len(default[1]) == 30
        exits = {"1e-6": 0, "1e-12": 0, "1e-13": 8, "1e-15": 8, "1e-300": 8}
        for tol, code in exits.items():
            assert witnesses(["--tol", tol]) == (code, default[1]), tol

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

    def test_a_non_hermitian_density_near_the_float_range_exits_4_quietly(self, tmp_path):
        # hermitian_part formed a - a* before halving: numpy's overflow warning on stderr
        m = np.array([[1e308, 1e308], [-1e308, 1e308]])
        path = tmp_path / "a.json"
        algebra = ser.algebra_to_json(make_algebra([2]))
        path.write_text(ser.dumps({"algebra": algebra, "densities": [ser.matrix_to_pairs(m)]}))
        res = run_cli("amp", str(path), str(path))
        assert (res.returncode, res.stderr) == (4, "")
        assert json.loads(res.stdout)["error"]["type"] == "NotPositive"

    def test_shape_error_exit_code(self, tmp_path):
        phi = Functional(make_algebra([2]), (np.eye(2, dtype=complex) / 2,))
        psi = Functional(make_algebra([3]), (np.eye(3, dtype=complex) / 3,))
        a = write_functional(tmp_path / "a.json", phi)
        b = write_functional(tmp_path / "b.json", psi)
        res = run_cli("amp", a, b)
        assert res.returncode == 3

    def test_empty_mu_is_a_parse_error(self, qubit_pair, capsys):
        # an empty --mu was taken as no --mu, and the default weights were used
        from amplitude_lab.cli import main

        assert main(["decompose", *qubit_pair, "--mu", ""]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError" and "--mu" in error["message"]

    @pytest.mark.parametrize(
        "flag, value, code, kind",
        [
            ("--lambda", "inf", 2, "ParseError"),
            ("--mu", "nan", 2, "ParseError"),
            ("--lambda", "1e400", 2, "ParseError"),
            ("--mu", "-inf", 2, "ParseError"),
            ("--lambda", "1.5", 6, "DomainError"),
            ("--mu", "-0.1", 6, "DomainError"),
        ],
    )
    def test_lumped_parameters_are_finite_numbers_in_the_unit_interval(
        self, flag, value, code, kind, capsys
    ):
        # NaN, infinities and overflowing numbers failed the [0, 1) check as DomainError, exit 6
        from amplitude_lab.cli import main

        assert main(["chain", "--lumped", "3", f"{flag}={value}"]) == code
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == kind
        assert flag in error["message"] or kind == "DomainError"

    def test_chain_algebras_that_disagree_with_the_links_exit_7(self, tmp_path, capsys):
        from amplitude_lab.cli import main

        phi = Functional(make_algebra([4]), (np.eye(4) / 4,))
        two, four = {"blocks": [2]}, {"blocks": [4]}
        chain = {
            "algebras": [two, {"blocks": [3]}],
            "links": [{"source": two, "target": four, "multiplicity": [[2]]}],
            "final": {"source": four, "target": four, "multiplicity": [[1]]},
        }
        state = ser.functional_to_json(phi)
        path = tmp_path / "spec.json"
        path.write_text(ser.dumps({"phi": state, "psi": state, "chain": chain}))
        assert main(["chain", str(path)]) == 7
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InvalidEmbedding" and "link 0" in error["message"]

    def test_chain_links_must_be_a_list(self, tmp_path, capsys):
        # "links": {} was read as an empty list of links
        from amplitude_lab.cli import main

        phi = Functional(make_algebra([2]), (np.eye(2) / 2,))
        one = {"blocks": [2]}
        chain = {
            "algebras": [one],
            "links": {},
            "final": {"source": one, "target": one, "multiplicity": [[1]]},
        }
        state = ser.functional_to_json(phi)
        spec = {"phi": state, "psi": state, "chain": chain}
        path = tmp_path / "spec.json"
        path.write_text(ser.dumps(spec))
        assert main(["chain", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"
