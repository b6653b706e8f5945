import hashlib
import json

import numpy as np
import pytest

from amplitude_lab import ParseError, make_algebra, purify
from amplitude_lab import serialize as ser
from amplitude_lab.sampling import random_state

from helpers import peak_bytes


class TestRoundTrips:
    def test_algebra(self):
        alg = make_algebra([2, 3, 1])
        assert ser.algebra_from_json(ser.algebra_to_json(alg)) == alg

    def test_functional(self):
        rng = np.random.default_rng(0)
        phi = random_state(rng, make_algebra([2, 3]))
        back = ser.functional_from_json(json.loads(ser.dumps(ser.functional_to_json(phi))))
        for a, b in zip(back.densities, phi.densities):
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_form(self):
        from amplitude_lab import PositiveForm
        from amplitude_lab.sampling import random_psd

        form = PositiveForm(random_psd(np.random.default_rng(1), 3))
        back = ser.form_from_json(ser.form_to_json(form))
        assert np.max(np.abs(back.gram - form.gram)) <= 1e-12

    def test_emitted_json_reparses_equal(self):
        rng = np.random.default_rng(2)
        phi = random_state(rng, make_algebra([2, 2]))
        text = ser.dumps(ser.functional_to_json(phi))
        assert ser.dumps(ser.functional_to_json(ser.functional_from_json(ser.loads(text)))) == text

    def test_covariance_triple(self):
        sigma = [[0.0, 1.0], [-1.0, 0.0]]
        s_form = {
            "dim": 2,
            "gram": [[0.5, 0.0], [0.0, 0.5], [0.0, -0.5], [0.5, 0.0]],
        }
        obj = {"sigma": sigma, "S": s_form, "T": s_form}
        space, s, t = ser.covariance_triple_from_json(obj)
        assert space.dim == 2
        assert np.allclose(s.matrix, np.array([[0.5, 0.5j], [-0.5j, 0.5]]))

    def test_covariance_triple_checks_each_form_once(self, monkeypatch):
        import amplitude_lab.forms as forms
        import amplitude_lab.quasifree as quasifree

        calls = []
        real = quasifree.hermitian_part

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(forms, "hermitian_part", counted)
        monkeypatch.setattr(quasifree, "hermitian_part", counted)
        form = {"dim": 2, "gram": [[0.5, 0.0], [0.0, 0.5], [0.0, -0.5], [0.5, 0.0]]}
        ser.covariance_triple_from_json({"sigma": [[0.0, 1.0], [-1.0, 0.0]], "S": form, "T": form})
        assert len(calls) == 3  # sigma (as i sigma), S and T


class TestRejection:
    def test_nan_constant(self):
        with pytest.raises(ParseError):
            ser.loads('{"x": NaN}')

    def test_infinity_constant(self):
        with pytest.raises(ParseError):
            ser.loads('{"x": -Infinity}')

    def test_overflow_number(self):
        with pytest.raises(ParseError):
            ser.matrix_from_pairs([[1e999, 0.0]], 1, "m")

    def test_bad_algebra(self):
        with pytest.raises(ParseError):
            ser.algebra_from_json({"blocks": []})
        with pytest.raises(ParseError):
            ser.algebra_from_json({"blocks": [2, 0]})
        with pytest.raises(ParseError):
            ser.algebra_from_json({"blocks": [True]})

    def test_wrong_pair_count(self):
        with pytest.raises(ParseError):
            ser.functional_from_json(
                {"algebra": {"blocks": [2]}, "densities": [[[1.0, 0.0]]]}
            )

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            ser.loads("{not json")


class TestDeterminism:
    def test_round9(self):
        assert ser.round9(0.12345678949) == 0.123456789
        assert ser.dumps({"a": 1 / 3}) == '{"a": 0.333333333}'

    def test_sorted_keys(self):
        assert ser.dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


def test_a_functional_is_written_a_row_at_a_time():
    # purify's JSON went through dumps(functional_to_json(.)): a list of two floats per entry,
    # rounded into a second one, then the whole text; at n = 32 its RSS peaked at 440 MB
    phi = purify(random_state(np.random.default_rng(35), make_algebra([8])))
    (density,) = phi.densities
    text = (ser.dumps(ser.functional_to_json(phi)) + "\n").encode()
    digest = hashlib.sha256()
    peak = peak_bytes(lambda: ser.write_functional(phi, lambda s: digest.update(s.encode())))[0]
    assert digest.hexdigest() == hashlib.sha256(text).hexdigest()
    assert peak < density.nbytes + 4 * len(text) / len(density)


def test_a_functional_of_several_blocks_is_written_as_dumps_writes_it():
    phi = random_state(np.random.default_rng(36), make_algebra([2, 1, 3]))
    out = []
    ser.write_functional(phi, out.append)
    assert "".join(out) == ser.dumps(ser.functional_to_json(phi)) + "\n"
