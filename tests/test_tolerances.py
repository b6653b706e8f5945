"""The tolerances in force: one value per computation, set by config.using.

Every check reads config.tolerances() when it runs; no object or
function carries a tolerance of its own.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import threading

import numpy as np
import pytest

import amplitude_lab
from amplitude_lab import (
    DEFAULT_TOL,
    Functional,
    NotPositive,
    PositiveForm,
    Tolerances,
    geometric_mean,
    make_algebra,
    tolerances,
    using,
)
from amplitude_lab import serialize as ser
from amplitude_lab.cli import main

LOOSE = Tolerances(slack=1e-4, num=1e-4)
LOOSER = Tolerances(slack=1e-2, num=1e-2)


def test_using_restores_the_previous_value_after_a_normal_exit():
    assert tolerances() is DEFAULT_TOL
    with using(LOOSE) as tol:
        assert tol is LOOSE and tolerances() is LOOSE
    assert tolerances() is DEFAULT_TOL


def test_using_restores_the_previous_value_after_an_exception():
    with pytest.raises(NotPositive):
        with using(LOOSE):
            raise NotPositive("raised inside the block")
    assert tolerances() is DEFAULT_TOL


def test_nested_using_restores_each_outer_value():
    with using(LOOSE):
        with using(LOOSER):
            assert tolerances() is LOOSER
        assert tolerances() is LOOSE
    assert tolerances() is DEFAULT_TOL


def test_a_new_thread_starts_with_the_default():
    seen = []
    with using(LOOSE):
        thread = threading.Thread(target=lambda: seen.append(tolerances()))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [DEFAULT_TOL]


def test_positivity_is_decided_by_the_value_in_force_when_it_is_asked():
    phi = Functional(make_algebra([2]), (np.diag([1.0, -1e-6]),))
    assert not phi.is_positive()
    with using(LOOSE):
        assert phi.is_positive()


def test_geometric_mean_is_symmetric_under_loose_tolerances():
    # the endpoint snap read the first argument's own slack, so the two
    # orders snapped A's eigenvalue 0.01 (to 0) and 0.99 (not at all)
    with using(Tolerances(slack=1e-2)):
        a = PositiveForm(np.diag([1.0, 0.01]))
        b = PositiveForm(np.diag([1.0, 0.99]))
        ab, ba = geometric_mean(a, b).gram, geometric_mean(b, a).gram
    assert np.array_equal(ab, ba)
    assert np.allclose(ab, np.diag([1.0, 0.0]))


@pytest.mark.parametrize(
    "density, code", [(np.eye(2) / 2, 0), (np.diag([1.0, -0.5]), 4)], ids=["ok", "not-positive"]
)
def test_cli_leaves_the_default_in_force(tmp_path, capsys, density, code):
    phi = Functional(make_algebra([2]), (density,))
    path = tmp_path / "phi.json"
    path.write_text(ser.dumps(ser.functional_to_json(phi)))
    assert main(["amp", str(path), str(path), "--tol", "1e-6"]) == code
    capsys.readouterr()
    assert tolerances() is DEFAULT_TOL


def test_no_object_or_function_carries_its_own_tolerances():
    # a tol field or parameter would let the two sides of one operation
    # disagree; config.using is the one place a tolerance is set
    modules = [amplitude_lab] + [
        importlib.import_module(f"amplitude_lab.{m.name}")
        for m in pkgutil.iter_modules(amplitude_lab.__path__)
    ]
    found = []
    for module in modules:
        for name, obj in vars(module).items():
            owner = getattr(obj, "__module__", None) or ""
            if name.startswith("_") or not owner.startswith("amplitude_lab"):
                continue
            where = f"{owner}.{name}"
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [f"{where}.{f.name}" for f in dataclasses.fields(obj) if f.name == "tol"]
                callables = [
                    (f"{where}.{n}", f)
                    for n, f in vars(obj).items()
                    if inspect.isfunction(f) and (n == "__init__" or not n.startswith("_"))
                ]
            elif inspect.isfunction(obj):
                callables = [(where, obj)]
            else:
                continue
            found += [
                f"{w}(tol)"
                for w, f in callables
                if "tol" in inspect.signature(f).parameters and w != "amplitude_lab.config.using"
            ]
    assert found == []


def test_chain_monotone_witness_is_a_measurement_not_the_tolerance():
    # the witness was min(..., tol - end defect): 1e-8 at the default, 1e-6 under 1e-6
    from amplitude_lab.selftest import _Suite

    results = []
    for tol in (DEFAULT_TOL, Tolerances(slack=1e-6, num=1e-6)):
        with using(tol):
            suite = _Suite(1)
            suite.check_chain_monotone()
        results.append(suite.results)
    assert results[0] == results[1]
    assert results[0][0][1]


def test_weight_vectors_read_the_tolerances_in_force(tmp_path, capsys):
    # probability_vector compared the sum with the literal 1e-9, whatever --tol said
    phi = Functional(make_algebra([1, 1]), (np.array([[0.5]]), np.array([[0.5]])))
    path = tmp_path / "phi.json"
    path.write_text(ser.dumps(ser.functional_to_json(phi)))
    a = str(path)
    # the weights sum to 1 + 1e-7
    assert main(["decompose", a, a, "--mu", "0.5,0.5000001"]) == 6
    assert main(["--tol", "1e-6", "decompose", a, a, "--mu", "0.5,0.5000001"]) == 0
    capsys.readouterr()
