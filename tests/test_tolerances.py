"""The tolerances in force: one value per computation, set by config.using.

Every check reads config.tolerances() when it runs; no object or
function carries a tolerance of its own.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import threading
from pathlib import Path

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
    interpolated_form,
    make_algebra,
    tolerances,
    using,
)
from amplitude_lab import serialize as ser
from amplitude_lab.cli import main
from amplitude_lab.sampling import random_embedding, random_gibbs, random_state

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
    # the endpoint snap once read the positivity slack, so under 1e-2 the
    # mean lost A's genuine eigenvalue 0.01 (or 0.99) and gave diag(1, 0)
    with using(Tolerances(slack=1e-2)):
        a = PositiveForm(np.diag([1.0, 0.01]))
        b = PositiveForm(np.diag([1.0, 0.99]))
        ab, ba = geometric_mean(a, b).gram, geometric_mean(b, a).gram
    for mean in (ab, ba):
        assert np.allclose(mean, np.diag([1.0, np.sqrt(0.0099)]))


def test_gmean_output_does_not_read_the_tolerances(tmp_path, capsys):
    # --tol 1e-6 snapped A's eigenvalue 1e-7 to 0 and printed a last entry of 0
    paths = []
    for name, gram in (("a", np.diag([1.0, 1e-7])), ("b", np.eye(2))):
        path = tmp_path / f"{name}.json"
        path.write_text(ser.dumps(ser.form_to_json(PositiveForm(gram))))
        paths.append(str(path))
    outs = []
    for flags in ([], ["--tol", "1e-6"]):
        assert main([*flags, "gmean", "--csv", *paths]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[1].splitlines()[-1] == "1,1,0.000316227766,0"


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


def test_only_validation_reads_the_tolerances():
    # a tolerance decides whether an input is accepted, never what is computed
    # from it: the mean's endpoint snap read the positivity slack, so --tol moved
    # gmean's output; forms.py reads none at all
    names = {"tolerances", "Tolerances", "DEFAULT_TOL", "using"}
    sites, in_forms = set(), []
    for path in sorted(Path(amplitude_lab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tolerances":
                    sites.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                if path.name == "forms.py" and (
                    getattr(node, "id", None) in names
                    or isinstance(node, ast.alias) and node.name in names
                ):
                    in_forms.append(f"forms.py:{node.lineno}")
    # the comparisons are linalg's alone: the slack in hermitian_part and is_psd, num in close
    assert sites == {"linalg.hermitian_part", "linalg.is_psd", "linalg.close", "selftest._Suite"}
    assert in_forms == []


TIGHTEST = Tolerances(slack=1e-300, num=1e-300)


def test_gmean_exits_0_under_the_tightest_tol(tmp_path, capsys):
    # a fresh eigvalsh of the mean's own Gram read -2.776e-17 and exited 4
    paths = []
    for name, gram in (("a", np.diag([1.0, 0.0])), ("b", np.array([[2.0, 1.0], [1.0, 2.0]]))):
        path = tmp_path / f"{name}.json"
        path.write_text(ser.dumps(ser.form_to_json(PositiveForm(gram))))
        paths.append(str(path))
    outs = []
    for flags in ([], ["--tol", "1e-300"]):
        assert main([*flags, "gmean", *paths]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_an_interpolated_form_is_as_positive_as_its_functionals():
    # a fresh eigvalsh of the kron Gram read -3.5e-18 and raised NotPositive
    rng = np.random.default_rng(18)
    alg = make_algebra([3, 2])
    phi, psi = random_state(rng, alg, True), random_state(rng, alg, True)
    with using(TIGHTEST):
        phi.require_positive()
        psi.require_positive()
        assert interpolated_form(phi, psi, 0.5).dim == 13


def _arrays(obj):
    """Every array an embedding, a UCP map or a functional holds, in order."""
    if isinstance(obj, Functional):
        return obj.densities
    if hasattr(obj, "kraus"):
        return tuple(m for family in obj.kraus for _, m in family)
    return (obj.sections, obj.bounds, *obj.unitaries)


@pytest.mark.parametrize("name", ["compose_embeddings", "embedding_as_ucp", "purify"])
def test_what_a_call_builds_from_accepted_objects_is_not_judged_again(name):
    # the reading constructors judged what each call had built: InvalidEmbedding, NotUnital
    # and NotPositive on the roundoff of its own unitaries, Kraus sums and outer product
    rng = np.random.default_rng(28)
    inner = random_embedding(rng, make_algebra([2, 1]), 2)
    outer = random_embedding(rng, inner.target, 1)
    phi = Functional(make_algebra([3]), (random_gibbs(rng, 3),))
    args = {"compose_embeddings": (outer, inner), "embedding_as_ucp": (inner,), "purify": (phi,)}
    call = getattr(amplitude_lab, name)
    expected = call(*args[name])
    with using(TIGHTEST):
        got = call(*args[name])
    pairs = list(zip(_arrays(expected), _arrays(got), strict=True))
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)
