"""The selftest battery and the tests state each identity once.

Every public function of amplitude_lab.selftest other than run_selftest
is an identity: _Suite calls it on its seeded draws, and some test calls
it on its own inputs.  No test writes an identity out again.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from amplitude_lab import build_product_chain, product_state, selftest

TESTS = Path(__file__).parent


def _called_names(tree: ast.AST) -> set[str]:
    """Names of everything called in tree, as f(...) or module.f(...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def _identities(tree: ast.Module) -> set[str]:
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name != "run_selftest"
    }


def test_every_identity_is_called_by_the_battery_and_by_a_test():
    tree = ast.parse(Path(selftest.__file__).read_text())
    identities = _identities(tree)
    assert len(identities) >= 11
    suite = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Suite")
    in_tests = set().union(*(_called_names(ast.parse(p.read_text())) for p in TESTS.glob("*.py")))
    assert identities - _called_names(suite) == set()
    assert identities - in_tests == set()


def _loop_depths(node: ast.AST, name: str, depth: int = 0):
    """Yield the loop depth of every call of name below node; a comprehension counts its fors."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
        yield depth
    if isinstance(node, (ast.For, ast.While)):
        depth += 1
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        depth += len(node.generators)
    for child in ast.iter_child_nodes(node):
        yield from _loop_depths(child, name, depth)


def test_no_test_writes_out_the_kernel_gram():
    # selftest.bridge_gap holds the one double loop over matrix units
    found = [
        p.name
        for p in sorted(TESTS.glob("*.py"))
        if any(d >= 2 for d in _loop_depths(ast.parse(p.read_text()), "amplitude_kernel"))
    ]
    assert found == []
    tree = ast.parse(Path(selftest.__file__).read_text())
    assert max(_loop_depths(tree, "amplitude_kernel")) == 2


def test_the_pass_rule_fails_a_nan_witness_and_reads_an_exact_minus_zero_as_zero():
    # max(worst, nan) kept worst, so a check whose identity gave NaN passed
    suite = selftest._Suite(0)
    suite.defect("defect", [1e-12, float("nan")])
    suite.margin("margin", [float("nan"), 1.0])
    suite.margin("exact", [-0.0])
    assert [ok for _, ok, _ in suite.results] == [False, False, True]
    assert str(suite.results[2][2]) == "0.0"


@pytest.mark.parametrize("margin", ["sandwich_margin", "chain_margin"])
def test_a_nan_amplitude_is_the_least_margin(margin, monkeypatch):
    # Python's min dropped a NaN in second place: chain_margin returned its finite steps
    _, chain = build_product_chain([2, 2])
    phi = product_state([np.diag([0.75, 0.25])] * 2)
    psi = product_state([np.eye(2) / 2] * 2)
    args = (phi, psi, chain)[: 2 if margin == "sandwich_margin" else 3]
    assert getattr(selftest, margin)(*args) >= -1e-12
    monkeypatch.setattr(selftest, "transition_amplitude", lambda *_: float("nan"))
    assert np.isnan(getattr(selftest, margin)(*args))
