"""JSON interchange dialect.

Schema (documented in the README):

- algebra:     {"blocks": [n_1, ...]}
- functional:  {"algebra": <algebra>, "densities": [<matrix>, ...]}
- form:        {"dim": d, "gram": <matrix>}
- covariance triple: {"sigma": [[...], ...], "S": <form>, "T": <form>}

A complex matrix is a flat row-major list of [re, im] pairs; sigma is a
nested list of real rows.  Parsers reject NaN and infinities.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .algebra import BlockAlgebra, Functional, make_algebra
from .config import DEFAULT_TOL, Tolerances
from .errors import ParseError
from .forms import HermitianForm, PositiveForm
from .quasifree import CovarianceForm, PresymplecticSpace


def _reject_constant(name: str):
    raise ParseError(f"non-finite constant {name!r} in JSON input")


def loads(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _as_finite(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{what}: expected a number, got {x!r}")
    if not math.isfinite(x):
        raise ParseError(f"{what}: non-finite value {x!r}")
    return float(x)


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Flat row-major list of [re, im] pairs."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_from_pairs(pairs, n: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != n * n:
        raise ParseError(f"{what}: expected {n * n} complex pairs")
    out = np.empty(n * n, dtype=complex)
    for i, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2:
            raise ParseError(f"{what}: entry {i} is not an [re, im] pair")
        out[i] = complex(_as_finite(p[0], what), _as_finite(p[1], what))
    return out.reshape(n, n)


def algebra_to_json(algebra: BlockAlgebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(obj) -> BlockAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError("algebra: expected an object with a 'blocks' field")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise ParseError("algebra: 'blocks' must be a nonempty list")
    dims = []
    for b in blocks:
        if isinstance(b, bool) or not isinstance(b, int) or b < 1:
            raise ParseError(f"algebra: bad block dimension {b!r}")
        dims.append(b)
    return make_algebra(dims)


def functional_to_json(phi: Functional) -> dict:
    return {
        "algebra": algebra_to_json(phi.algebra),
        "densities": [matrix_to_pairs(d) for d in phi.densities],
    }


def functional_from_json(obj, tol: Tolerances = DEFAULT_TOL) -> Functional:
    if not isinstance(obj, dict) or "algebra" not in obj or "densities" not in obj:
        raise ParseError("functional: expected 'algebra' and 'densities' fields")
    algebra = algebra_from_json(obj["algebra"])
    dens = obj["densities"]
    if not isinstance(dens, list) or len(dens) != algebra.num_blocks:
        raise ParseError("functional: one density per block is required")
    mats = tuple(
        matrix_from_pairs(d, n, f"density block {k}")
        for k, (n, d) in enumerate(zip(algebra.block_dims, dens))
    )
    return Functional(algebra, mats, tol)


def form_to_json(form: HermitianForm) -> dict:
    return {"dim": form.dim, "gram": matrix_to_pairs(form.gram)}


def form_from_json(obj, positive: bool = False, tol: Tolerances = DEFAULT_TOL) -> HermitianForm:
    if not isinstance(obj, dict) or "dim" not in obj or "gram" not in obj:
        raise ParseError("form: expected 'dim' and 'gram' fields")
    d = obj["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise ParseError(f"form: bad dimension {d!r}")
    gram = matrix_from_pairs(obj["gram"], d, "gram")
    return PositiveForm(gram, tol) if positive else HermitianForm(gram, tol)


def sigma_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("sigma: expected a nonempty list of rows")
    d = len(obj)
    out = np.zeros((d, d))
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"sigma: row {i} must have {d} entries")
        for j, x in enumerate(row):
            out[i, j] = _as_finite(x, f"sigma[{i}][{j}]")
    return out


def sigma_to_json(sigma: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(sigma, dtype=float)]


def covariance_triple_from_json(
    obj, tol: Tolerances = DEFAULT_TOL
) -> tuple[PresymplecticSpace, CovarianceForm, CovarianceForm]:
    if not isinstance(obj, dict) or any(k not in obj for k in ("sigma", "S", "T")):
        raise ParseError("covariance triple: expected 'sigma', 'S', and 'T' fields")
    space = PresymplecticSpace(sigma_from_json(obj["sigma"]), tol)
    s = CovarianceForm(form_from_json(obj["S"], tol=tol).gram, tol)
    t = CovarianceForm(form_from_json(obj["T"], tol=tol).gram, tol)
    if s.dim != space.dim or t.dim != space.dim:
        raise ParseError("covariance triple: dimensions do not agree")
    return space, s, t


def embedding_from_json(obj, tol: Tolerances = DEFAULT_TOL):
    from .restriction import UnitalEmbedding

    if not isinstance(obj, dict) or any(
        k not in obj for k in ("source", "target", "multiplicity")
    ):
        raise ParseError("embedding: expected 'source', 'target', 'multiplicity' fields")
    source = algebra_from_json(obj["source"])
    target = algebra_from_json(obj["target"])
    mult = obj["multiplicity"]
    if (
        not isinstance(mult, list)
        or not mult
        or any(not isinstance(row, list) for row in mult)
        or len({len(row) for row in mult}) != 1
    ):
        raise ParseError("embedding: 'multiplicity' must be a rectangular list of integer rows")
    c = np.zeros((len(mult), len(mult[0])), dtype=int)
    for i, row in enumerate(mult):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"embedding: multiplicity[{i}][{j}] must be an integer")
            c[i, j] = x
    unitaries = None
    if obj.get("unitaries") is not None:
        us = obj["unitaries"]
        if not isinstance(us, list) or len(us) != target.num_blocks:
            raise ParseError("embedding: one unitary per target block is required")
        unitaries = tuple(
            matrix_from_pairs(u, n, f"unitary {k}")
            for k, (n, u) in enumerate(zip(target.block_dims, us))
        )
    return UnitalEmbedding(source, target, c, unitaries, tol)


def chain_from_json(obj, tol: Tolerances = DEFAULT_TOL):
    from .restriction import SubalgebraChain

    if not isinstance(obj, dict) or any(k not in obj for k in ("algebras", "links", "final")):
        raise ParseError("chain: expected 'algebras', 'links', 'final' fields")
    algebras = tuple(algebra_from_json(a) for a in obj["algebras"])
    links = tuple(embedding_from_json(e, tol) for e in obj["links"])
    final = embedding_from_json(obj["final"], tol)
    return SubalgebraChain(algebras, links, final)


def round9(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 9 significant digits."""
    return json.dumps(round9(obj), sort_keys=True)
