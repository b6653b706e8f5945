"""JSON interchange dialect.

Schema (documented in the README):

- algebra:     {"blocks": [n_1, ...]}
- functional:  {"algebra": <algebra>, "densities": [<matrix>, ...]}
- form:        {"dim": d, "gram": <matrix>}
- covariance triple: {"sigma": [[...], ...], "S": <form>, "T": <form>}
- chain spec:  {"phi": <functional>, "psi": <functional>, "chain": <chain>}

A complex matrix is a flat row-major list of [re, im] pairs; sigma is a
nested list of real rows.  Every value is read by one of four readers:
an object's fields, config.integer, config.real and a list of rows.
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Any

import numpy as np

from .algebra import BlockAlgebra, Functional, make_algebra
from .config import integer, real
from .errors import ParseError, SolverFailed
from .forms import HermitianForm, PositiveForm
from .quasifree import CovarianceForm, PresymplecticSpace
from .restriction import SubalgebraChain, UnitalEmbedding


def _reject_constant(name: str):
    raise ParseError(f"non-finite constant {name!r} in JSON input")


def loads(text: str | bytes) -> Any:
    """JSON text (bytes as UTF-8); every way it fails to decode is one ParseError:
    invalid JSON or UTF-8, too many digits, nesting past the recursion limit."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_file(path: str) -> Any:
    with open(path, "rb") as fh:
        return loads(fh.read())


def _fields(obj, what: str, names: tuple[str, ...]) -> tuple:
    """The named fields of a JSON object, in the order named."""
    if not isinstance(obj, dict) or any(k not in obj for k in names):
        raise ParseError(f"{what}: expected an object with fields {', '.join(map(repr, names))}")
    return tuple(obj[k] for k in names)


def _rows(obj, what: str, entry, count=None, width=None, noun: str = "rows") -> list[list]:
    """count rows (at least one when None) of width entries (as many as rows
    when None), each entry read by entry(x, what)."""
    n = len(obj) if isinstance(obj, list) else -1
    if n != count if count is not None else n < 1:
        need = "a nonempty list of" if count is None else count
        raise ParseError(f"{what}: expected {need} {noun}")
    width = n if width is None else width
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(f"{what}: row {i} must be a list of {width} entries")
        out.append([entry(x, f"{what} row {i}") for x in row])
    return out


def _fmt(x: float) -> str:
    """The one number format of the output, 9 significant digits; inf and NaN are SolverFailed."""
    if not math.isfinite(x):
        raise SolverFailed(f"non-finite result {float(x)!r}: finite input too large")
    return f"{float(x):.9g}"


def matrix_to_pairs(m: np.ndarray) -> list[list[float]]:
    """Flat row-major list of [re, im] pairs."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_from_pairs(pairs, n: int, what: str) -> np.ndarray:
    rows = _rows(pairs, what, partial(real, error=ParseError), n * n, 2, "complex pairs")
    return np.array(rows, dtype=float).reshape(n * n, 2).view(complex).reshape(n, n)


def _per_block(mats, algebra: BlockAlgebra, what: str) -> tuple[np.ndarray, ...]:
    """One matrix per block of the algebra, each a list of [re, im] pairs."""
    if not isinstance(mats, list) or len(mats) != algebra.num_blocks:
        raise ParseError(f"{what}: one matrix per block of {algebra.block_dims} is required")
    dims = algebra.block_dims
    return tuple(matrix_from_pairs(m, n, f"{what} {k}") for k, (n, m) in enumerate(zip(dims, mats)))


def algebra_to_json(algebra: BlockAlgebra) -> dict:
    return {"blocks": list(algebra.block_dims)}


def algebra_from_json(obj) -> BlockAlgebra:
    (blocks,) = _fields(obj, "algebra", ("blocks",))
    if not isinstance(blocks, list) or not blocks:
        raise ParseError("algebra: 'blocks' must be a nonempty list")
    sides = [integer(b, f"algebra: block {k}", ParseError, 1) for k, b in enumerate(blocks)]
    return make_algebra(sides)


def functional_to_json(phi: Functional) -> dict:
    return {
        "algebra": algebra_to_json(phi.algebra),
        "densities": [matrix_to_pairs(d) for d in phi.densities],
    }


def write_functional(phi: Functional, write) -> None:
    """dumps(functional_to_json(phi)) and a newline, through write, one density row at a time:
    the same bytes, with no density held whole as JSON lists or text."""
    write(f'{{"algebra": {dumps(algebra_to_json(phi.algebra))}, "densities": [')
    for k, d in enumerate(phi.densities):
        write(", [" if k else "[")
        for i, row in enumerate(d):
            write((", " if i else "") + dumps(matrix_to_pairs(row))[1:-1])
        write("]")
    write("]}\n")


def functional_from_json(obj) -> Functional:
    algebra, dens = _fields(obj, "functional", ("algebra", "densities"))
    algebra = algebra_from_json(algebra)
    return Functional(algebra, _per_block(dens, algebra, "density block"))


def form_to_json(form: HermitianForm) -> dict:
    return {"dim": form.dim, "gram": matrix_to_pairs(form.gram)}


def _gram_from_json(obj) -> np.ndarray:
    """The Gram matrix of a form object, once its 'dim' and 'gram' fields parse."""
    d, gram = _fields(obj, "form", ("dim", "gram"))
    return matrix_from_pairs(gram, integer(d, "form: 'dim'", ParseError), "gram")


def form_from_json(obj) -> PositiveForm:
    return PositiveForm(_gram_from_json(obj))


def sigma_from_json(obj) -> np.ndarray:
    return np.array(_rows(obj, "sigma", partial(real, error=ParseError)), dtype=float)


def sigma_to_json(sigma: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(sigma, dtype=float)]


def covariance_triple_from_json(obj) -> tuple[PresymplecticSpace, CovarianceForm, CovarianceForm]:
    sigma, s, t = _fields(obj, "covariance triple", ("sigma", "S", "T"))
    space = PresymplecticSpace(sigma_from_json(sigma))
    s = CovarianceForm(_gram_from_json(s))
    t = CovarianceForm(_gram_from_json(t))
    if s.dim != space.dim or t.dim != space.dim:
        raise ParseError("covariance triple: dimensions do not agree")
    return space, s, t


def embedding_from_json(obj):
    source, target, mult = _fields(obj, "embedding", ("source", "target", "multiplicity"))
    source = algebra_from_json(source)
    target = algebra_from_json(target)
    entry = partial(integer, error=ParseError)
    c = _rows(mult, "embedding: 'multiplicity'", entry, target.num_blocks, source.num_blocks)
    us = obj.get("unitaries")
    unitaries = None if us is None else _per_block(us, target, "unitary")
    return UnitalEmbedding(source, target, c, unitaries)


def chain_from_json(obj):
    algebras, links, final = _fields(obj, "chain", ("algebras", "links", "final"))
    if not isinstance(algebras, list) or not isinstance(links, list):
        raise ParseError("chain: 'algebras' and 'links' must be lists")
    algebras = tuple(algebra_from_json(a) for a in algebras)
    links = tuple(embedding_from_json(e) for e in links)
    return SubalgebraChain(algebras, links, embedding_from_json(final))


def chain_spec_from_json(obj) -> tuple[Functional, Functional, SubalgebraChain]:
    """The (phi, psi, chain) of a chain spec, the input of `amplab chain spec.json`."""
    phi, psi, chain = _fields(obj, "chain spec", ("phi", "psi", "chain"))
    return functional_from_json(phi), functional_from_json(psi), chain_from_json(chain)


def round9(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 9 significant digits, no NaN or infinity."""
    return json.dumps(round9(obj), sort_keys=True, allow_nan=False)
