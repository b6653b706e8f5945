"""Numerical policy: one reader per kind of caller value, and the tolerances.

integer (integers over a list), real, complex_number and sequence (arrays:
linalg.real_if_exact) raise the error their caller names and coerce nothing; they live here so
Tolerances can read its fields.  What the package builds from values it has read is not read
again: as_built stores it as it is, so an embedding the package lays out skips the dense
multiplicity matrix a caller's is read from.

All cutoffs are scale-relative.  One slack serves hermiticity, measured
on the largest entry of the matrix under test, and positivity, measured
on its largest |eigenvalue|; rank cuts follow the usual dimension *
machine-epsilon * spectral-radius rule, one block at a time (linalg.in_range).

The Tolerances in force belong to the computation, not to its objects:
every check reads tolerances() when it runs, which is DEFAULT_TOL outside
a using(tol) block.  It is a ContextVar, so a new thread starts at DEFAULT_TOL.
"""

from __future__ import annotations

import numbers
import sys
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EPS = float(np.finfo(np.float64).eps)


def integer(x, what: str, error: type[Exception], lo: int = 0, stop: int = 2**63) -> int:
    """The one integer rule: int(x) for an integer x (numpy's too), not a bool, in [lo, stop).

    An exact int is taken before the numbers.Integral test, which costs 30 times as much."""
    if type(x) is int and lo <= x < stop:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or not lo <= x < stop:
        raise error(f"{what}: expected an integer from {lo} to {stop - 1}")
    return int(x)


def integers(xs: list, what: str, error: type[Exception], lo: int = 0, stop: int = 2**63) -> list:
    """integer over a list: a list of exact ints in range is itself, told by its types, min and
    max, all taken in C; any other list is read entry by entry, and refused at its first bad one."""
    if set(map(type, xs)) == {int} and lo <= min(xs) and max(xs) < stop:
        return xs
    return [integer(x, what, error, lo, stop) for x in xs]


def real(x, what: str, error: type[Exception]) -> float:
    """The one real rule: float(x), x a finite real (numpy's too), no bool; 10**400 is refused."""
    x = x.item() if isinstance(x, np.generic) else x  # so a float32 inf is not compared in float32
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not abs(x) <= sys.float_info.max:
        raise error(f"{what}: expected a finite real number")
    return float(x)


def complex_number(z, what: str, error: type[Exception]) -> complex:
    """The one complex rule: complex(z), z a number (numpy's too), no bool; each part by real."""
    if isinstance(z, bool) or not isinstance(z, numbers.Complex):
        raise error(f"{what}: expected a finite number")
    return complex(real(z.real, what, error), real(z.imag, what, error))


def sequence(x, what: str, error: type[Exception]):
    """The one sequence rule: iter(x), still lazy, for an iterable x that is not a str or bytes."""
    if not isinstance(x, (str, bytes)):
        with suppress(TypeError):
            return iter(x)
    raise error(f"{what}: expected a sequence")


def as_built(cls, **fields):
    """The one store of a frozen object the package built: its fields as given, with no reader."""
    new = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(new, name, value)
    return new


@dataclass(frozen=True)
class Tolerances:
    """Scale-relative tolerance bundle used across the package.

    slack multiplies (1 + scale) for the hermiticity and positivity
    slack psd(scale); num is the generic comparison tolerance for
    identities that hold exactly in real arithmetic.  Both are finite reals > 0.
    """

    slack: float = 1e-10
    num: float = 1e-8

    def __post_init__(self):
        if min(real(vars(self)[k], f"tolerance {k}", DomainError) for k in ("slack", "num")) <= 0.0:
            raise DomainError("tolerances slack and num: expected numbers > 0")

    def psd(self, scale: float) -> float:
        return self.slack * (1.0 + scale)


# Largest side of a dense matrix a command builds from a small input: the
# ambient dimension of a built-in chain (ten qubit sites, or 1024 diagonal
# coordinates) and purify's doubled side n^2 (n <= 32).
MAX_CHAIN_DIM = 1024


def rank_cut(dim: int, lam_max: float) -> float:
    """Eigenvalues this small, dim * EPS * lam_max, count as zero."""
    return dim * EPS * lam_max


DEFAULT_TOL = Tolerances()
_IN_FORCE: ContextVar[Tolerances] = ContextVar("tolerances", default=DEFAULT_TOL)


def tolerances() -> Tolerances:
    """The Tolerances in force, read by every check when it runs."""
    return _IN_FORCE.get()


@contextmanager
def using(tol: Tolerances):
    """Put tol in force for the block; the previous value returns on any exit."""
    token = _IN_FORCE.set(tol)
    try:
        yield tol
    finally:
        _IN_FORCE.reset(token)
