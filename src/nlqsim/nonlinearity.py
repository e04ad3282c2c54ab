"""Catalog of amplitude nonlinearities and their reduced odd forms.

A nonlinearity is a function ``kappa: [0, 1] -> R`` applied diagonally to
state amplitudes, ``(K psi)_x = kappa(|psi_x|) psi_x``, scaled by a strength
``g``.  Qubit dynamics depend on it only through the reduced odd function

    kbar(z) = kappa(sqrt((1+z)/2)) - kappa(sqrt((1-z)/2)),   z in [-1, 1].

The catalog covers the quadratic (Gross-Pitaevskii) form ``g x^2`` with
``kbar(z) = g z``, the logarithmic form ``g ln(x^2)`` with
``kbar(z) = g ln((1+z)/(1-z))``, a square-root-sign construction with
``kbar(z) = g sgn(z) sqrt(|z|)``, the quartic difference ``g (x^2 - x^4)``
with ``kbar == 0``, and tabulated custom functions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._ode import real_number

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Evaluation of the logarithmic reduction is clamped away from the poles at
# z = +-1; discrimination trajectories with alpha0 in (0, pi) never reach them.
LOG_POLE_CLAMP = 1e-12

# Floor on |amplitude| when evaluating the logarithmic kappa directly (the
# reduced form is clamped separately); keeps diagonal terms finite when a
# state-vector component passes through zero.
LOG_AMPLITUDE_FLOOR = 1e-12

# Half-width of the central difference that gives kappa' of custom kinds:
# about eps^(1/3), where truncation and rounding errors balance.
KAPPA_PRIME_STEP = 2.0 ** -17


class Kind(enum.Enum):
    GROSS_PITAEVSKII = "gp"
    LOGARITHMIC = "log"
    SQUARE_ROOT_SIGN = "sqrt"
    QUARTIC_DIFFERENCE = "quartic"
    PIECEWISE_CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """A cataloged nonlinearity kappa with strength g.

    ``g`` is in units of 1/time and must be nonnegative (g = 0 turns the
    nonlinear term off, which the N-dimensional integrator and the search
    lower-bound audit rely on; the discrimination protocols require g > 0
    and report no progress otherwise).
    """

    kind: Kind
    g: float = 1.0
    custom_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""
    # The reduction itself (times g) where it is known exactly, as for
    # ``from_odd_function``; ``reduce`` evaluates it instead of the difference.
    kbar_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise ValueError(f"nonlinearity kind must be a Kind, got {self.kind!r}")
        real_number("nonlinearity strength", self.g, 0.0, ends="[)")
        if self.kind is Kind.PIECEWISE_CUSTOM and self.custom_fn is None:
            raise ValueError("piecewise custom nonlinearity needs an evaluation function")

    def kappa(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate kappa(x) for x in [0, 1] (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind is Kind.GROSS_PITAEVSKII:
            out = self.g * x * x
        elif self.kind is Kind.LOGARITHMIC:
            xf = np.maximum(x, LOG_AMPLITUDE_FLOOR)
            out = self.g * 2.0 * np.log(xf)
        elif self.kind is Kind.SQUARE_ROOT_SIGN:
            out = self.g * np.sqrt(np.maximum(2.0 * x * x - 1.0, 0.0))
        elif self.kind is Kind.QUARTIC_DIFFERENCE:
            x2 = x * x
            out = self.g * (x2 - x2 * x2)
        else:
            out = self.g * np.asarray(self.custom_fn(x), dtype=float).reshape(x.shape)
        return out if out.ndim else float(out)

    def kappa_prime(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate dkappa/dx for x in [0, 1] (vectorized); 0 where kappa is flat
        by construction (log below its amplitude floor, sqrt up to 1/sqrt(2)).
        Custom kinds take a central difference of ``kappa`` kept inside [0, 1]."""
        x = np.asarray(x, dtype=float)
        g = self.g
        if self.kind is Kind.GROSS_PITAEVSKII:
            out = 2.0 * g * x
        elif self.kind is Kind.LOGARITHMIC:
            above = x > LOG_AMPLITUDE_FLOOR
            out = np.where(above, 2.0 * g / np.where(above, x, 1.0), 0.0)
        elif self.kind is Kind.SQUARE_ROOT_SIGN:
            above = x > INV_SQRT2
            out = np.where(above, 2.0 * g * x / np.sqrt(np.where(above, 2.0 * x * x - 1.0, 1.0)),
                           0.0)
        elif self.kind is Kind.QUARTIC_DIFFERENCE:
            out = g * (2.0 * x - 4.0 * x ** 3)
        else:
            lo = np.maximum(x - KAPPA_PRIME_STEP, 0.0)
            hi = np.minimum(x + KAPPA_PRIME_STEP, 1.0)
            out = (np.asarray(self.kappa(hi)) - np.asarray(self.kappa(lo))) / (hi - lo)
        return out if out.ndim else float(out)

    def spec_string(self) -> str:
        """Textual form accepted by :func:`parse`."""
        if self.kind is Kind.PIECEWISE_CUSTOM:
            base = self.label or "custom"
            return f"{base}:{self.g:g}"
        return f"{self.kind.value}:{self.g:g}"


def gross_pitaevskii(g: float = 1.0) -> Nonlinearity:
    return Nonlinearity(Kind.GROSS_PITAEVSKII, g)


def logarithmic(g: float = 1.0) -> Nonlinearity:
    return Nonlinearity(Kind.LOGARITHMIC, g)


def square_root_sign(g: float = 1.0) -> Nonlinearity:
    return Nonlinearity(Kind.SQUARE_ROOT_SIGN, g)


def quartic_difference(g: float = 1.0) -> Nonlinearity:
    return Nonlinearity(Kind.QUARTIC_DIFFERENCE, g)


def piecewise_from_table(x: Sequence[float], y: Sequence[float], g: float = 1.0,
                         label: str = "custom") -> Nonlinearity:
    """Custom kappa from samples on a monotone grid covering [0, 1].

    Uses monotone (PCHIP) cubic interpolation, which preserves the
    monotonicity the bound checkers rely on.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("custom table needs matching 1-d x and y of at least 2 samples, "
                         f"got shapes {x.shape} and {y.shape}")
    k = np.flatnonzero(~(np.diff(x) > 0.0))  # NaN fails too
    if len(k):
        raise ValueError("custom table grid must be strictly increasing, got "
                         f"x[{k[0]}:{k[0] + 2}] = {x[k[0]:k[0] + 2].tolist()}")
    if x[0] > 1e-9 or x[-1] < 1.0 - 1e-9:
        raise ValueError(f"custom table must cover [0, 1], got {x[[0, -1]].tolist()}")
    from scipy.interpolate import PchipInterpolator  # slow to import; only tables use it
    interp = PchipInterpolator(x, y, extrapolate=False)

    def fn(v):
        return interp(np.clip(v, x[0], x[-1]))

    return Nonlinearity(Kind.PIECEWISE_CUSTOM, g, custom_fn=fn, label=label)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def piecewise_from_csv(path, g: float = 1.0) -> Nonlinearity:
    """Load a custom kappa from a two-column CSV of (x, kappa(x)) samples.

    Blank lines, ``#`` lines and one leading header row with no number in it
    are skipped; any other row that is not two finite numbers is refused with
    its line number.
    """
    xs, ys = [], []
    header_ok = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                x, y = map(float, row)
            except ValueError:
                x = y = math.nan
            if math.isfinite(x) and math.isfinite(y):
                xs.append(x)
                ys.append(y)
            elif not header_ok or any(map(_is_number, row)):
                raise ValueError(f"custom table {path}, line {reader.line_num}: expected two "
                                 f"finite numbers x,kappa(x), got {','.join(row)!r}")
            header_ok = False
    return piecewise_from_table(xs, ys, g=g, label="custom")


def parse(spec: str) -> Nonlinearity:
    """Parse a ``kind[:g]`` string such as ``gp:1.0``, ``log:0.5``, ``sqrt``,
    ``quartic``, or ``custom:<csv-path>[:g]``, g = 1 if left out; any other
    spec (more fields, no path, a g that is no number) is refused by name."""
    parts = spec.strip().split(":")
    try:
        kind = Kind(parts[0].lower())
    except ValueError:
        raise ValueError(f"unknown nonlinearity kind in {spec!r}") from None
    at = 2 if kind is Kind.PIECEWISE_CUSTOM else 1  # the field of g, after a custom path
    if not at <= len(parts) <= at + 1 or "" in parts[1:at]:
        raise ValueError(f"nonlinearity spec must be kind[:g] or custom:<path>[:g], got {spec!r}")
    try:
        g = float(parts[at]) if len(parts) > at else 1.0
    except ValueError:
        raise ValueError(f"nonlinearity strength in {spec!r} must be a number, "
                         f"got {parts[at]!r}") from None
    if at == 2:
        return piecewise_from_csv(parts[1], g=g)
    return Nonlinearity(kind, g)


def build_from_mu_nu(mu: Callable, nu: Callable, label: str = "mu-nu") -> Nonlinearity:
    """Assemble the piecewise kappa realizing a chosen odd reduction.

    With ``kappa(x) = mu(x)`` on [0, 1/sqrt(2)] and
    ``kappa(x) = nu(sqrt(1 - x^2))`` on (1/sqrt(2), 1], the reduction is
    ``kbar(z) = nu(sqrt((1-z)/2)) - mu(sqrt((1-z)/2))`` for z in (0, 1].

    ``mu`` and ``nu`` are vectorized callables on [0, 1/sqrt(2)]; a tabulated
    kappa comes in through :func:`piecewise_from_table` instead.
    """
    for name, branch in (("mu", mu), ("nu", nu)):
        if not callable(branch):
            raise ValueError(f"{name} must be callable, got {type(branch).__name__}")

    def fn(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lower = x <= INV_SQRT2
        out = np.empty_like(x)
        out[lower] = np.asarray(mu(x[lower]), dtype=float)
        hi = ~lower
        out[hi] = np.asarray(nu(np.sqrt(np.maximum(1.0 - x[hi] ** 2, 0.0))), dtype=float)
        return out

    return Nonlinearity(Kind.PIECEWISE_CUSTOM, 1.0, custom_fn=fn, label=label)


def from_odd_function(kbar_fn: Callable, label: str = "synthetic") -> Nonlinearity:
    """Nonlinearity whose reduction is the given odd function ``kbar_fn``.

    kappa is the mu/nu construction with mu = 0 and nu(x) = kbar_fn(1 - 2 x^2),
    whose defining difference reproduces ``kbar_fn`` up to rounding; ``reduce``
    evaluates ``kbar_fn`` itself, which keeps full relative precision near z = 0.
    """
    n = build_from_mu_nu(
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.asarray(kbar_fn(1.0 - 2.0 * np.asarray(x) ** 2), dtype=float),
        label=label,
    )
    return replace(n, kbar_fn=kbar_fn)


@dataclass(frozen=True, eq=False)
class ReducedNonlinearity:
    """The odd function kbar(z) that fully determines qubit dynamics."""

    source: Nonlinearity

    def __call__(self, z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        z = np.asarray(z, dtype=float)
        # Closed forms avoid the cancellation of the generic formula near z = 0.
        kind, g = self.source.kind, self.source.g
        if kind is Kind.GROSS_PITAEVSKII:
            out = g * z
        elif kind is Kind.LOGARITHMIC:
            out = 2.0 * g * np.arctanh(z.clip(-1.0 + LOG_POLE_CLAMP, 1.0 - LOG_POLE_CLAMP))
        elif kind is Kind.SQUARE_ROOT_SIGN:
            out = g * np.sign(z) * np.sqrt(np.abs(z))
        elif kind is Kind.QUARTIC_DIFFERENCE:
            out = np.zeros_like(z)
        elif self.source.kbar_fn is not None:
            out = g * np.asarray(self.source.kbar_fn(z), dtype=float).reshape(z.shape)
        else:
            return self.generic(z)
        return out if out.ndim else float(out)

    def generic(self, z: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate kbar via the defining difference of kappa values."""
        z = np.asarray(z, dtype=float)
        if self.source.kind is Kind.LOGARITHMIC:
            z = np.clip(z, -1.0 + LOG_POLE_CLAMP, 1.0 - LOG_POLE_CLAMP)
        zp = np.sqrt(np.clip((1.0 + z) / 2.0, 0.0, 1.0))
        zm = np.sqrt(np.clip((1.0 - z) / 2.0, 0.0, 1.0))
        out = np.asarray(self.source.kappa(zp)) - np.asarray(self.source.kappa(zm))
        out = out.reshape(z.shape)
        return out if out.ndim else float(out)


def weighted_overlap_derivative(w, psi, phi):
    """Nonlinear part of d<psi|phi>/dt when both states share the flow,
    i sum_x w_x psi_x^* phi_x, from weights w = kappa(|psi|) - kappa(|phi|)
    that the caller has evaluated; summed along the last axis (leading axes
    are batch axes)."""
    return 1j * np.add.reduce(w * np.conj(psi) * phi, axis=-1)


def reduce(n: Nonlinearity) -> ReducedNonlinearity:
    """Reduced odd form of a nonlinearity; kbar(-z) = -kbar(z), kbar(0) = 0."""
    if not isinstance(n, Nonlinearity):
        raise ValueError(f"reduce needs a Nonlinearity, got {type(n).__name__}")
    return ReducedNonlinearity(n)
