"""Parameter spaces for the three model families.

DegreeSequence covers the discrete regimes: a "tree" sequence satisfies
sum(d) = s - 2, a "surplus" sequence with surplus k satisfies
sum(d) = s + 2k - 2 (each vertex Vi has degree d_i + 1, so the handshake
identity 2|E| = sum(d) + s pins the sum), and a "half-edge" sequence only
needs an even sum.  PVector and ThetaVector hold the two continuum
regimes, truncated to finite support with the leftover mass folded into
p_inf / theta0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import NegativeEntry, NotSorted, SumMismatch, ValidationError

KIND_TREE = "tree"
KIND_SURPLUS = "surplus"
KIND_HALF_EDGE = "half-edge"

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class DegreeSequence:
    degrees: tuple
    kind: str = KIND_TREE
    k: int = 0

    def __post_init__(self):  # hashed once; int tuples hash alike in any process
        object.__setattr__(self, "_hash", hash(self.degrees))

    def __hash__(self):
        return hash((self._hash, self.kind, self.k))

    @property
    def s(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def n_zero(self) -> int:
        return sum(1 for d in self.degrees if d == 0)

    @property
    def N(self) -> int:
        return self.n_zero - 2

    @property
    def sigma(self) -> float:
        return math.sqrt(sum(d * (d - 1) for d in self.degrees))

    @property
    def lam(self) -> float:
        return self.sigma / self.s if self.s else 0.0

    def to_tree_kind(self) -> "DegreeSequence":
        """Append 2k zeros to a surplus sequence, giving a tree sequence."""
        if self.kind == KIND_TREE:
            return self
        if self.kind != KIND_SURPLUS:
            raise ValidationError(
                f"only surplus sequences convert to tree kind, not {self.kind}")
        return validate(list(self.degrees) + [0] * (2 * self.k), KIND_TREE)

    def shifted_down(self, k: int) -> "DegreeSequence":
        """Half-edge degrees minus one, as a surplus-k sequence."""
        if self.kind != KIND_HALF_EDGE:
            raise ValidationError("shifted_down applies to half-edge sequences")
        return validate([d - 1 for d in self.degrees], KIND_SURPLUS, k=k)


def validate(raw: Sequence[int], kind: str = KIND_TREE, k: int = 0) -> DegreeSequence:
    """Check a raw integer list against the invariants of its kind; degrees
    are positional (vertex Vi gets degree d_i + 1), so their order is kept."""
    degrees = _integral(raw, "degrees must be integers")
    if any(d < 0 for d in degrees):
        raise NegativeEntry(f"negative degree in {raw}")
    s, total = len(degrees), sum(degrees)
    if kind == KIND_TREE:
        if total != s - 2:
            raise SumMismatch(f"tree sequence needs sum {s - 2}, got {total}")
        k = 0
    elif kind == KIND_SURPLUS:
        k, = _integral([k], "surplus k must be an integer")
        if k < 0:
            raise ValidationError("surplus k must be >= 0")
        if s == 0:
            raise ValidationError("a surplus sequence needs at least one vertex")
        if total != s + 2 * k - 2:
            raise SumMismatch(
                f"surplus-{k} sequence needs sum {s + 2 * k - 2}, got {total}")
    elif kind == KIND_HALF_EDGE:
        if total % 2 != 0:
            raise SumMismatch(f"half-edge sequence needs an even sum, got {total}")
        k = 0
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    return DegreeSequence(tuple(degrees), kind, k)


def _integral(values, message: str) -> list:
    """values as ints, or ValidationError(message) unless each is integral
    and none is a bool (a JSON true or false)."""
    try:
        out = [int(x) for x in values if not isinstance(x, bool)]
        if out == list(values):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(message)


def _check_real(name: str, values) -> None:
    """Each value is an int, a Fraction (both always finite) or a finite
    float, and none is a bool (a JSON true or false)."""
    if not all(not isinstance(x, bool) and (isinstance(x, numbers.Rational)
               or isinstance(x, numbers.Real) and math.isfinite(x))
               for x in values):
        raise ValidationError(f"{name} entries must be finite real numbers")


@dataclass(frozen=True)
class PVector:
    p: tuple
    p_inf: float = 0.0

    def __post_init__(self):
        _check_real("p", (*self.p, self.p_inf))
        # p may be empty only in the degenerate all-remainder case p_inf = 1
        if self.p and self.p[0] <= 0:
            raise ValidationError("p_1 must be positive")
        if any(self.p[i] < self.p[i + 1] for i in range(len(self.p) - 1)):
            raise NotSorted("p must be non-increasing")
        if any(x <= 0 for x in self.p):
            raise ValidationError("p entries must be positive")
        if self.p_inf < 0:
            raise NegativeEntry("p_inf must be non-negative")
        if abs(sum(self.p) + self.p_inf - 1) > NORMALIZATION_TOL:
            raise SumMismatch("p entries plus p_inf must sum to 1")

    @property
    def s(self) -> int:
        return len(self.p)

    @property
    def sigma(self) -> float:
        return math.sqrt(sum(float(x) ** 2 for x in self.p))


@dataclass(frozen=True)
class ThetaVector:
    theta0: float = 0.0
    theta: tuple = ()

    def __post_init__(self):
        _check_real("theta", (self.theta0, *self.theta))
        if self.theta0 < 0 or any(t < 0 for t in self.theta):
            raise NegativeEntry("theta entries must be non-negative")
        if any(self.theta[i] < self.theta[i + 1] for i in range(len(self.theta) - 1)):
            raise NotSorted("theta must be non-increasing")
        norm = self.theta0 ** 2 + sum(t ** 2 for t in self.theta)
        if abs(norm - 1) > NORMALIZATION_TOL:
            raise SumMismatch("theta0^2 + sum(theta_i^2) must equal 1")

    @property
    def mu_infinite(self) -> bool:
        # Finite support means sum(theta) < inf, so only theta0 decides.
        return self.theta0 > 0


@dataclass(frozen=True)
class RegimeGap:
    """Per-index convergence-regime diagnostics, purely numeric."""
    target_kind: str
    gaps: tuple
    s: int
    d1_over_s: float
    d1_over_s_small: bool = field(default=False)

    def max_gap(self) -> float:
        return max(self.gaps) if self.gaps else 0.0


def regime_gap(dn: DegreeSequence, target) -> RegimeGap:
    """Gaps |d_i/s - p_i| (P target) or |d_i/sigma - theta_i| (Theta target)."""
    s = dn.s
    d1_over_s = dn.degrees[0] / s if s else 0.0
    if isinstance(target, PVector):
        ratios = [d / s for d in dn.degrees]
        ref = list(target.p)
        kind = "P"
    elif isinstance(target, ThetaVector):
        sigma = dn.sigma
        ratios = [d / sigma if sigma > 0 else math.inf for d in dn.degrees]
        ref = list(target.theta)
        kind = "Theta"
    else:
        raise ValidationError("target must be a PVector or ThetaVector")
    n = max(len(ref), sum(1 for d in dn.degrees if d > 0))
    gaps = tuple(abs((ratios[i] if i < len(ratios) else 0.0)
                     - (ref[i] if i < len(ref) else 0.0))
                 for i in range(n))
    return RegimeGap(kind, gaps, s, d1_over_s, d1_over_s < 0.1)


def as_fraction(x) -> Fraction:
    """Exact Fraction view of a parameter that is already rational."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x).limit_denominator(10 ** 12)
