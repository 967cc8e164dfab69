"""Sparse trigonometric polynomials and one-forms on T^d.

Frequency-side calculus for the linear flow: the derivative along alpha acts
mode-by-mode as multiplication by 2*pi*i*(n . alpha), so inverting it is a
division with small divisors, screened by the one resonance rule
torus_flow.divisors. Storage is a dict keyed by integer frequency
vectors; real-valued data means Hermitian symmetry c(-n) = conj(c(n)), which
is enforced at construction and completed when only one partner is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .torus_flow import RESONANCE_EPS, DirectionVector, divisors

TWO_PI = 2.0 * math.pi

_HERMITIAN_TOL = 1e-12


def _as_mode(n) -> tuple[int, ...]:
    return tuple(int(v) for v in n)


class TrigPoly:
    """Real trigonometric polynomial sum_n c(n) exp(2*pi*i n.x)."""

    __slots__ = ("d", "modes")

    def __init__(self, d: int, modes: Mapping | None = None):
        d = int(d)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        cleaned: dict[tuple[int, ...], complex] = {}
        for n, c in (modes or {}).items():
            n = _as_mode(n)
            if len(n) != d:
                raise ValueError(f"mode {n} does not have dimension {d}")
            c = complex(c)
            if c != 0.0:
                cleaned[n] = cleaned.get(n, 0.0) + c
        # Hermitian closure: verify given partners, then complete missing ones
        for n, c in list(cleaned.items()):
            m = tuple(-v for v in n)
            if m == n:
                if abs(c.imag) > _HERMITIAN_TOL * max(1.0, abs(c)):
                    raise ValueError("zero-frequency coefficient must be real")
                cleaned[n] = complex(c.real, 0.0)
            elif m in cleaned:
                if abs(cleaned[m] - c.conjugate()) > _HERMITIAN_TOL * max(1.0, abs(c)):
                    raise ValueError(f"coefficients at {n} and {m} are not conjugate")
            else:
                cleaned[m] = c.conjugate()
        self.d = d
        self.modes = {n: c for n, c in cleaned.items() if c != 0.0}

    @classmethod
    def constant(cls, d: int, value: float) -> "TrigPoly":
        return cls(d, {(0,) * d: complex(value)} if value else {})

    @classmethod
    def cosine(cls, n, amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * cos(2*pi n.x)"""
        n = _as_mode(n)
        half = 0.5 * amplitude
        return cls(len(n), {n: half, tuple(-v for v in n): half})

    @classmethod
    def sine(cls, n, amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * sin(2*pi n.x)"""
        n = _as_mode(n)
        half = 0.5 * amplitude
        return cls(len(n), {n: -1j * half, tuple(-v for v in n): 1j * half})

    @property
    def is_zero(self) -> bool:
        return not self.modes

    def coeff(self, n) -> complex:
        return self.modes.get(_as_mode(n), 0.0 + 0.0j)

    def mean(self) -> float:
        return self.coeff((0,) * self.d).real

    def __call__(self, point) -> float:
        coords = np.asarray(getattr(point, "coords", point), dtype=float)
        total = 0.0 + 0.0j
        for n, c in self.modes.items():
            total += c * np.exp(TWO_PI * 1j * float(np.dot(n, coords)))
        return float(total.real)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self.modes)
        for n, c in other.modes.items():
            out[n] = out.get(n, 0.0) + c
        return TrigPoly(self.d, out)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-1.0) * other

    def __neg__(self) -> "TrigPoly":
        return (-1.0) * self

    def __mul__(self, scalar: float) -> "TrigPoly":
        s = complex(scalar)
        return TrigPoly(self.d, {n: s * c for n, c in self.modes.items()})

    __rmul__ = __mul__

    def allclose(self, other: "TrigPoly", tol: float = 1e-12) -> bool:
        keys = set(self.modes) | set(other.modes)
        return all(abs(self.coeff(n) - other.coeff(n)) <= tol for n in keys)

    def __repr__(self) -> str:
        return f"TrigPoly(d={self.d}, modes={len(self.modes)})"


class OneForm:
    """A 1-form sum_j p_j(x) dx_j with trig-polynomial components."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[TrigPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("a one-form needs at least one component")
        d = components[0].d
        if len(components) != d or any(p.d != d for p in components):
            raise ValueError("need exactly d components of dimension d")
        self.components = components

    @classmethod
    def dx(cls, d: int, j: int) -> "OneForm":
        """The constant coordinate form dx_j (j is 0-based)."""
        comps = [TrigPoly.constant(d, 1.0 if i == j else 0.0) for i in range(d)]
        return cls(comps)

    @classmethod
    def modulated(cls, trig: str, n, j: int) -> "OneForm":
        """cos/sin(2*pi n.x) dx_j."""
        n = _as_mode(n)
        d = len(n)
        factory = TrigPoly.cosine if trig == "cos" else TrigPoly.sine
        comps = [factory(n) if i == j else TrigPoly.constant(d, 0.0) for i in range(d)]
        return cls(comps)

    @property
    def d(self) -> int:
        return len(self.components)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm([a + b for a, b in zip(self.components, other.components, strict=True)])

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm([a - b for a, b in zip(self.components, other.components, strict=True)])

    def __mul__(self, scalar: float) -> "OneForm":
        return OneForm([scalar * p for p in self.components])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"OneForm(d={self.d})"


@dataclass(frozen=True)
class CohomologySolution:
    """Zero-mean solution h, mean c and the small-divisor amplification.

    The solved equation is (derivative along alpha of h) = f - c; the pair
    (h, c) is unique once h is normalized to zero mean. amplification is the
    worst |h_n| / |f_n| over modes, clamped to >= 1.
    """

    h: TrigPoly
    c: float
    amplification: float


def lie_derivative(f: TrigPoly, alpha: DirectionVector) -> TrigPoly:
    """Derivative of f along the flow: mode n picks up 2*pi*i*(n . alpha)."""
    if f.d != alpha.d:
        raise ValueError("dimension mismatch")
    out = {n: TWO_PI * 1j * alpha.dot(n) * c for n, c in f.modes.items()}
    return TrigPoly(f.d, out)


def solve_cohomological(
    f: TrigPoly, alpha: DirectionVector, eps_res: float = RESONANCE_EPS
) -> CohomologySolution:
    """Invert the flow derivative on trig polynomials.

    h_n = f_n / (2*pi*i*(n . alpha)) for n != 0, c = mean(f). A carried
    nonzero mode that torus_flow.divisors calls resonant raises ResonantMode;
    a resonant frequency that f does not carry is harmless.
    """
    if f.d != alpha.d:
        raise ValueError("dimension mismatch")
    zero = (0,) * f.d
    modes = [n for n in f.modes if n != zero]
    div = divisors(alpha, modes, eps_res).tolist()
    h_modes = {n: f.modes[n] / (TWO_PI * 1j * dn) for n, dn in zip(modes, div)}
    worst = max([1.0] + [1.0 / (TWO_PI * abs(dn)) for dn in div])
    return CohomologySolution(h=TrigPoly(f.d, h_modes), c=f.mean(), amplification=worst)


def exterior_derivative(f: TrigPoly) -> OneForm:
    """df: component j of mode n is 2*pi*i*n_j*f_n."""
    comps = []
    for j in range(f.d):
        modes = {n: TWO_PI * 1j * n[j] * c for n, c in f.modes.items() if n[j]}
        comps.append(TrigPoly(f.d, modes))
    return OneForm(comps)
