"""Domain exceptions. The CLI maps these to exit code 1."""

from __future__ import annotations


class ToruslabError(Exception):
    """Base class for all domain errors raised by this package."""

    def detail(self) -> dict:
        """Machine-readable payload for structured error records."""
        return {}


class ResonanceFound(ToruslabError):
    """A lattice vector with |n . alpha| below threshold exists in the ball."""

    def __init__(self, n: tuple[int, ...], value: float):
        self.n = tuple(int(v) for v in n)
        self.value = float(value)
        super().__init__(f"resonance at n={self.n}, |n.alpha|={self.value:.3e}")

    def detail(self) -> dict:
        return {"n": list(self.n), "value": repr(self.value)}


class BadSchedule(ToruslabError):
    """Liouville schedule is not a strictly increasing positive sequence."""


class ResonantMode(ToruslabError):
    """Data carries a nonzero coefficient on a resonant frequency."""

    def __init__(self, n: tuple[int, ...], divisor: float):
        self.n = tuple(int(v) for v in n)
        self.divisor = float(divisor)
        super().__init__(
            f"mode n={self.n} is resonant (n.alpha={self.divisor:.3e}); "
            "the equation is obstructed beyond the mean"
        )

    def detail(self) -> dict:
        return {"n": list(self.n), "divisor": repr(self.divisor)}


class TwistRouteMismatch(ToruslabError):
    """The boundary and form routes of a twisted evaluation disagree."""

    def __init__(self, via_boundary: float, via_form: float):
        super().__init__(
            f"twisted evaluation routes disagree: {float(via_boundary)!r} vs {float(via_form)!r}"
        )


class EndpointMismatch(ToruslabError):
    """Curve endpoints that must coincide on the torus do not."""


class StaleLocation(ToruslabError):
    """A retraced-arc location no longer matches the family it was found in."""


class BasepointMismatch(ToruslabError):
    """Operands are anchored at different basepoints."""


class SeparationNotFound(ToruslabError):
    """No form in the finite test battery separates the two points.

    This is inconclusive at finite battery size, never a refutation.
    """
