"""Polygonal curve words on the torus and the retraced-arc excision calculus.

A curve is three arrays: a basepoint lift (d,), one displacement per
segment (S, d), and a flow mask (S,) labelling each piece flow or
transverse. A curve does not know the direction vector, so the labels are
taken as given; two pieces match in excision only if their labels agree.
Segment start lifts are the running sums of the displacements from the
basepoint, so consecutive segments are incident by construction.
Everything below works on index ranges of those arrays. Retraced-arc
detection works modulo the integer lattice: an arc and its reversal may
sit in different fundamental-domain copies. The boundary of a curve or
family is a ZeroCurrent, the one signed point-mass type of the package.

Matching is exact up to MATCH_TOL = 1e-12; synthetic inputs realize their
coincidences exactly, near misses are left alone. When a retraced overlap
covers part of a segment, the segment is split at the overlap boundary
before any rewrite, so excision always removes whole segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EndpointMismatch, StaleLocation
from .torus_flow import TORUS_TOL, TorusPoint, circle_dist, reduce_mod1

MATCH_TOL = 1e-12      # retraced arcs must coincide to this, lift and mod 1
MIN_OVERLAP = 1e-9     # anti-parallel overlaps shorter than this are noise
_FRACTION_TOL = 1e-9   # split points closer than this to 0/1 are dropped

_KINDS = ("flow", "transverse")
# Checked per segment in this order; a curve reports its first bad segment.
_PROBLEMS = (
    f"kind must be one of {_KINDS}",
    "segment displacement must be nonzero",
)


class PiecewiseCurve:
    """A finite word of segments with a continuous lift.

    Held as basepoint_lift (d,), displacements (S, d) and flow (S,); starts
    and end_lift are the running sums of the displacements. Treated as
    immutable; every operation returns a new curve. The empty word,
    PiecewiseCurve(x), is the trivial curve at x.
    """

    __slots__ = ("basepoint_lift", "displacements", "flow", "_lifts")

    def __init__(self, basepoint_lift, displacements=(), kinds=()):
        """kinds is a kind name per segment, or the flow mask itself.

        Every segment is checked in one pass: known kind and nonzero step.
        """
        bp = np.array(getattr(basepoint_lift, "coords", basepoint_lift), dtype=float)
        if bp.ndim != 1 or bp.size < 1:
            raise ValueError("basepoint must be a nonempty vector")
        disps = np.array(displacements, dtype=float)
        if not len(disps):
            disps = disps.reshape(0, bp.size)
        if disps.ndim != 2 or disps.shape[1] != bp.size:
            raise ValueError("displacements must be an (S, d) array")
        if isinstance(kinds, np.ndarray) and kinds.dtype == bool:
            flow, unknown = kinds.copy(), np.zeros(kinds.shape, dtype=bool)
        else:
            names = [k if isinstance(k, str) else "" for k in kinds]
            flow = np.array([k == "flow" for k in names], dtype=bool)
            unknown = np.array([k not in _KINDS for k in names], dtype=bool)
        if flow.shape != (len(disps),):
            raise ValueError("kinds must name every segment")
        bad = np.stack([unknown, np.max(np.abs(disps), axis=1, initial=0.0) < 1e-15])
        if bad.any():
            first = int(np.argmax(bad.any(axis=0)))
            raise ValueError(_PROBLEMS[int(np.argmax(bad[:, first]))])
        # sequential running sums: lift of every segment start, then the end
        lifts = np.cumsum(np.vstack([bp, disps]), axis=0)
        for arr in (bp, disps, flow, lifts):
            arr.flags.writeable = False  # shared by views such as starts
        self.basepoint_lift, self.displacements, self.flow, self._lifts = bp, disps, flow, lifts

    @classmethod
    def from_steps(cls, basepoint_lift,
                   steps: Iterable[tuple[str, Sequence[float]]]) -> "PiecewiseCurve":
        """Build from (kind, displacement) steps, validated as the constructor does."""
        steps = list(steps)
        return cls(basepoint_lift, [v for _, v in steps], [k for k, _ in steps])

    @property
    def d(self) -> int:
        return self.basepoint_lift.size

    @property
    def n_segments(self) -> int:
        return len(self.displacements)

    @property
    def is_trivial(self) -> bool:
        return not self.n_segments

    @property
    def starts(self) -> np.ndarray:
        """(S, d) lifts of the segment starts."""
        return self._lifts[:-1]

    @property
    def start_lift(self) -> np.ndarray:
        return self.basepoint_lift

    @property
    def end_lift(self) -> np.ndarray:
        return self._lifts[-1]

    @property
    def start(self) -> TorusPoint:
        return TorusPoint(self.start_lift)

    @property
    def end(self) -> TorusPoint:
        return TorusPoint(self.end_lift)

    @property
    def is_closed(self) -> bool:
        return circle_dist(self.start_lift, self.end_lift) <= TORUS_TOL

    @property
    def lengths(self) -> np.ndarray:
        """Euclidean length of every segment, one np.linalg.norm per row.

        The axis=1 form of the norm rounds some rows differently, and the
        lengths reach split fractions and reported totals.
        """
        return np.array([np.linalg.norm(v) for v in self.displacements])

    @property
    def total_length(self) -> float:
        return float(sum(self.lengths.tolist()))  # left to right, not pairwise

    def reverse(self) -> "PiecewiseCurve":
        return PiecewiseCurve(self.end_lift, -self.displacements[::-1], self.flow[::-1])

    def __repr__(self) -> str:
        return (
            f"PiecewiseCurve({self.basepoint_lift.tolist()}, "
            f"{self.n_segments} segments)"
        )


def concatenate(g1: PiecewiseCurve, g2: PiecewiseCurve) -> PiecewiseCurve:
    """g1 followed by g2; g2's lifts are rebased onto g1's end lift.

    The junction must agree on the torus within TORUS_TOL.
    """
    if g1.d != g2.d:
        raise ValueError("dimension mismatch")
    if circle_dist(g1.end_lift, g2.start_lift) > TORUS_TOL:
        raise EndpointMismatch(
            f"cannot concatenate: gap {circle_dist(g1.end_lift, g2.start_lift):.3e}"
        )
    return PiecewiseCurve(
        g1.start_lift,
        np.concatenate([g1.displacements, g2.displacements]),
        np.concatenate([g1.flow, g2.flow]),
    )


class CurveFamily:
    """An ordered finite multiset of curves."""

    def __init__(self, curves: Iterable[PiecewiseCurve]):
        self.curves = tuple(curves)
        if self.curves:
            d = self.curves[0].d
            if any(c.d != d for c in self.curves):
                raise ValueError("family members must share a dimension")

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[PiecewiseCurve]:
        return iter(self.curves)

    def __getitem__(self, i: int) -> PiecewiseCurve:
        return self.curves[i]

    @property
    def total_length(self) -> float:
        return float(sum(c.total_length for c in self.curves))

    def __repr__(self) -> str:
        return f"CurveFamily({len(self.curves)} curves)"


def _fingerprint(family: CurveFamily) -> tuple:
    return tuple(
        (c.basepoint_lift.tobytes(), c.displacements.tobytes(), c.flow.tobytes())
        for c in family
    )


@dataclass(frozen=True)
class RetracedArcLocation:
    """Where a retraced arc sits, expressed in the split family.

    The arc r occupies segments [start_a, start_a + length) of curve
    curve_a; its reversal occupies [start_b, start_b + length) of curve
    curve_b (traversed so that segment start_b + t reverses segment
    start_a + length - 1 - t). For a single-curve match curve_a == curve_b
    and the r block ends strictly before the reversal block starts.
    """

    fingerprint: tuple
    split: CurveFamily
    curve_a: int
    start_a: int
    curve_b: int
    start_b: int
    length: int
    arc_length: float

    @property
    def same_curve(self) -> bool:
        return self.curve_a == self.curve_b


def _collect_split_fractions(family: CurveFamily) -> dict[int, set[float]]:
    """Anti-parallel overlap boundaries, as parameter fractions per segment.

    Segments are numbered across the family, curve after curve. Works
    modulo the integer lattice: segment s' overlaps segment s when some
    deck translate of s' runs backwards along s's supporting line.
    """
    cuts: dict[int, set[float]] = {}
    if sum(c.n_segments for c in family) < 2:
        return cuts
    starts = np.concatenate([c.starts for c in family])
    disps = np.concatenate([c.displacements for c in family])
    lengths = np.concatenate([c.lengths for c in family])
    units = disps / lengths[:, None]
    pairs = np.argwhere(units @ units.T <= -1.0 + 1e-12)
    for ia, ib in pairs[pairs[:, 0] < pairs[:, 1]].tolist():
        xa, va, la = starts[ia], disps[ia], lengths[ia]
        c = lengths[ib] / la
        r0 = starts[ib] - xa
        jstar = int(np.argmax(np.abs(va)))
        vj = va[jstar]
        a_lo, a_hi = -_FRACTION_TOL, 1.0 + c + _FRACTION_TOL
        # a = (r0[jstar] - k) / vj must land in [a_lo, a_hi]
        k_bounds = sorted((r0[jstar] - a_lo * vj, r0[jstar] - a_hi * vj))
        for k in range(int(np.ceil(k_bounds[0] - 1e-9)), int(np.floor(k_bounds[1] + 1e-9)) + 1):
            a = (r0[jstar] - k) / vj
            kvec = np.round(r0 - a * va)
            if float(np.max(np.abs(r0 - a * va - kvec))) > 1e-9:
                continue
            lo, hi = max(0.0, a - c), min(1.0, a)
            if (hi - lo) * la < MIN_OVERLAP:
                continue
            cuts.setdefault(ia, set()).update((lo, hi))
            cuts.setdefault(ib, set()).update(((a - hi) / c, (a - lo) / c))
    return cuts


def _split_family(family: CurveFamily) -> CurveFamily:
    """Split every segment at its overlap boundaries; rows are pieces."""
    cuts = _collect_split_fractions(family)
    if not cuts:
        return family
    new_curves = []
    first = 0  # family-wide number of the curve's first segment
    for curve in family:
        rows: list[int] = []
        widths: list[float] = []
        for si in range(curve.n_segments):
            points = [0.0]
            for f in sorted(cuts.get(first + si, ())):
                if f - points[-1] > _FRACTION_TOL and 1.0 - f > _FRACTION_TOL:
                    points.append(f)
            points.append(1.0)
            rows += [si] * (len(points) - 1)
            widths += [f1 - f0 for f0, f1 in zip(points, points[1:])]
        first += curve.n_segments
        new_curves.append(PiecewiseCurve(
            curve.basepoint_lift,
            np.array(widths)[:, None] * curve.displacements[rows],
            curve.flow[rows],
        ))
    return CurveFamily(new_curves)


def _reverse_match_table(ca: PiecewiseCurve, cb: PiecewiseCurve) -> np.ndarray:
    """anti[p, q] is True when segment q of cb is the exact reversal of
    segment p of ca, up to a deck translate."""
    da, db = ca.displacements, cb.displacements
    if not len(da) or not len(db):
        return np.zeros((len(da), len(db)), dtype=bool)
    disp_gap = np.max(np.abs(da[:, None, :] + db[None, :, :]), axis=-1)
    starts = reduce_mod1(ca.starts)
    ends = reduce_mod1(cb.starts + db)
    delta = np.abs(starts[:, None, :] - ends[None, :, :]) % 1.0
    pos_gap = np.max(np.minimum(delta, 1.0 - delta), axis=-1)
    kind_ok = ca.flow[:, None] == cb.flow[None, :]
    return (disp_gap <= MATCH_TOL) & (pos_gap <= MATCH_TOL) & kind_ok


def find_retraced_arc(family: CurveFamily) -> RetracedArcLocation | None:
    """Longest retraced arc in the family, None when there is none.

    Segments are first split at every anti-parallel overlap boundary, so the
    reported arc occupies whole segments of the returned split family. Ties
    between equally long arcs break towards the lowest (curve index, segment
    index).
    """
    split = _split_family(family)
    best = None  # (-arc_len, ca, pa, cb, qb, m)
    for i in range(len(split)):
        for j in range(i, len(split)):
            anti = _reverse_match_table(split[i], split[j])
            if not anti.any():
                continue
            lengths = split[i].lengths
            ma, mb = anti.shape
            for p in range(ma):
                for qe in range(mb):
                    if not anti[p, qe]:
                        continue
                    m = 0
                    while (
                        p + m < ma
                        and qe - m >= 0
                        and anti[p + m, qe - m]
                        and (i != j or 2 * (m + 1) <= qe - p + 1)
                    ):
                        m += 1
                    if m == 0:
                        continue
                    arc_len = float(lengths[p : p + m].sum())
                    key = (-arc_len, i, p, j, qe - m + 1, m)
                    if best is None or key < best:
                        best = key
    if best is None:
        return None
    neg_len, ca, pa, cb, qb, m = best
    return RetracedArcLocation(
        fingerprint=_fingerprint(family),
        split=split,
        curve_a=ca,
        start_a=pa,
        curve_b=cb,
        start_b=qb,
        length=m,
        arc_length=-neg_len,
    )


def _rebuild(*pieces: tuple[PiecewiseCurve, int, int]) -> PiecewiseCurve | None:
    """Join the segment ranges [lo, hi) of curves into one curve.

    Empty words are dropped (None). The lifts are re-accumulated from the
    first start; every junction must already agree on the torus (the
    retraced-arc match guarantees it), else EndpointMismatch.
    """
    starts = np.concatenate([c.starts[lo:hi] for c, lo, hi in pieces])
    if not len(starts):
        return None
    joined = PiecewiseCurve(
        starts[0],
        np.concatenate([c.displacements[lo:hi] for c, lo, hi in pieces]),
        np.concatenate([c.flow[lo:hi] for c, lo, hi in pieces]),
    )
    if circle_dist(joined.starts, starts) > 1e-9:
        raise EndpointMismatch("excision produced a discontinuous word")
    return joined


def simple_excision(family: CurveFamily, loc: RetracedArcLocation) -> CurveFamily:
    """Remove one retraced arc, preserving boundary and broad equivalence.

    Single curve a r b r~ c  ->  {a c, b};  two curves a r b and c r~ d ->
    {a d c b} when the second is closed, {a d, c b} when it is open. Empty
    words are dropped.
    """
    if _fingerprint(family) != loc.fingerprint:
        raise StaleLocation("family changed since the arc was located")
    split = loc.split
    m = loc.length
    g1, g2 = split[loc.curve_a], split[loc.curve_b]
    if loc.same_curve:
        a = (g1, 0, loc.start_a)
        b = (g1, loc.start_a + m, loc.start_b)
        c = (g1, loc.start_b + m, g1.n_segments)
        out = [_rebuild(a, c), _rebuild(b)]
    else:
        a, b = (g1, 0, loc.start_a), (g1, loc.start_a + m, g1.n_segments)
        c, d = (g2, 0, loc.start_b), (g2, loc.start_b + m, g2.n_segments)
        out = [_rebuild(a, d, c, b)] if g2.is_closed else [_rebuild(a, d), _rebuild(c, b)]
    result = []
    for k, crv in enumerate(split):
        if k == loc.curve_a:
            result.extend(w for w in out if w is not None)
        elif k != loc.curve_b:
            result.append(crv)
    return CurveFamily(result)


def maximal_excision(family: CurveFamily) -> CurveFamily:
    """Excise retraced arcs, longest first, until none remain.

    Terminates because each step strictly removes twice the arc's length
    from the family's total segment length.
    """
    current = family
    for _ in range(10_000):
        loc = find_retraced_arc(current)
        if loc is None:
            return current
        current = simple_excision(current, loc)
    raise RuntimeError("excision did not terminate; this should be impossible")


class ZeroCurrent:
    """A signed finite point mass on the torus (a current of degree zero).

    Atoms are (point, weight) pairs; points may be TorusPoints or coordinate
    vectors. This is the one merge of signed point masses: each atom joins
    the first kept atom within TORUS_TOL (mod 1), else starts a new one.
    Weights of at most 1e-9 are then dropped, so the empty mass is falsy,
    and the rest are sorted by coordinates.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        merged: list[list] = []
        for point, weight in atoms:
            red = reduce_mod1(getattr(point, "coords", point))
            for atom in merged:
                if circle_dist(atom[0], red) <= TORUS_TOL:
                    atom[1] += weight
                    break
            else:
                merged.append([red, float(weight)])
        kept = [(TorusPoint(c), w) for c, w in merged if abs(w) > 1e-9]
        kept.sort(key=lambda pw: tuple(pw[0].coords.tolist()))
        self.atoms = tuple(kept)

    def pair(self, f) -> float:
        """Pairing with a function: sum of w * f(point)."""
        return float(sum(w * f(p) for p, w in self.atoms))

    def __bool__(self) -> bool:
        return bool(self.atoms)

    def __repr__(self) -> str:
        terms = " ".join(
            f"{w:+g}*d{tuple(np.round(p.coords, 6))}" for p, w in self.atoms
        )
        return f"ZeroCurrent({terms or '0'})"


def boundary_multiset(family: CurveFamily | PiecewiseCurve) -> ZeroCurrent:
    """The boundary: sum over curves of the point mass end - start.

    Coincident points (mod 1, within TORUS_TOL) cancel, so a closed curve has
    the empty boundary.
    """
    curves = family.curves if isinstance(family, CurveFamily) else (family,)
    return ZeroCurrent(
        [atom for c in curves for atom in ((c.end_lift, 1.0), (c.start_lift, -1.0))]
    )


def boundaries_equal(b1: ZeroCurrent, b2: ZeroCurrent) -> bool:
    """Equality of two signed point masses, mod 1 within TORUS_TOL."""
    return not ZeroCurrent([*b1.atoms, *((p, -w) for p, w in b2.atoms)])
