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

Two searches go through one hash grid of quantum _CELL = 2^-30 instead of
comparing all pairs. The matcher keys every displacement of the family by
its cell and looks each reversal up near the cell of its negation; the
point-mass merge keys reduced points the same way, wrapping at 1. Cells are
centred on multiples of _CELL, so zeros and dyadic coordinates sit mid-cell;
a row near many cell edges is compared with every row rather than probing
2^k cells. Both then apply the exact test, so they find what the all-pairs
loops found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EndpointMismatch, StaleLocation
from .torus_flow import TORUS_TOL, TorusPoint, circle_dist, reduce_mod1

MATCH_TOL = 1e-12      # retraced arcs must coincide to this, lift and mod 1
MIN_OVERLAP = 1e-9     # anti-parallel overlaps shorter than this are noise
_FRACTION_TOL = 1e-9   # split points closer than this to 0/1 are dropped
# The hash grid of the matcher and of the point-mass merge. A partner within
# MATCH_TOL = TORUS_TOL is at most 0.00107 cell away, so it shares the query's
# cell or, when the query is near an edge, the cell across that edge.
_CELL = 2.0 ** -30     # 9.3e-10 wide: a power of two, so scaling by it is exact
_EDGE = 2.0 ** -9      # probe across an edge nearer than this: 1.8x that tolerance
_MAX_EDGES = 8         # a row near more edges would probe 2^k cells: scan instead

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

    __slots__ = ("basepoint_lift", "displacements", "flow", "_lifts", "_lengths")

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
        self._lengths = None

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
        lengths reach split fractions and reported totals. Computed once:
        excision passes re-read the lengths of every curve they carry over.
        """
        if self._lengths is None:
            self._lengths = np.array([np.linalg.norm(v) for v in self.displacements])
            self._lengths.flags.writeable = False
        return self._lengths

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
        seg_cuts = [cuts.get(first + si, ()) for si in range(curve.n_segments)]
        first += curve.n_segments
        if not any(seg_cuts):
            new_curves.append(curve)  # rebuilding it would reproduce it exactly
            continue
        rows: list[int] = []
        widths: list[float] = []
        for si, fractions in enumerate(seg_cuts):
            points = [0.0]
            for f in sorted(fractions):
                if f - points[-1] > _FRACTION_TOL and 1.0 - f > _FRACTION_TOL:
                    points.append(f)
            points.append(1.0)
            rows += [si] * (len(points) - 1)
            widths += [f1 - f0 for f0, f1 in zip(points, points[1:])]
        new_curves.append(PiecewiseCurve(
            curve.basepoint_lift,
            np.array(widths)[:, None] * curve.displacements[rows],
            curve.flow[rows],
        ))
    return CurveFamily(new_curves)


def _grid(coords: np.ndarray, wrap: bool = False) -> Iterator[tuple[tuple, Iterable | None]]:
    """Each row's cell on the _CELL grid, and the cells that can hold a partner.

    Cells are centred on the multiples of _CELL, so zeros and dyadic
    coordinates sit mid-cell. Along each axis a partner shares the row's cell
    unless the row sits within _EDGE of a cell edge; then the neighbour across
    that edge is probed too, so a typical row probes one cell, not 3^d. A row
    near an edge on more than _MAX_EDGES axes yields None for its probes: the
    caller compares it with every row. With wrap, rows are coordinates reduced
    to [0, 1) and the cells wrap at 1. Rows are yielded one at a time.
    """
    if not len(coords):
        return
    period = 1.0 / _CELL
    with np.errstate(over="ignore", invalid="ignore"):  # |coords| > 1e299: inf keys
        scaled = coords / _CELL + 0.5
        base = np.floor(scaled)
        frac = scaled - base
    if wrap:
        base %= period
    step = np.where(frac < _EDGE, -1.0, np.where(frac > 1.0 - _EDGE, 1.0, 0.0))
    edges = np.count_nonzero(step, axis=-1).tolist()
    for cell, k, row in zip(map(tuple, base.tolist()), edges, step.tolist()):
        if not k:
            yield cell, (cell,)
        elif k > _MAX_EDGES:
            yield cell, None
        else:
            yield cell, itertools.product(*(
                (b, (b + s) % period if wrap else b + s) if s else (b,)
                for b, s in zip(cell, row)
            ))


def _anti_pairs(split: CurveFamily) -> set[tuple[int, int, int, int]]:
    """Every (i, p, j, q) with segment q of curve j the exact reversal of
    segment p of curve i, up to a deck translate, and i <= j.

    Candidates come from hashing the family's displacements on the _CELL
    grid; each is then held to the exact test: displacement gap, position gap
    mod 1 between p's start and q's end, and equal labels, the gaps each
    within MATCH_TOL.
    """
    curves = split.curves
    if not any(c.n_segments for c in curves):
        return set()
    disps = np.concatenate([c.displacements for c in curves])
    cells: dict[tuple, list[int]] = {}
    for p, (cell, _) in enumerate(_grid(disps)):
        cells.setdefault(cell, []).append(p)
    ps, qs = [], []
    for q, (_, probe) in enumerate(_grid(-disps)):
        if probe is None:  # near too many cell edges: the dense row instead
            near = np.flatnonzero(np.max(np.abs(disps + disps[q]), axis=-1) <= MATCH_TOL)
        else:
            near = [p for c in probe for p in cells.get(c, ())]
        ps.extend(near)
        qs.extend([q] * len(near))
    P, Q = np.array(ps, dtype=int), np.array(qs, dtype=int)
    owner = np.repeat(np.arange(len(curves)), [c.n_segments for c in curves])
    local = np.concatenate([np.arange(c.n_segments) for c in curves])
    starts = np.concatenate([c.starts for c in curves])
    flow = np.concatenate([c.flow for c in curves])
    disp_gap = np.max(np.abs(disps[P] + disps[Q]), axis=-1)
    delta = np.abs(reduce_mod1(starts[P]) - reduce_mod1(starts[Q] + disps[Q])) % 1.0
    pos_gap = np.max(np.minimum(delta, 1.0 - delta), axis=-1)
    ok = (disp_gap <= MATCH_TOL) & (pos_gap <= MATCH_TOL) & (flow[P] == flow[Q])
    ok &= owner[P] <= owner[Q]
    P, Q = P[ok], Q[ok]
    return set(zip(owner[P].tolist(), local[P].tolist(), owner[Q].tolist(), local[Q].tolist()))


def find_retraced_arc(family: CurveFamily) -> RetracedArcLocation | None:
    """Longest retraced arc in the family, None when there is none.

    Segments are first split at every anti-parallel overlap boundary, so the
    reported arc occupies whole segments of the returned split family. An arc
    is a run p, p+1, ... of curve i reversed by q, q-1, ... of a curve j >= i;
    every matched pair starts a run. Ties between equally long arcs break
    towards the lowest (curve index, segment index).
    """
    split = _split_family(family)
    anti = _anti_pairs(split)
    best = None  # (-arc_len, ca, pa, cb, qb, m)
    for i, p, j, qe in anti:
        m = 0
        while (
            p + m < split[i].n_segments
            and qe - m >= 0
            and (i, p + m, j, qe - m) in anti
            and (i != j or 2 * (m + 1) <= qe - p + 1)
        ):
            m += 1
        if m == 0:
            continue
        arc_len = float(split[i].lengths[p : p + m].sum())
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
    vectors, weights are integers (integral floats are accepted). This is the
    one merge of signed point masses: each atom joins the first kept atom
    within TORUS_TOL (mod 1), else starts a new one; candidates come from the
    _CELL grid, wrapped at 1. The result depends on atom order only for
    chains of atoms spaced at most TORUS_TOL apart. Zero weights are then
    dropped, so the empty mass is falsy, and the rest are sorted by
    coordinates.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        atoms = list(atoms)
        weights = [_multiplicity(w) for _, w in atoms]
        reds = reduce_mod1([getattr(p, "coords", p) for p, _ in atoms])
        merged: list[list] = []
        cells: dict[tuple, list[int]] = {}
        for red, weight, (cell, probe) in zip(reds, weights, _grid(reds, wrap=True)):
            if probe is None:  # near too many cell edges: every kept atom
                near = range(len(merged))
            else:
                near = sorted(k for c in probe for k in cells.get(c, ()))
            for k in near:
                if circle_dist(merged[k][0], red) <= TORUS_TOL:
                    merged[k][1] += weight
                    break
            else:
                cells.setdefault(cell, []).append(len(merged))
                merged.append([red, weight])
        kept = [(TorusPoint(c), w) for c, w in merged if w != 0]
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


def _multiplicity(weight) -> int:
    if not float(weight).is_integer():
        raise ValueError(f"point-mass weight must be an integer, got {weight!r}")
    return int(weight)


def boundary_multiset(family: CurveFamily | PiecewiseCurve) -> ZeroCurrent:
    """The boundary: sum over curves of the point mass end - start.

    Coincident points (mod 1, within TORUS_TOL) cancel, so a closed curve has
    the empty boundary.
    """
    curves = family.curves if isinstance(family, CurveFamily) else (family,)
    return ZeroCurrent(
        [atom for c in curves for atom in ((c.end_lift, 1), (c.start_lift, -1))]
    )


def boundaries_equal(b1: ZeroCurrent, b2: ZeroCurrent) -> bool:
    """Equality of two signed point masses, mod 1 within TORUS_TOL."""
    return not ZeroCurrent([*b1.atoms, *((p, -w) for p, w in b2.atoms)])
