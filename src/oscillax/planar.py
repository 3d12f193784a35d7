"""Layered planar networks whose disjoint-path weights are matrix minors.

A network has n horizontal tracks, numbered 1 (bottom) to n (top), and a
sequence of layers read left to right.  Each layer is the diagram of one
elementary factor (:class:`~oscillax.seb.EBFactor`), so a network is a
factor word.  Every layer carries an implicit weight-one horizontal edge
on each track; an ``L_i`` layer adds one diagonal from track i to track
i-1 and a ``U_i`` layer one from i-1 to i (:attr:`EBFactor.tracks`),
weighted by the factor's multiplier, and a ``D`` layer reweights the
horizontals by its positive diagonal.  The JSON and DOT forms keep the
diagram names: ``down``, ``up`` and ``horizontal``.

The weight of a family of vertex-disjoint source-to-sink paths is the
product of its edge weights; summed over all families it equals the
corresponding minor of the composed matrix.  Minor evaluation sweeps the
layers with a dynamic program over occupied track subsets, which encodes
vertex-disjointness exactly: no two paths may share a track at any layer
boundary.  Explicit family enumeration is also provided for small cases.

Copy counting (:func:`min_copies_lower_corner`) continues one sweep copy
by copy from a corner's sources and stops at the first copy whose sink
state is positive, so it never rebuilds or re-sweeps the concatenated
network.  Like every sweep it is capped at ``SCAN_CAP_DEFAULT`` (8)
tracks and raises :class:`FeasibilityExceeded` beyond that.
"""

from fractions import Fraction
from typing import NamedTuple

from .cells import every_level
from .classify import corner_index_sets
from .errors import (
    FeasibilityExceeded,
    IndexOutOfRange,
    InvariantViolation,
    ParamOutOfRange,
    ShapeMismatch,
)
from .matrix import SCAN_CAP_DEFAULT, _check_count, _index_sets
from .rational import format_rational
from .seb import EBFactor, SEBFactorization

_ZERO = Fraction(0)
_ONE = Fraction(1)

INFINITE_COPIES = float("inf")

#: Most layers :func:`concat_copies` builds.  Rendering writes n+1 DOT
#: lines per layer, so an unbounded copy count would exhaust memory.
COPIES_LAYER_LIMIT = 100_000

#: Most edge lines (n+1 per layer) :func:`export_dot` renders: a 4-track
#: network at :data:`COPIES_LAYER_LIMIT` layers still fits.
DOT_LINE_LIMIT = 500_000


class _PlanarNetworkFields(NamedTuple):
    n: int
    layers: tuple[EBFactor, ...]


class PlanarNetwork(_PlanarNetworkFields):
    """n tracks and the factors of their layers, left to right.

    Every L/U layer's index lies in [2, n] (:class:`IndexOutOfRange`
    otherwise) and every D layer has n entries (:class:`ShapeMismatch`).
    """

    __slots__ = ()

    def __new__(cls, n: int, layers):
        layers = tuple(layers)
        for fac in layers:
            if fac.kind == "D":
                if len(fac.diag) != n:
                    raise ShapeMismatch("diagonal length does not match n")
            elif not 2 <= fac.index <= n:
                raise IndexOutOfRange(f"factor index {fac.index} outside [2, {n}]")
        return tuple.__new__(cls, (n, layers))

    @classmethod
    def _make(cls, iterable) -> "PlanarNetwork":
        return cls(*iterable)


class PathFamily(NamedTuple):
    """Vertex-disjoint paths, each recorded as its track at every boundary."""

    paths: tuple[tuple[int, ...], ...]
    weight: Fraction


def build_network(f: SEBFactorization) -> PlanarNetwork:
    """The factors of a factorization in product order, one layer each.

    Factors with zero multiplier are identities and contribute no layer;
    the diagonal always contributes its layer.
    """
    return PlanarNetwork(f.n, f.factor_sequence())


def concat_copies(net: PlanarNetwork, copies: int) -> PlanarNetwork:
    """``copies`` copies of the network in a row; more than
    :data:`COPIES_LAYER_LIMIT` layers raise :class:`FeasibilityExceeded`
    before anything is built."""
    _check_count(copies, "copies")
    if copies * len(net.layers) > COPIES_LAYER_LIMIT:
        raise FeasibilityExceeded(
            f"{copies} copies of {len(net.layers)} layers exceed the limit"
            f" of {COPIES_LAYER_LIMIT} layers"
        )
    return PlanarNetwork(n=net.n, layers=net.layers * copies)


def minor_via_paths(net: PlanarNetwork, sources, sinks) -> Fraction:
    """Sum of vertex-disjoint family weights from sources to sinks.

    Equals the minor of the composed matrix on the same index sets.
    """
    src, snk = _index_sets(sources, sinks, (net.n, net.n), ("source", "sink"))
    if net.n > SCAN_CAP_DEFAULT:
        raise FeasibilityExceeded(
            f"path sweep over {net.n} tracks exceeds cap {SCAN_CAP_DEFAULT}"
        )

    dp = _sweep(net.layers, {src: _ONE})
    return dp.get(snk, _ZERO)


def _sweep(
    layers, dp: dict[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Carry the weights of occupied track subsets across ``layers``.

    ``dp`` maps each sorted tuple of occupied tracks at the left boundary
    to the summed weight of the disjoint partial families ending there;
    the result is the same map at the right boundary.
    """
    for fac in layers:
        ndp: dict[tuple[int, ...], Fraction] = {}
        if fac.kind == "D":
            w = fac.diag
            for state, acc in dp.items():
                factor = _ONE
                for t in state:
                    factor *= w[t - 1]
                ndp[state] = ndp.get(state, _ZERO) + acc * factor
        else:
            src_track, dst_track = fac.tracks
            weight = fac.multiplier
            for state, acc in dp.items():
                ndp[state] = ndp.get(state, _ZERO) + acc
                if src_track in state and dst_track not in state:
                    # the free track is adjacent, so the tuple stays sorted
                    moved = tuple(dst_track if t == src_track else t for t in state)
                    ndp[moved] = ndp.get(moved, _ZERO) + acc * weight
        dp = ndp
    return dp


def enumerate_path_families(
    net: PlanarNetwork, sources, sinks
) -> tuple[PathFamily, ...]:
    """Explicitly list every vertex-disjoint family (at most 5 tracks).

    Disjoint paths in these layered diagrams never cross, so each family
    is recorded with paths sorted by source track.
    """
    src, snk = _index_sets(sources, sinks, (net.n, net.n), ("source", "sink"))
    if net.n > 5:
        raise FeasibilityExceeded(f"enumeration over {net.n} tracks exceeds cap 5")

    families: list[PathFamily] = []
    k = len(src)
    trajectory = [list(src)]

    def advance(depth: int, positions: tuple[int, ...], weight: Fraction):
        if depth == len(net.layers):
            if positions == snk:
                paths = tuple(
                    tuple(step[t] for step in trajectory) for t in range(k)
                )
                families.append(PathFamily(paths=paths, weight=weight))
            return
        fac = net.layers[depth]
        moves: list[tuple[tuple[int, ...], Fraction]] = [(positions, _ONE)]
        if fac.kind == "D":
            factor = _ONE
            for t in positions:
                factor *= fac.diag[t - 1]
            moves = [(positions, factor)]
        else:
            src_track, dst_track = fac.tracks
            if src_track in positions and dst_track not in positions:
                # the free track is adjacent, so the tuple stays sorted
                moved = tuple(dst_track if t == src_track else t for t in positions)
                moves.append((moved, fac.multiplier))
        for nxt, factor in moves:
            trajectory.append(list(nxt))
            advance(depth + 1, nxt, weight * factor)
            trajectory.pop()

    advance(0, src, _ONE)
    return tuple(families)


def lower_corner_tracks(n: int, c: int):
    """Sources {n-c+1..n} and sinks {1..c} of the size-c lower-left corner."""
    _check_count(c, "corner size", n - 1)
    return corner_index_sets(n, "lower-left", c)


def min_copies_lower_corner(net: PlanarNetwork, c: int):
    """Minimal number of concatenated copies admitting a disjoint family
    from the lower-left corner's sources to its sinks.

    Returns infinity when the positive L layers fail the level rule
    (:func:`cells.every_level`).  A finite answer never exceeds n-1; running past
    that bound would contradict the power bound for oscillatory matrices
    and raises :class:`InvariantViolation`.

    One path sweep continues copy by copy from the corner's sources, so
    k copies cost k single-copy sweeps in total, not 1 + 2 + ... + k.
    Both the n-1 bound and reading "no family" off a zero sum need
    nonnegative L/U multipliers and a positive D diagonal; other weights
    raise :class:`ParamOutOfRange`.
    """
    n = net.n
    sources, sinks = lower_corner_tracks(n, c)
    for fac in net.layers:
        if fac.kind == "D":
            if any(x <= 0 for x in fac.diag):
                raise ParamOutOfRange("copy counting needs positive scale weights")
        elif fac.multiplier < 0:
            raise ParamOutOfRange("copy counting needs nonnegative diagonal weights")
    descents = (fac.index for fac in net.layers if fac.kind == "L" and fac.multiplier > 0)
    if not every_level(descents, n):
        return INFINITE_COPIES
    if n > SCAN_CAP_DEFAULT:
        raise FeasibilityExceeded(
            f"path sweep over {n} tracks exceeds cap {SCAN_CAP_DEFAULT}"
        )
    dp = {sources: _ONE}
    for copies in range(1, n):
        dp = _sweep(net.layers, dp)
        if dp.get(sinks, _ZERO) > 0:
            return copies
    raise InvariantViolation(
        f"no disjoint family for corner size {c} within {n - 1} copies"
    )


# -- serialization ------------------------------------------------------------


def network_to_json_dict(net: PlanarNetwork) -> dict:
    """Layers as diagrams: ``L``, ``U`` and ``D`` factors are written
    ``down``, ``up`` and ``horizontal``."""
    layers = []
    for fac in net.layers:
        if fac.kind == "D":
            layers.append(
                {"diag": "horizontal", "d": [format_rational(x) for x in fac.diag]}
            )
        else:
            layers.append(
                {
                    "diag": "down" if fac.kind == "L" else "up",
                    "i": fac.index,
                    "w": format_rational(fac.multiplier),
                }
            )
    return {"n": net.n, "layers": layers}


def export_dot(net: PlanarNetwork) -> str:
    """Deterministic Graphviz rendering: nodes ``c{layer}_t{track}``,
    tracks bottom-to-top, unit weights unlabeled.  Past
    :data:`DOT_LINE_LIMIT` it raises :class:`FeasibilityExceeded`."""
    n = net.n
    if len(net.layers) * (n + 1) > DOT_LINE_LIMIT:
        raise FeasibilityExceeded(
            f"DOT rendering of {len(net.layers)} layers over {n} tracks exceeds"
            f" the limit of {DOT_LINE_LIMIT} lines"
        )
    cols = len(net.layers) + 1
    lines = [
        "digraph planar_network {",
        "  rankdir=LR;",
        "  node [shape=point, width=0.06];",
    ]
    for col in range(cols):
        names = "; ".join(f"c{col}_t{t}" for t in range(1, n + 1))
        lines.append(f"  {{ rank=same; {names}; }}")
    for col, fac in enumerate(net.layers):
        for t in range(1, n + 1):
            label = ""
            if fac.kind == "D" and fac.diag[t - 1] != 1:
                label = f' [label="{format_rational(fac.diag[t - 1])}"]'
            lines.append(f"  c{col}_t{t} -> c{col + 1}_t{t}{label};")
        if fac.kind != "D":
            src, dst = fac.tracks
            label = ""
            if fac.multiplier != 1:
                label = f' [label="{format_rational(fac.multiplier)}"]'
            lines.append(f"  c{col}_t{src} -> c{col + 1}_t{dst}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
