"""Exact combinatorics of exponent point sets.

Points live on a grid of vertical and horizontal lines; zigzags are paths
that alternate moves along those lines.  The core representation is the
bipartite line-incidence graph (nodes = distinct lines, edges = points), so
zigzag loops are graph cycles and loop-free sets give forests with unique
paths.  All coordinates are exact rationals: "same line" must never be a
floating-point question.  An ``ExponentSet`` interns each distinct x and y
coordinate once, keyed by the exact (numerator, denominator) of the
normalised Fraction, as a small integer line id; multiplicities,
projections, membership and the graph searches then work on ints and map
back to points only for their output.  The incidence forest is grown once
per set, in insertion order, and cached on it: a union-find over the line
ids finds the first point whose two lines are already connected, which
closes a loop through the unique forest path between them.

``ExponentPair``, the exact frequency pair that every layer shares, is
defined here rather than beside the inner products in ``additive_space``, so
this module needs only the standard library and ``analyze`` runs without
numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    MalformedInputError,
    NotAnSSequenceError,
    ZigzagLoopDetected,
)
from .measures import as_fraction

UNBOUNDED_BY_LOOP = "unbounded-by-loop"


@dataclass(frozen=True)
class ExponentPair:
    """A frequency pair with exact rational coordinates."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))

    def __repr__(self):
        return f"({self.a}, {self.b})"

    @classmethod
    def _exact(cls, a: Fraction, b: Fraction) -> "ExponentPair":
        """The pair (a, b) of coordinates that are already Fractions."""
        p = object.__new__(cls)
        fields = p.__dict__
        fields["a"] = a
        fields["b"] = b
        return p


def _as_pair(p) -> ExponentPair:
    if isinstance(p, ExponentPair):
        return p
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return ExponentPair(p[0], p[1])
    raise MalformedInputError(f"not an exponent pair: {p!r}")


def _interner(parsed: Dict[str, Fraction]):
    """Line numbering of one axis: returns ``(line_id, lines, table)``.

    ``line_id(v)`` is the id of coordinate ``v`` (anything ``as_fraction``
    takes), keyed in ``table`` by the exact (numerator, denominator) of its
    value, so "1/2" and "2/4" land on one line.  A key seen for the first
    time gets the next free id, ``len(lines)``, and its value is appended to
    ``lines``.  Point files repeat each coordinate string on many points, so
    a string this axis has seen maps straight to its id, and a string is
    parsed once into ``parsed``, which both axes share.
    """
    lines: List[Fraction] = []
    table: Dict[Tuple[int, int], int] = {}
    seen: Dict[str, int] = {}

    def exact_id(f: Fraction) -> int:
        key = (f.numerator, f.denominator)
        i = table.get(key)
        if i is None:
            i = table[key] = len(lines)
            lines.append(f)
        return i

    def line_id(v) -> int:
        if not isinstance(v, str):
            return exact_id(as_fraction(v))
        i = seen.get(v)
        if i is None:
            f = parsed.get(v)
            if f is None:
                f = parsed[v] = as_fraction(v)
            i = seen[v] = exact_id(f)
        return i

    return line_id, lines, table


def _line_ids(coords: Iterable):
    """Line ids of the (x, y) coordinate pairs ``coords``, taken in order.

    Returns ``(xid, yid, lines, x_table, y_table)``: x lines are numbered
    from 0 in order of first use, y lines continue after them, ``lines[i]``
    is the Fraction of line ``i`` and each table maps an exact (numerator,
    denominator) key to its id.
    """
    parsed: Dict[str, Fraction] = {}
    x_id, x_lines, x_table = _interner(parsed)
    y_id, y_lines, y_table = _interner(parsed)
    xid, yid = [], []
    for x, y in coords:
        xid.append(x_id(x))
        yid.append(y_id(y))
    n_x = len(x_lines)
    y_table = {key: n_x + j for key, j in y_table.items()}
    return xid, [n_x + j for j in yid], x_lines + y_lines, x_table, y_table


@dataclass(frozen=True)
class ExponentSet:
    """Finite, insertion-ordered set of exponent pairs without duplicates.

    ``xid[k]`` and ``yid[k]`` are the line ids of ``points[k]``: x lines are
    numbered from 0 in order of first use, y lines continue after them, and
    ``lines[i]`` is the coordinate of line ``i``.
    """

    points: Tuple[ExponentPair, ...]

    def __post_init__(self):
        pts = tuple(_as_pair(p) for p in self.points)
        self._store(pts, *_line_ids((p.a, p.b) for p in pts))

    def _store(self, points, xid, yid, lines, x_table, y_table):
        index = {key: k for k, key in enumerate(zip(xid, yid))}
        if len(index) != len(points):
            raise MalformedInputError("duplicate points in exponent set")
        for name, value in (
            ("points", points), ("xid", xid), ("yid", yid), ("lines", lines),
            ("_x_table", x_table), ("_y_table", y_table), ("_index", index),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, points: Iterable) -> "ExponentSet":
        return cls(tuple(points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return self._position(p) is not None

    def _position(self, p) -> Optional[int]:
        """Index of ``p`` in ``points``, or None if it is not a member."""
        p = _as_pair(p)
        i = self._x_table.get((p.a.numerator, p.a.denominator))
        j = self._y_table.get((p.b.numerator, p.b.denominator))
        return self._index.get((i, j))

    @cached_property
    def _forest(self):
        """``_grow_forest`` over every point, grown on first use and kept."""
        return _grow_forest(self.xid, self.yid, len(self.lines))

    def to_json(self) -> list:
        return [[str(p.a), str(p.b)] for p in self.points]

    @classmethod
    def from_json(cls, data) -> "ExponentSet":
        if not isinstance(data, list):
            raise MalformedInputError("point set must be a JSON list of pairs")

        def entries():
            for item in data:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise MalformedInputError(f"bad point entry: {item!r}")
                yield item

        xid, yid, lines, x_table, y_table = _line_ids(entries())
        points = tuple(map(ExponentPair._exact, [lines[i] for i in xid], [lines[j] for j in yid]))
        es = object.__new__(cls)
        es._store(points, xid, yid, lines, x_table, y_table)
        return es


@dataclass(frozen=True)
class ZigzagPath:
    """Alternating horizontal/vertical path of points.

    A zig is a horizontal move (shared y coordinate), a zag a vertical move
    (shared x).  Length is the number of moves.  A loop repeats its first
    point at the end and has positive even length.
    """

    vertices: Tuple[ExponentPair, ...]
    starts_with: Optional[str] = None

    def __post_init__(self):
        verts = tuple(_as_pair(p) for p in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise MalformedInputError("zigzag needs at least one point")
        moves = []
        for p, q in zip(verts, verts[1:]):
            if p == q:
                raise MalformedInputError("consecutive zigzag points are identical")
            if p.a == q.a:
                moves.append("zag")
            elif p.b == q.b:
                moves.append("zig")
            else:
                raise MalformedInputError(f"{p} -> {q} shares no coordinate")
        for m0, m1 in zip(moves, moves[1:]):
            if m0 == m1:
                raise MalformedInputError("zigzag moves must alternate")
        derived = moves[0] if moves else None
        if self.starts_with is None:
            object.__setattr__(self, "starts_with", derived)
        elif moves and self.starts_with != derived:
            raise MalformedInputError(
                f"path starts with a {derived}, not a {self.starts_with}"
            )

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_loop(self) -> bool:
        return self.length > 0 and self.vertices[0] == self.vertices[-1]


def _grow_forest(xid: Sequence[int], yid: Sequence[int], n_lines: int):
    """Incidence forest on line ids ``0 .. n_lines-1``, grown in edge order.

    Edge ``k`` joins lines ``xid[k]`` and ``yid[k]``.  Returns (adj, closing):
    ``adj[u]`` lists the (line, edge) neighbours of line ``u``, and
    ``closing`` is the first edge whose two lines are already connected (it
    is left out of ``adj``), or None if there is none.
    """
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n_lines)]
    root = list(range(n_lines))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for k, (u, v) in enumerate(zip(xid, yid)):
        ru, rv = find(u), find(v)
        if ru == rv:
            return adj, k
        root[ru] = rv
        adj[u].append((v, k))
        adj[v].append((u, k))
    return adj, None


def _bfs(adj, src: int, dst: Optional[int] = None) -> dict:
    """Breadth-first tree from ``src``: line -> (parent, edge, depth).

    Entries are in visiting order, so after a full search the last one is a
    farthest line; the search stops early once ``dst`` is reached.
    """
    tree = {src: (None, None, 0)}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        for v, k in adj[u]:
            if v not in tree:
                tree[v] = (u, k, tree[u][2] + 1)
                queue.append(v)
    return tree


def _close_loop(adj, xid, yid, points, k: int) -> ZigzagPath:
    """The loop that edge ``k`` closes with the forest path between its lines.

    ``xid``, ``yid`` and ``points`` are indexed by edge, as in ``_grow_forest``.
    """
    node, dst = xid[k], yid[k]
    tree = _bfs(adj, dst, node)
    pts = []
    while node != dst:
        node, q, _ = tree[node]
        pts.append(points[q])
    return ZigzagPath(tuple(pts) + (points[k], pts[0]))


def project(es: ExponentSet, axis: str) -> List[Fraction]:
    """Distinct axis coordinates, sorted."""
    if not es.points:
        raise MalformedInputError("empty exponent set")
    n_x = len(es._x_table)
    if axis == "x":
        lines = es.lines[:n_x]
    elif axis == "y":
        lines = es.lines[n_x:]
    else:
        raise MalformedInputError(f"axis must be 'x' or 'y', got {axis!r}")
    # integer floors order most lines; Fractions are compared only on ties
    return sorted(lines, key=lambda v: (v.numerator // v.denominator, v))


def multiplicity(es: ExponentSet, per_line: bool = True):
    """Largest number of points on any vertical or horizontal line.

    Returns (max_mult, per_line) where per_line maps each used line to its
    point count, keyed by axis.  With ``per_line=False`` the map is not built
    and None takes its place: the counts stay on integer line ids, and no
    line's Fraction is hashed.
    """
    if not es.points:
        raise MalformedInputError("empty exponent set")
    per_x = Counter(es.xid)
    per_y = Counter(es.yid)
    max_mult = max(max(per_x.values()), max(per_y.values()))
    if not per_line:
        return max_mult, None
    lines = es.lines
    return max_mult, {
        "x": {lines[i]: c for i, c in per_x.items()},
        "y": {lines[i]: c for i, c in per_y.items()},
    }


def find_zigzag_loop(es: ExponentSet) -> Optional[ZigzagPath]:
    """Return a zigzag loop if one exists, else None.  Detection is exact.

    The loop is closed by the earliest point, in insertion order, whose two
    lines are already connected by the points before it, and runs through
    the unique forest path between those lines.
    """
    adj, closing = es._forest
    if closing is None:
        return None
    return _close_loop(adj, es.xid, es.yid, es.points, closing)


def max_zigzag_length(es: ExponentSet) -> Union[int, str]:
    """Longest zigzag length, or UNBOUNDED_BY_LOOP when a loop exists.

    Loop-free sets give a forest, where zigzags are simple paths; the longest
    one is the tree diameter (in edges) minus one, found by double BFS.
    """
    if not es.points:
        raise MalformedInputError("empty exponent set")
    adj, closing = es._forest
    if closing is not None:
        return UNBOUNDED_BY_LOOP
    best = 0
    seen = set()
    for start in range(len(adj)):
        if start in seen:
            continue
        comp = _bfs(adj, start)
        seen.update(comp)
        far = next(reversed(comp))
        _, _, diameter = next(reversed(_bfs(adj, far).values()))
        best = max(best, diameter - 1)
    return best


def zigzag_distance_map(
    es: ExponentSet, ordering: Sequence[ExponentPair]
) -> Dict[ExponentPair, int]:
    """Zigzag distance from the first point of ``ordering`` to each point.

    ``ordering`` must enumerate distinct points of ``es`` such that every
    later point shares a line with an earlier one; the distance recursion is
    f(first) = 0 and f(s) = f(earliest same-line predecessor) + 1.  If a point
    has same-line predecessors on both axes the set contains a loop, which is
    raised with the loop attached.
    """
    order = [_as_pair(p) for p in ordering]
    if not order:
        raise NotAnSSequenceError("empty ordering")
    pos = [es._position(p) for p in order]
    if None in pos:
        raise NotAnSSequenceError("ordering contains points outside the set")
    if len(set(pos)) != len(pos):
        raise NotAnSSequenceError("ordering repeats a point")
    xid = [es.xid[k] for k in pos]
    yid = [es.yid[k] for k in pos]

    dist = [0]
    first_on_x = {xid[0]: 0}
    first_on_y = {yid[0]: 0}
    # grown up to the first point whose lines are already joined, which along
    # a valid ordering is the first point with predecessors on both axes
    prefix, _ = _grow_forest(xid, yid, len(es.lines))

    for m in range(1, len(order)):
        vpred = first_on_x.get(xid[m])
        hpred = first_on_y.get(yid[m])
        if vpred is not None and hpred is not None:
            loop = _close_loop(prefix, xid, yid, order, m)
            raise ZigzagLoopDetected(f"loop through {order[m]}", loop=loop)
        if vpred is not None:
            dist.append(dist[vpred] + 1)
        elif hpred is not None:
            dist.append(dist[hpred] + 1)
        else:
            raise NotAnSSequenceError(f"{order[m]} shares no line with an earlier point")
        first_on_x.setdefault(xid[m], m)
        first_on_y.setdefault(yid[m], m)
    return dict(zip(order, dist))


def is_zigzag_complete(subset: ExponentSet, es: ExponentSet) -> bool:
    """True iff no line through a subset point carries a point outside it."""
    inner = set(subset.points)
    outer = set(es.points)
    if not inner <= outer:
        raise MalformedInputError("subset is not contained in the set")
    xs = {p.a for p in inner}
    ys = {p.b for p in inner}
    for q in outer - inner:
        if q.a in xs or q.b in ys:
            return False
    return True


def lower_beurling_density(proj, window: float, anchors: int = 64) -> float:
    """Finite-window estimate of the lower density of a one-dimensional set.

    Minimum over ``anchors`` evenly spaced window positions of
    count([t, t+window)) / window.  This upper-bounds the true lower Beurling
    density; the window should be well inside the span of the points.
    """
    vals = sorted(float(x) for x in proj)
    if not vals:
        return 0.0
    window = float(window)
    if window <= 0:
        raise MalformedInputError("window must be positive")
    if not math.isfinite(window):
        raise MalformedInputError(f"window must be finite, got {window}")
    if anchors < 1:
        raise MalformedInputError("need at least one anchor")
    span = vals[-1] - vals[0]
    if span <= window or anchors == 1:
        starts = [vals[0] + (span - window) / 2.0]
    else:
        step = (span - window) / (anchors - 1)
        starts = [vals[0] + i * step for i in range(anchors)]
    return min(bisect_left(vals, t + window) - bisect_left(vals, t) for t in starts) / window
