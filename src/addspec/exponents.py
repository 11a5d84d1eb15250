"""Exact combinatorics of exponent point sets.

Points live on a grid of vertical and horizontal lines; zigzags are paths
that alternate moves along those lines.  The core representation is the
bipartite line-incidence graph (nodes = distinct lines, edges = points), so
zigzag loops are graph cycles and loop-free sets give forests with unique
paths.  All coordinates are exact rationals: "same line" must never be a
floating-point question.  An ``ExponentSet`` interns each distinct x and y
coordinate once, keyed by its lowest-terms (numerator, denominator) pair,
as a small integer line id; multiplicities, projections, membership and the
graph searches then work on ints and map back to points only for their
output.  A point file is interned an axis at a time: each distinct
coordinate value is parsed once, straight to its key (``exact.ratio``).
The Fraction of each line (``lines``) and the points' ``ExponentPair``
objects (``points``) are built only when first read, so ``analyze`` builds
a Fraction only for the points of a loop it prints, and ``gram`` reads
each axis's integer grid straight from the keys (``axis_keys``), with no
Fraction or pair per point.  The incidence forest is grown once per set,
in insertion order, and cached on it: a union-find over the line ids
finds the first point whose two lines are already connected, which closes
a loop through the unique forest path between them.

``ExponentPair``, the exact frequency pair that every layer shares, is
defined here rather than beside the inner products in ``additive_space``, so
this module needs only the standard library, ``errors`` and ``exact``, and
``analyze`` runs without numpy or ``measures``.  The value classes are
``exact.Frozen`` classes, not dataclasses, so importing this module loads
neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    MalformedInputError,
    NotAnSSequenceError,
    ZigzagLoopDetected,
)
from .exact import Frozen, as_fraction, ratio

UNBOUNDED_BY_LOOP = "unbounded-by-loop"


class ExponentPair(Frozen):
    """A frequency pair with exact rational coordinates."""

    __slots__ = ("a", "b")
    _fields = ("a", "b")

    def __init__(self, a, b):
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))

    def _values(self):
        return self.a, self.b

    def __repr__(self):
        return f"({self.a}, {self.b})"

    @classmethod
    def _exact(cls, a: Fraction, b: Fraction) -> "ExponentPair":
        """The pair (a, b) of coordinates that are already Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "a", a)
        object.__setattr__(p, "b", b)
        return p


def _as_pair(p) -> ExponentPair:
    if isinstance(p, ExponentPair):
        return p
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return ExponentPair(p[0], p[1])
    raise MalformedInputError(f"not an exponent pair: {p!r}")


def _number(keys: Iterable[Tuple[int, int]], first: int):
    """Line ids of exact (numerator, denominator) ``keys``, numbered from
    ``first`` in order of first use, and the table from key to id."""
    table: Dict[Tuple[int, int], int] = {}
    return [table.setdefault(key, first + len(table)) for key in keys], table


def _intern(values: Sequence, first: int):
    """Line ids of one axis's coordinate ``values``: ``(ids, table)``.

    Each distinct value is parsed once, in order of first use, to its
    lowest-terms (numerator, denominator) key by ``ratio``, so "1/2", "2/4"
    and 0.5 land on one line (``_number``).  A value that cannot be a dict
    key (a list, say) is no rational: the values are then parsed in order
    until one fails.
    """
    try:
        distinct = dict.fromkeys(values)
    except TypeError:
        for v in values:
            ratio(v)
        raise
    ids, table = _number(map(ratio, distinct), first)
    id_of = dict(zip(distinct, ids))
    return list(map(id_of.__getitem__, values)), table


class ExponentSet(Frozen):
    """Finite, insertion-ordered set of exponent pairs without duplicates.

    ``xid[k]`` and ``yid[k]`` are the line ids of the k-th point: x lines
    are numbered from 0 in order of first use, y lines continue after them,
    and ``_keys[i]`` is the lowest-terms (numerator, denominator) of line
    ``i``.  ``lines``, the Fraction of each line, and ``points``, the
    ``ExponentPair`` of each point, are built from them on first use.
    Numbered by first use, the lines of the first n points are the first
    lines of each axis, so ``prefix`` slices a set without parsing again.
    """

    _fields = ("points",)

    def __init__(self, points: Iterable):
        pts = tuple(map(_as_pair, points))
        self.__dict__["points"] = pts
        xid, x_table = _number([(p.a.numerator, p.a.denominator) for p in pts], 0)
        yid, y_table = _number([(p.b.numerator, p.b.denominator) for p in pts], len(x_table))
        self._store(xid, yid, x_table, y_table)

    def _store(self, xid, yid, x_table, y_table) -> None:
        index = dict(zip(zip(xid, yid), range(len(xid))))
        if len(index) != len(xid):
            raise MalformedInputError("duplicate points in exponent set")
        # ids are numbered by first use, so the tables' keys run in id order
        self.__dict__.update(
            xid=xid, yid=yid, _keys=[*x_table, *y_table],
            _x_table=x_table, _y_table=y_table, _index=index,
        )

    @classmethod
    def of(cls, points: Iterable) -> "ExponentSet":
        return cls(tuple(points))

    @cached_property
    def lines(self) -> List[Fraction]:
        """The coordinate of each line id."""
        return [Fraction(n, d) for n, d in self._keys]

    @cached_property
    def points(self) -> Tuple[ExponentPair, ...]:
        lines = self.lines
        return tuple(map(ExponentPair._exact,
                         map(lines.__getitem__, self.xid), map(lines.__getitem__, self.yid)))

    def __len__(self):
        return len(self.xid)

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

    def _axis(self, axis: str) -> slice:
        """The line ids of ``axis`` ("x" or "y"), as a slice."""
        if axis == "x":
            return slice(len(self._x_table))
        if axis == "y":
            return slice(len(self._x_table), None)
        raise MalformedInputError(f"axis must be 'x' or 'y', got {axis!r}")

    def axis_lines(self, axis: str) -> List[Fraction]:
        """Coordinates of the distinct lines of ``axis``, in order of first use."""
        ids = self._axis(axis)
        return self.lines[ids]

    def axis_keys(self, axis: str) -> Tuple[List[Tuple[int, int]], List[int]]:
        """``(keys, ids)``: the lowest-terms (numerator, denominator) of the
        distinct lines of ``axis``, in order of first use, and the index of
        each point's line into them."""
        lines = self._axis(axis)
        if axis == "x":
            return self._keys[lines], self.xid
        return self._keys[lines], [i - lines.start for i in self.yid]

    def prefix(self, n: int) -> "ExponentSet":
        """The set of the first ``n`` points, with no coordinate parsed again.

        Line ids are numbered by first use, so the prefix's lines are the
        first lines of each axis: it keeps their keys and x ids, and its y
        ids move down past the x lines it leaves out.
        """
        if n >= len(self.xid):
            return self
        xid, yid = self.xid[:n], self.yid[:n]
        first_y = len(self._x_table)
        nx = max(xid, default=-1) + 1
        ny = max(yid, default=first_y - 1) + 1 - first_y
        shift = first_y - nx
        x_table = dict(islice(self._x_table.items(), nx))
        y_table = {key: i - shift for key, i in islice(self._y_table.items(), ny)}
        es = object.__new__(type(self))
        es._store(xid, [j - shift for j in yid], x_table, y_table)
        return es

    def axis_floats(self, axis: str) -> List[float]:
        """Floats of the distinct lines of ``axis``, in order of first use,
        read from the keys: n / d rounds once, as float(Fraction(n, d)) does."""
        return [n / d for n, d in self._keys[self._axis(axis)]]

    @cached_property
    def _forest(self):
        """``_grow_forest`` over every point, grown on first use and kept."""
        return _grow_forest(self.xid, self.yid, len(self._keys))

    def to_json(self) -> list:
        names = [str(v) for v in self.lines]
        return [[names[i], names[j]] for i, j in zip(self.xid, self.yid)]

    @classmethod
    def from_json(cls, data) -> "ExponentSet":
        """The set of a point file's JSON list of [x, y] pairs.

        Faults are reported in this order: the first entry that is not a
        pair, then the first bad x coordinate, then the first bad y
        coordinate, then duplicate points.
        """
        if not isinstance(data, list):
            raise MalformedInputError("point set must be a JSON list of pairs")
        if not set(map(type, data)) <= {list, tuple} or not set(map(len, data)) <= {2}:
            for item in data:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise MalformedInputError(f"bad point entry: {item!r}")
        xs, ys = zip(*data) if data else ((), ())
        xid, x_table = _intern(xs, 0)
        yid, y_table = _intern(ys, len(x_table))
        es = object.__new__(cls)
        es._store(xid, yid, x_table, y_table)
        return es


class ZigzagPath(Frozen):
    """Alternating horizontal/vertical path of points.

    A zig is a horizontal move (shared y coordinate), a zag a vertical move
    (shared x).  Length is the number of moves.  A loop repeats its first
    point at the end and has positive even length.  ``starts_with`` is the
    first move, or None for a single point; it follows from the vertices, so
    a path is built, compared and hashed by its vertices alone.
    """

    __slots__ = ("vertices", "starts_with")
    _fields = ("vertices",)

    def __init__(self, vertices: Tuple[ExponentPair, ...]):
        verts = tuple(_as_pair(p) for p in vertices)
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
        object.__setattr__(self, "starts_with", moves[0] if moves else None)

    def __repr__(self):
        return f"ZigzagPath(vertices={self.vertices!r}, starts_with={self.starts_with!r})"

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


def _close_loop(adj, xid, yid, keys, k: int) -> ZigzagPath:
    """The loop that edge ``k`` closes with the forest path between its lines.

    ``xid`` and ``yid`` are indexed by edge, as in ``_grow_forest``, and
    ``keys`` holds the lowest-terms (numerator, denominator) of each line id;
    Fractions and pairs are built for the loop's points only.
    """
    node, dst = xid[k], yid[k]
    # breadth-first tree from dst, line -> (parent line, edge), until node
    tree = {dst: (None, None)}
    queue = deque([dst])
    while node not in tree:
        u = queue.popleft()
        for v, q in adj[u]:
            if v not in tree:
                tree[v] = (u, q)
                queue.append(v)
    edges = []
    while node != dst:
        node, q = tree[node]
        edges.append(q)
    edges += [k, edges[0]]
    return ZigzagPath(tuple(
        ExponentPair._exact(Fraction(*keys[xid[q]]), Fraction(*keys[yid[q]])) for q in edges
    ))


def _sweep(adj, src: int, depth: List[int]) -> int:
    """Breadth-first depths from ``src`` into ``depth`` (-1 marks a line not
    reached yet); returns the last line reached, a farthest one."""
    depth[src] = 0
    queue = [src]
    for u in queue:
        d = depth[u] + 1
        for v, _ in adj[u]:
            if depth[v] < 0:
                depth[v] = d
                queue.append(v)
    return queue[-1]


def project(es: ExponentSet, axis: str) -> List[Fraction]:
    """Distinct axis coordinates, sorted."""
    if not es.xid:
        raise MalformedInputError("empty exponent set")
    # integer floors order most lines; Fractions are compared only on ties
    return sorted(es.axis_lines(axis), key=lambda v: (v.numerator // v.denominator, v))


def multiplicity(es: ExponentSet, per_line: bool = True):
    """Largest number of points on any vertical or horizontal line.

    Returns (max_mult, per_line) where per_line maps each used line to its
    point count, keyed by axis.  With ``per_line=False`` the map is not built
    and None takes its place: the counts stay on integer line ids, and no
    line's Fraction is hashed.
    """
    if not es.xid:
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
    return _close_loop(adj, es.xid, es.yid, es._keys, closing)


def max_zigzag_length(es: ExponentSet) -> Union[int, str]:
    """Longest zigzag length, or UNBOUNDED_BY_LOOP when a loop exists.

    Loop-free sets give a forest, where zigzags are simple paths; the longest
    one is the tree diameter (in edges) minus one, found by a double sweep
    of each tree: breadth-first from any line to a farthest one, then from
    there.
    """
    if not es.xid:
        raise MalformedInputError("empty exponent set")
    adj, closing = es._forest
    if closing is not None:
        return UNBOUNDED_BY_LOOP
    best = 0
    first = [-1] * len(adj)
    second = [-1] * len(adj)
    for start in range(len(adj)):
        if first[start] < 0:
            far = _sweep(adj, _sweep(adj, start, first), second)
            best = max(best, second[far] - 1)
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
    prefix, _ = _grow_forest(xid, yid, len(es._keys))

    for m in range(1, len(order)):
        vpred = first_on_x.get(xid[m])
        hpred = first_on_y.get(yid[m])
        if vpred is not None and hpred is not None:
            loop = _close_loop(prefix, xid, yid, es._keys, m)
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
    vals = sorted(map(float, proj))
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
