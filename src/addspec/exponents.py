"""Exact combinatorics of exponent point sets.

Points live on a grid of vertical and horizontal lines; zigzags are paths
that alternate moves along those lines.  The core representation is the
bipartite line-incidence graph (nodes = distinct lines, edges = points), so
zigzag loops are graph cycles and loop-free sets give forests with unique
paths.  The graph is a dict adjacency grown in insertion order; a union-find
over its lines finds the first point whose two lines are already connected,
which closes a loop through the unique forest path between them.  All
coordinates are exact rationals: "same line" must never be a floating-point
question.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .additive_space import ExponentPair
from .errors import (
    MalformedInputError,
    NotAnSSequenceError,
    ZigzagLoopDetected,
)

UNBOUNDED_BY_LOOP = "unbounded-by-loop"


def _as_pair(p) -> ExponentPair:
    if isinstance(p, ExponentPair):
        return p
    if isinstance(p, (tuple, list)) and len(p) == 2:
        return ExponentPair(p[0], p[1])
    raise MalformedInputError(f"not an exponent pair: {p!r}")


@dataclass(frozen=True)
class ExponentSet:
    """Finite, insertion-ordered set of exponent pairs without duplicates."""

    points: Tuple[ExponentPair, ...]

    def __post_init__(self):
        pts = tuple(_as_pair(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            raise MalformedInputError("duplicate points in exponent set")

    @classmethod
    def of(cls, points: Iterable) -> "ExponentSet":
        return cls(tuple(points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return _as_pair(p) in set(self.points)

    def to_json(self) -> list:
        return [[str(p.a), str(p.b)] for p in self.points]

    @classmethod
    def from_json(cls, data) -> "ExponentSet":
        if not isinstance(data, list):
            raise MalformedInputError("point set must be a JSON list of pairs")
        pts = []
        for item in data:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise MalformedInputError(f"bad point entry: {item!r}")
            pts.append(ExponentPair(item[0], item[1]))
        return cls(tuple(pts))


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


def _grow_forest(points: Iterable[ExponentPair]):
    """Incidence forest of ``points``, grown in insertion order.

    Returns (adj, closing): ``adj`` maps each line to its (line, point)
    neighbours, and ``closing`` is the first point whose two lines are
    already connected (it is left out of ``adj``), or None if there is none.
    """
    adj: dict = {}
    root: dict = {}

    def find(u):
        while root.setdefault(u, u) != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for p in points:
        u, v = ("x", p.a), ("y", p.b)
        ru, rv = find(u), find(v)
        if ru == rv:
            return adj, p
        root[ru] = rv
        adj.setdefault(u, []).append((v, p))
        adj.setdefault(v, []).append((u, p))
    return adj, None


def _bfs(adj: dict, src, dst=None) -> dict:
    """Breadth-first tree from ``src``: node -> (parent, point, depth).

    Entries are in visiting order, so after a full search the last one is a
    farthest node; the search stops early once ``dst`` is reached.
    """
    tree = {src: (None, None, 0)}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            break
        for v, p in adj[u]:
            if v not in tree:
                tree[v] = (u, p, tree[u][2] + 1)
                queue.append(v)
    return tree


def _close_loop(adj: dict, p: ExponentPair) -> ZigzagPath:
    """The loop that ``p`` closes with the forest path between its lines."""
    node, dst = ("x", p.a), ("y", p.b)
    tree = _bfs(adj, dst, node)
    pts = []
    while node != dst:
        node, q, _ = tree[node]
        pts.append(q)
    return ZigzagPath(tuple(pts) + (p, pts[0]))


def project(es: ExponentSet, axis: str) -> List[Fraction]:
    """Distinct axis coordinates, sorted."""
    if not es.points:
        raise MalformedInputError("empty exponent set")
    if axis == "x":
        return sorted({p.a for p in es.points})
    if axis == "y":
        return sorted({p.b for p in es.points})
    raise MalformedInputError(f"axis must be 'x' or 'y', got {axis!r}")


def multiplicity(es: ExponentSet):
    """Largest number of points on any vertical or horizontal line.

    Returns (max_mult, per_line) where per_line maps each used line to its
    point count, keyed by axis.
    """
    if not es.points:
        raise MalformedInputError("empty exponent set")
    per_x = Counter(p.a for p in es.points)
    per_y = Counter(p.b for p in es.points)
    max_mult = max(max(per_x.values()), max(per_y.values()))
    return max_mult, {"x": dict(per_x), "y": dict(per_y)}


def find_zigzag_loop(es: ExponentSet) -> Optional[ZigzagPath]:
    """Return a zigzag loop if one exists, else None.  Detection is exact.

    The loop is closed by the earliest point, in insertion order, whose two
    lines are already connected by the points before it, and runs through
    the unique forest path between those lines.
    """
    adj, closing = _grow_forest(es.points)
    return None if closing is None else _close_loop(adj, closing)


def max_zigzag_length(es: ExponentSet) -> Union[int, str]:
    """Longest zigzag length, or UNBOUNDED_BY_LOOP when a loop exists.

    Loop-free sets give a forest, where zigzags are simple paths; the longest
    one is the tree diameter (in edges) minus one, found by double BFS.
    """
    if not es.points:
        raise MalformedInputError("empty exponent set")
    adj, closing = _grow_forest(es.points)
    if closing is not None:
        return UNBOUNDED_BY_LOOP
    best = 0
    seen = set()
    for start in adj:
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
    member = set(es.points)
    if any(p not in member for p in order):
        raise NotAnSSequenceError("ordering contains points outside the set")
    if len(set(order)) != len(order):
        raise NotAnSSequenceError("ordering repeats a point")

    f: Dict[ExponentPair, int] = {order[0]: 0}
    first_on_x: Dict[Fraction, ExponentPair] = {order[0].a: order[0]}
    first_on_y: Dict[Fraction, ExponentPair] = {order[0].b: order[0]}
    # grown up to the first point whose lines are already joined, which along
    # a valid ordering is the first point with predecessors on both axes
    prefix, _ = _grow_forest(order)

    for p in order[1:]:
        vpred = first_on_x.get(p.a)
        hpred = first_on_y.get(p.b)
        if vpred is not None and hpred is not None:
            loop = _close_loop(prefix, p)
            raise ZigzagLoopDetected(f"loop through {p}", loop=loop)
        if vpred is not None:
            f[p] = f[vpred] + 1
        elif hpred is not None:
            f[p] = f[hpred] + 1
        else:
            raise NotAnSSequenceError(f"{p} shares no line with an earlier point")
        first_on_x.setdefault(p.a, p)
        first_on_y.setdefault(p.b, p)
    return f


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
    if anchors < 1:
        raise MalformedInputError("need at least one anchor")
    arr = np.asarray(vals)
    span = arr[-1] - arr[0]
    if span <= window or anchors == 1:
        starts = [arr[0] + (span - window) / 2.0]
    else:
        step = (span - window) / (anchors - 1)
        starts = [arr[0] + i * step for i in range(anchors)]
    best = float("inf")
    for t in starts:
        count = int(np.searchsorted(arr, t + window, side="left")) - int(
            np.searchsorted(arr, t, side="left")
        )
        best = min(best, count / window)
    return best
