"""Convex 2-D rate-region polygons and their comparisons.

Regions are stored as counterclockwise vertex lists starting at the
lexicographically smallest vertex, which makes polygon equality testable.
Only convex regions are supported; everything here is either an
intersection of half-planes or an intersection of two convex polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NoDominantFaceError

#: Absolute tolerance (bits) for vertex dedup and slope detection.
GEOM_TOL = 1e-9
_DEDUP_TOL = 1e-12

REGION_TAGS = ("theorem1", "awgn-box", "ian-box", "custom")


@dataclass(frozen=True)
class HalfPlane:
    """Constraint a1*R1 + a2*R2 <= b."""

    a1: float
    a2: float
    b: float

    def __post_init__(self):
        if self.a1 == 0.0 and self.a2 == 0.0:
            raise ConfigError("half-plane normal must be nonzero")

    def value(self, pt) -> float:
        return self.a1 * pt[0] + self.a2 * pt[1]

    def contains(self, pt, tol: float = _DEDUP_TOL) -> bool:
        """pt lies inside or within distance tol of the boundary line.

        The slack is a distance, so it does not scale with the normal
        (edge planes carry normals as long as their edge)."""
        return (self.value(pt) - self.b) / math.hypot(self.a1, self.a2) <= tol


def _shoelace(vertices) -> float:
    s = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def _canonicalize(vertices):
    """Dedup, orient counterclockwise, rotate to lexicographic minimum."""
    pts = [(float(x), float(y)) for x, y in vertices]
    out = []
    for p in pts:
        if not all(math.isfinite(c) for c in p):
            raise ConfigError("region vertices must be finite")
        if not out or (abs(p[0] - out[-1][0]) > _DEDUP_TOL
                       or abs(p[1] - out[-1][1]) > _DEDUP_TOL):
            out.append(p)
    while len(out) > 1 and (abs(out[0][0] - out[-1][0]) <= _DEDUP_TOL
                            and abs(out[0][1] - out[-1][1]) <= _DEDUP_TOL):
        out.pop()
    if len(out) >= 3 and _shoelace(out) < 0:
        out.reverse()
    start = min(range(len(out)), key=lambda i: out[i]) if out else 0
    return out[start:] + out[:start]


@dataclass(frozen=True)
class Region2D:
    """Convex polygon of achievable (R1, R2) pairs, possibly degenerate."""

    vertices: tuple = ()
    tag: str = "custom"

    def __post_init__(self):
        if self.tag not in REGION_TAGS:
            raise ConfigError(f"tag must be one of {REGION_TAGS}")
        canon = _canonicalize(self.vertices)
        object.__setattr__(self, "vertices", tuple(canon))
        for x, y in canon:
            if x < -_DEDUP_TOL or y < -_DEDUP_TOL:
                raise ConfigError("region must lie in the nonnegative quadrant")
        if len(canon) >= 3 and not _is_convex(canon):
            raise ConfigError("region vertices are not convex")

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def area(self) -> float:
        if len(self.vertices) < 3:
            return 0.0
        return _shoelace(self.vertices)

    def edges(self):
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def to_json_dict(self) -> dict:
        return {"tag": self.tag,
                "vertices": [[x, y] for x, y in self.vertices]}


def _is_convex(pts) -> bool:
    n = len(pts)
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross < -GEOM_TOL:
            return False
    return True


def _clip_halfplane(pts, hp: HalfPlane):
    """Sutherland-Hodgman step for a single half-plane."""
    if not pts:
        return []
    out = []
    n = len(pts)
    for i in range(n):
        s, e = pts[i], pts[(i + 1) % n]
        s_in, e_in = hp.contains(s), hp.contains(e)
        if e_in:
            if not s_in:
                out.append(_intersection(s, e, hp))
            out.append(e)
        elif s_in:
            out.append(_intersection(s, e, hp))
    return out


def _intersection(s, e, hp: HalfPlane):
    fs, fe = hp.value(s), hp.value(e)
    # Clamped: a vertex admitted only by the tolerance must not push the
    # crossing outside the edge, which would extrapolate a new vertex.
    t = min(1.0, max(0.0, (hp.b - fs) / (fe - fs)))
    return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def clip_region(region: Region2D, half_planes, tag: str = "custom") -> Region2D:
    """Intersect a convex region with a sequence of half-planes."""
    pts = list(region.vertices)
    for hp in half_planes:
        pts = _clip_halfplane(pts, hp)
        if not pts:
            break
    return Region2D(vertices=tuple(pts), tag=tag)


def build_region(u1: float, u2: float, u_sum: float,
                 tag: str = "theorem1") -> Region2D:
    """Intersection of {R1,R2 >= 0, R1 <= u1, R2 <= u2, R1+R2 <= u_sum}.

    Produces a rectangle when the sum constraint is slack, a pentagon when
    it cuts one corner, a triangle when it binds alone, and degenerate
    lower-dimensional regions at zero bounds.
    """
    for name, v in (("u1", u1), ("u2", u2), ("u_sum", u_sum)):
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{name} must be finite and >= 0")
    box = Region2D(vertices=((0.0, 0.0), (u1, 0.0), (u1, u2), (0.0, u2)),
                   tag=tag)
    return clip_region(box, [HalfPlane(1.0, 1.0, u_sum)], tag=tag)


def dominant_face_midpoint(region: Region2D):
    """Midpoint of the slope -1 (sum-rate) edge.

    Raises NoDominantFaceError when no such edge exists, e.g. for
    rectangles whose sum constraint is slack.
    """
    for (x0, y0), (x1, y1) in region.edges():
        dx, dy = x1 - x0, y1 - y0
        if abs(dx) > GEOM_TOL and abs(dx + dy) <= GEOM_TOL * max(1.0, abs(dx)):
            return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    raise NoDominantFaceError("no dominant face: region has no slope -1 edge")


def intersect(a: Region2D, b: Region2D) -> Region2D:
    """Intersection of two convex regions (convex polygon clipping).

    When both operands are lower-dimensional (points or segments) only
    shared vertices are kept; those cases carry no area either way.
    """
    if a.is_empty or b.is_empty:
        return Region2D(vertices=(), tag="custom")
    if len(b.vertices) >= 3:
        planes = [HalfPlane(*_edge_plane(s, e)) for s, e in b.edges()]
        return clip_region(a, planes, tag="custom")
    if len(a.vertices) >= 3:
        planes = [HalfPlane(*_edge_plane(s, e)) for s, e in a.edges()]
        return clip_region(b, planes, tag="custom")
    common = [p for p in a.vertices
              if any(abs(p[0] - q[0]) <= _DEDUP_TOL
                     and abs(p[1] - q[1]) <= _DEDUP_TOL
                     for q in b.vertices)]
    return Region2D(vertices=tuple(common), tag="custom")


def _edge_plane(s, e):
    """Half-plane whose boundary carries the directed edge s->e of a
    counterclockwise polygon, interior on the left."""
    a1 = e[1] - s[1]
    a2 = s[0] - e[0]
    return a1, a2, a1 * s[0] + a2 * s[1]


def excess_area(a: Region2D, b: Region2D) -> float:
    """Area of a not covered by b (bits^2): area(a) - area(a intersect b)."""
    return a.area() - intersect(a, b).area()
