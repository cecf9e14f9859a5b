"""2-D rate regions {R1, R2 >= 0, R1 <= u1, R2 <= u2, R1 + R2 <= u_sum}.

Every region the toolkit draws belongs to this family: the outer bound
(a pentagon when the sum bound cuts the corner, a triangle when it binds
alone) and the linear-channel and interference-as-noise boxes (sum bound
slack). A region is therefore its bound triple (u1, u2, u_sum), and two
regions intersect in the region of the element-wise smaller triple, so no
polygon clipping is needed. Vertices follow from the triple in closed
form, counterclockwise from (0, 0); a region always contains (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, NoDominantFaceError

_DEDUP_TOL = 1e-12

REGION_TAGS = ("theorem1", "awgn-box", "ian-box", "custom")


def _vertices(u1: float, u2: float, s: float) -> tuple:
    """Counterclockwise vertices from (0, 0), coincident neighbours merged."""
    pts = [(0.0, 0.0), (min(u1, s), 0.0)]
    if s > u1:
        pts.append((u1, min(u2, s - u1)))
    if s > u2:
        pts.append((min(u1, s - u2), u2))
    pts.append((0.0, min(u2, s)))
    out = []
    for p in pts:
        if not out or (abs(p[0] - out[-1][0]) > _DEDUP_TOL
                       or abs(p[1] - out[-1][1]) > _DEDUP_TOL):
            out.append(p)
    while len(out) > 1 and (abs(out[0][0] - out[-1][0]) <= _DEDUP_TOL
                            and abs(out[0][1] - out[-1][1]) <= _DEDUP_TOL):
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Region2D:
    """Rate region of a bound triple; equal when vertices and tag are."""

    u1: float = field(compare=False)
    u2: float = field(compare=False)
    u_sum: float = field(compare=False)
    tag: str = "custom"
    vertices: tuple = field(init=False)

    def __post_init__(self):
        for name in ("u1", "u2", "u_sum"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, value)
        if self.tag not in REGION_TAGS:
            raise ConfigError(f"tag must be one of {REGION_TAGS}")
        object.__setattr__(self, "vertices",
                           _vertices(self.u1, self.u2, self.u_sum))

    def area(self) -> float:
        """The box min(u1, s) x min(u2, s) less the corner the sum bound
        s cuts off."""
        a, b = min(self.u1, self.u_sum), min(self.u2, self.u_sum)
        return a * b - max(0.0, a + b - self.u_sum) ** 2 / 2.0

    def to_json_dict(self) -> dict:
        return {"tag": self.tag,
                "vertices": [[x, y] for x, y in self.vertices]}


def build_region(u1: float, u2: float, u_sum: float,
                 tag: str = "theorem1") -> Region2D:
    """Region of {R1,R2 >= 0, R1 <= u1, R2 <= u2, R1+R2 <= u_sum}.

    A rectangle when the sum constraint is slack, a pentagon when it cuts
    one corner, a triangle when it binds alone, and a segment or the
    point (0, 0) at zero bounds.
    """
    return Region2D(u1, u2, u_sum, tag)


def dominant_face_midpoint(region: Region2D):
    """Midpoint of the slope -1 (sum-rate) edge, from (min(u1, s),
    max(0, s - u1)) to (max(0, s - u2), min(u2, s)) with s = u_sum.

    Raises NoDominantFaceError when that edge has no length, e.g. for
    rectangles whose sum constraint is slack.
    """
    u1, u2, s = region.u1, region.u2, region.u_sum
    x0, y0 = min(u1, s), max(0.0, s - u1)
    x1, y1 = max(0.0, s - u2), min(u2, s)
    if not x1 < x0:
        raise NoDominantFaceError(
            "no dominant face: region has no slope -1 edge")
    return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


def intersect(a: Region2D, b: Region2D) -> Region2D:
    """Intersection of two regions: the region of the smaller triple."""
    return Region2D(min(a.u1, b.u1), min(a.u2, b.u2),
                    min(a.u_sum, b.u_sum), "custom")


def excess_area(a: Region2D, b: Region2D) -> float:
    """Area of a not covered by b (bits^2): area(a) - area(a intersect b)."""
    return a.area() - intersect(a, b).area()
