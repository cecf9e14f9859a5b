import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpmcap.errors import ConfigError, NoDominantFaceError
from xpmcap.regions import (Region2D, build_region, dominant_face_midpoint,
                            excess_area, intersect)

bounds_strategy = st.floats(min_value=0.0, max_value=10.0)


def closed_form_area(u1, u2, u_sum):
    """Independent oracle: rectangle minus the clamped corner cut."""
    d = max(0.0, u1 + u2 - u_sum)
    cut = 0.5 * d * d - 0.5 * max(0.0, d - u1) ** 2 - 0.5 * max(0.0, d - u2) ** 2
    return u1 * u2 - cut


class TestBuildRegion:
    def test_published_pentagon(self):
        region = build_region(0.39, 0.39, 0.494233)
        cut = 0.494233 - 0.39
        assert region.vertices == ((0.0, 0.0), (0.39, 0.0), (0.39, cut),
                                   (cut, 0.39), (0.0, 0.39))

    def test_slack_sum_gives_rectangle(self):
        region = build_region(1.0, 1.0, 3.0)
        assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0),
                                   (0.0, 1.0))

    def test_zero_sum_gives_point(self):
        region = build_region(1.0, 1.0, 0.0)
        assert region.vertices == ((0.0, 0.0),)
        assert region.area() == 0.0

    def test_binding_sum_gives_triangle(self):
        region = build_region(2.0, 2.0, 1.0)
        assert len(region.vertices) == 3
        assert region.area() == pytest.approx(0.5)

    def test_intermediate_sum_gives_trapezoid(self):
        region = build_region(1.0, 3.0, 2.0)
        assert len(region.vertices) == 4
        assert region.area() == pytest.approx(closed_form_area(1.0, 3.0, 2.0))

    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigError):
            build_region(-0.1, 1.0, 1.0)

    def test_random_draws_satisfy_all_invariants(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            u1, u2 = rng.uniform(0.0, 5.0, size=2)
            u_sum = rng.uniform(0.0, 1.2 * (u1 + u2))
            region = build_region(u1, u2, u_sum)
            verts = region.vertices
            # area oracle
            assert region.area() == pytest.approx(
                closed_form_area(u1, u2, u_sum), abs=1e-12)
            # every vertex satisfies every constraint
            for x, y in verts:
                assert -1e-12 <= x <= u1 + 1e-12
                assert -1e-12 <= y <= u2 + 1e-12
                assert x + y <= u_sum + 1e-12
            # counterclockwise convex ordering
            n = len(verts)
            if n >= 3:
                for i in range(n):
                    ax, ay = verts[i]
                    bx, by = verts[(i + 1) % n]
                    cx, cy = verts[(i + 2) % n]
                    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                    assert cross >= -1e-12
            # canonical start: lexicographically smallest vertex
            if verts:
                assert min(verts) == verts[0]


class TestDominantFace:
    def test_published_midpoint(self):
        region = build_region(0.39, 0.39, 0.494233)
        mid = dominant_face_midpoint(region)
        assert mid == pytest.approx((0.2471165, 0.2471165), abs=1e-9)

    def test_triangle_midpoint(self):
        region = build_region(2.0, 2.0, 2.0)
        assert dominant_face_midpoint(region) == pytest.approx((1.0, 1.0))

    def test_rectangle_has_no_dominant_face(self):
        with pytest.raises(NoDominantFaceError):
            dominant_face_midpoint(build_region(1.0, 1.0, 3.0))

    def test_point_region_has_no_dominant_face(self):
        with pytest.raises(NoDominantFaceError):
            dominant_face_midpoint(build_region(1.0, 1.0, 0.0))

    def test_tiny_bound_keeps_its_face(self):
        # the face follows from the triple, with no slope tolerance
        mid = dominant_face_midpoint(build_region(1.0, 1e-9, 1.0))
        assert mid == pytest.approx((0.9999999995, 5e-10), rel=1e-15)
        with pytest.raises(NoDominantFaceError):
            dominant_face_midpoint(build_region(0.0, 1.0, 0.5))


class TestIntersect:
    def test_subset_returns_subset(self):
        small = build_region(0.5, 0.5, 2.0)
        large = build_region(2.0, 2.0, 10.0)
        got = intersect(small, large)
        assert got.vertices == small.vertices

    @pytest.mark.parametrize("ta,tb", [
        ((1.0, 1.0, 1e-3), (1.0, 1.0, 1e-9)),
        ((1.0, 1.55e-6, 1.0), (1.0, 1.0, 1.192092896e-7)),
        ((5.0, 0.001, 5.0), (2.5, 5.0, 5.0)),
        ((1.0, 1.19e-12, 0.0), (1.0, 1.0, 1.0)),
    ])
    def test_tiny_edges_clip_without_slack_blowup(self, ta, tb):
        # Edge-plane normals scale with edge length, so the containment
        # slack must be a distance, and a vertex admitted by the slack
        # alone must not push a crossing past its edge (a negative vertex).
        a, b = build_region(*ta), build_region(*tb)
        ab, ba = intersect(a, b), intersect(b, a)
        scale = max(a.area(), b.area())
        bound = min(a.area(), b.area())
        assert ab.area() <= bound + 1e-9 * scale
        assert ba.area() == pytest.approx(ab.area(), rel=1e-9, abs=1e-30)
        assert intersect(a, a).vertices == a.vertices
        assert intersect(b, b).vertices == b.vertices

    @settings(max_examples=200)
    @given(st.tuples(bounds_strategy, bounds_strategy, bounds_strategy),
           st.tuples(bounds_strategy, bounds_strategy, bounds_strategy))
    def test_commutative_idempotent_and_bounded(self, ta, tb):
        a = build_region(*ta)
        b = build_region(*tb)
        ab = intersect(a, b)
        ba = intersect(b, a)
        assert ab.area() == pytest.approx(ba.area(), abs=1e-9)
        assert ab.area() <= min(a.area(), b.area()) + 1e-9
        assert intersect(a, a).vertices == a.vertices
        assert ab.vertices == build_region(*map(min, ta, tb)).vertices


class TestExcessArea:
    def test_identical_regions(self):
        a = build_region(1.0, 2.0, 2.5)
        assert excess_area(a, a) == 0.0

    def test_subset_has_no_excess(self):
        small = build_region(0.5, 0.5, 2.0)
        large = build_region(2.0, 2.0, 10.0)
        assert excess_area(small, large) == pytest.approx(0.0, abs=1e-12)

    def test_corner_triangle_ruled_out_by_sum_cut(self):
        # box at the single-user bounds vs the pentagon
        u1 = u2 = 0.39
        u_sum = 0.494233
        box = build_region(u1, u2, u1 + u2 + 1.0, tag="awgn-box")
        pentagon = build_region(u1, u2, u_sum)
        excess = excess_area(box, pentagon)
        corner = 0.5 * (u1 + u2 - u_sum) ** 2
        assert excess == pytest.approx(corner, abs=1e-12)
        assert excess == pytest.approx(0.0409, abs=2e-4)


class TestRegionType:
    def test_tag_validation(self):
        with pytest.raises(ConfigError):
            build_region(1.0, 1.0, 1.0, tag="pentagon")

    def test_quadrant_validation(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigError):
                Region2D(1.0, 1.0, bad)

    def test_duplicate_vertices_removed(self):
        # The sum bound passes through the corner (1, 1), where both of
        # its cut vertices fall, and a zero bound collapses an edge.
        assert build_region(1.0, 1.0, 2.0).vertices == (
            (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        assert build_region(0.0, 1.0, 2.0).vertices == ((0.0, 0.0), (0.0, 1.0))

    def test_json_round_trip(self):
        region = build_region(0.39, 0.39, 0.494233)
        doc = region.to_json_dict()
        assert doc["tag"] == "theorem1"
        back = json.loads(json.dumps(doc))
        assert back["vertices"] == [list(v) for v in region.vertices]
        xs, ys = zip(*back["vertices"])
        u_sum = max(x + y for x, y in back["vertices"])
        assert build_region(max(xs), max(ys), u_sum, tag=back["tag"]) == region
