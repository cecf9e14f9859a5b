import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from xpmcap.regions import build_region
from xpmcap.svgout import _limits, _nice_ticks, render_curves, render_regions

REPO = Path(__file__).resolve().parents[1]
NS = "{http://www.w3.org/2000/svg}"

SERIES = [
    ("u1", "green", None, [-20.0, -5.0, 10.3], [0.01, 0.2, 2.1]),
    ("awgn", "red", "6,4", [-20.0, -5.0, 10.3], [0.007, 0.21, 2.7]),
    ("flat", "blue", None, [-20.0, 10.3], [1.0, 1.0]),
]
LAYERS = [
    (build_region(0.39, 0.39, 0.78 + 1.0, tag="awgn-box"), "red", 0.15,
     "awgn box"),
    (build_region(0.39, 0.39, 0.494233), "green", 0.35, "outer bound"),
    (build_region(0.0, 0.0, 0.0), "blue", 0.35, "a point"),
]
NOTES = ["excess area: 0.1 bits^2", "excess area: 0.2 bits^2"]


def _root(text):
    root = ET.fromstring(text)
    assert root.tag == NS + "svg"
    return root


def _all(root, tag):
    return root.findall(f".//{NS}{tag}")


def _texts(root):
    return [t.text for t in _all(root, "text")]


class TestCurves:
    def test_one_polyline_and_legend_entry_per_series(self):
        root = _root(render_curves(SERIES, "P1 (dBm)", "Rate"))
        polylines = _all(root, "polyline")
        assert [p.get("stroke") for p in polylines] == ["green", "red",
                                                        "blue"]
        assert [len(p.get("points").split()) for p in polylines] == [3, 3, 2]
        assert polylines[1].get("stroke-dasharray") == "6,4"
        legend = [line for line in _all(root, "line")
                  if line.get("stroke-width") == "1.8"]
        assert [line.get("stroke") for line in legend] == ["green", "red",
                                                           "blue"]
        texts = _texts(root)
        assert {"u1", "awgn", "flat", "P1 (dBm)", "Rate"} <= set(texts)

    def test_single_point_and_flat_curves(self):
        for xs, ys in (([0.0], [0.5]), ([0.0, 1.0, 2.0], [1.5] * 3)):
            root = _root(render_curves([("c", "red", None, xs, ys)], "x",
                                       "y"))
            assert len(_all(root, "polyline")) == 1

    def test_same_input_same_bytes(self):
        assert render_curves(SERIES, "x", "y") == render_curves(
            SERIES, "x", "y")


class TestRegions:
    def test_paths_legend_and_annotations(self):
        root = _root(render_regions(LAYERS, NOTES))
        # The point region has one vertex: no path, but a legend entry.
        paths = _all(root, "path")
        assert [p.get("fill") for p in paths] == ["red", "green"]
        for p in paths:
            d = p.get("d").split()
            assert d[0] == "M" and d[-1] == "Z"
            assert d.count("L") + 1 >= 2
        legend = [r for r in _all(root, "rect") if r.get("width") == "12"]
        assert [r.get("fill") for r in legend] == ["red", "green", "blue"]
        texts = _texts(root)
        for note in NOTES:
            assert texts.count(note) == 1
        assert {"awgn box", "outer bound", "a point"} <= set(texts)

    def test_same_input_same_bytes(self):
        assert render_regions(LAYERS, NOTES) == render_regions(LAYERS, NOTES)


class TestTicks:
    def test_rounding_level_span_is_one_unit(self):
        lo, hi = _limits([5.0, 5.000000000000001])
        assert hi - lo > 1.0
        assert 1 <= len(_nice_ticks(lo, hi)) <= 12

    def test_ticks_lie_inside_the_axis(self):
        for values in ([0.0, 0.0], [-3.0, 7.0], [1e-3, 2e-3], [0.0, 2.7]):
            lo, hi = _limits(values)
            ticks = _nice_ticks(lo, hi)
            assert 2 <= len(ticks) <= 12
            assert all(lo <= t <= hi for t in ticks)
            assert ticks == sorted(ticks)

    def test_sweep_svg_at_rounding_level_span_returns(self, tmp_path):
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "xpmcap.cli", "--quiet", "--config",
             str(REPO / "configs" / "reference.yaml"), "--out-dir",
             str(tmp_path), "sweep", "--powers-dbm", "5", "5.000000000000001",
             "--svg", "s.svg"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        _root((tmp_path / "s.svg").read_text(encoding="utf-8"))

    def test_degenerate_axis_far_from_zero(self):
        # From |v| ~ 1e16 one unit rounds away, so the span is 1e-12 |v|;
        # below, it stays one unit.
        for v in (1e16, 1e17, -1e17, 1e300):
            for xs, ys in (([v, v], [1.0, 1.0]), ([1.0, 1.0], [v, v])):
                root = _root(render_curves([("c", "red", None, xs, ys)],
                                           "x", "y"))
                assert len(_all(root, "polyline")) == 1
            lo, hi = _limits([v, v])
            assert hi - lo == pytest.approx(1.1e-12 * abs(v),
                                            abs=4 * math.ulp(v))
            assert 2 <= len(_nice_ticks(lo, hi)) <= 12
        for v in (0.0, -3.0, 1e12, 1e15):
            lo, hi = _limits([v, v])
            assert hi - lo == pytest.approx(1.1, abs=4 * math.ulp(v) + 1e-15)

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1.0], [5.0, 5.00000001]), ([0.0, 1.0], [0.39, 0.3900004]),
        ([1e17, 1e17], [0.0, 1.0])],
        ids=["y-span-2e-9", "y-span-1e-6", "x-degenerate-1e17"])
    def test_labels_tell_neighbouring_ticks_apart(self, xs, ys):
        root = _root(render_curves([("c", "red", None, xs, ys)], "x", "y"))
        texts = _all(root, "text")
        axes = [[t.text for t in texts if t.get("y") == "452"],
                [t.text for t in texts if t.get("text-anchor") == "end"]]
        for values, labels in zip((xs, ys), axes):
            # Each label reads closer to its own tick than to a neighbour.
            ticks = _nice_ticks(*_limits(values))
            assert len(labels) == len(ticks) >= 2
            half = (ticks[1] - ticks[0]) / 2
            assert all(abs(float(label) - t) < half
                       for label, t in zip(labels, ticks)), labels
        # An axis whose ticks differ at 6 significant digits keeps them.
        assert axes[0 if xs[0] == 0.0 else 1] == ["0", "0.2", "0.4", "0.6",
                                                  "0.8", "1"]

    def test_tick_step_below_the_values_ulp_returns(self):
        # Near 4e15 one unit survives, but its 0.2 tick step rounds away.
        code = ("from xpmcap.svgout import render_curves\n"
                "for v in (4e15, 9e15):\n"
                "    render_curves([('c', 'r', None, [v, v], [1, 1])], 'x', "
                "'y')\n"
                "    render_curves([('c', 'r', None, [1, 1], [v, v])], 'x', "
                "'y')\n")
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
