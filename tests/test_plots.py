"""SVG plots: per-point error bands and the empty plot."""

import math

from fklab.plots import render_svg

BAND = 'stroke-width="1"/>'     # only a band line is drawn this thin


def test_error_bands_skip_what_they_cannot_draw(tmp_path):
    # point 1's band has a NaN end and point 2's a negative one: the first
    # is never drawn, the second only on a linear y axis
    curve = {"label": "n_hat", "x": [1.0, 2.0, 3.0, 4.0], "y": [1.0, 2.0, 3.0, 4.0],
             "lo": [0.5, math.nan, -1.0, 3.5], "hi": [1.5, 2.5, 3.5, 4.5]}
    for logy, drawn in ((True, 2), (False, 3)):
        path = tmp_path / f"band_{logy}.svg"
        render_svg(str(path), [curve], logy=logy)
        svg = path.read_text()
        assert svg.count(BAND) == drawn, (logy, svg.count(BAND))
        assert svg.count("<circle") == 4
    # a curve with no finite point leaves nothing to plot
    empty = tmp_path / "empty.svg"
    render_svg(str(empty), [{"x": [1.0, 2.0], "y": [math.nan, math.nan],
                             "lo": [0.5, 1.5], "hi": [1.5, 2.5]}], logy=True)
    svg = empty.read_text()
    assert "no plottable points" in svg and BAND not in svg
    assert svg.startswith("<svg") and svg.endswith("</svg>")
