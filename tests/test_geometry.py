import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhverify import GenParams, OutOfDomainError, ParameterError, Rect
from hhverify.geometry import require_inside, scaled_eval_edges


def test_rect_rejects_degenerate():
    with pytest.raises(ParameterError):
        Rect(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        Rect(0.0, 1.0, 2.0, 1.0)
    for corner in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ParameterError, match="non-finite"):
            Rect(0.0, 1.0, 0.0, corner)
        with pytest.raises(ParameterError, match="non-finite"):
            Rect(corner, 1.0, 0.0, 1.0)


def test_rect_rejects_area_outside_the_positive_finite_floats():
    # the area underflows to 0.0; the width, and with it the area, overflows to inf
    for corners in ((0.0, 1e-300, 0.0, 1e-300), (-1e308, 1e308, 0.0, 1.0), (0.0, 1e200, 0.0, 1e200)):
        with pytest.raises(ParameterError, match="positive finite"):
            Rect(*corners)
    assert Rect(0.0, 1e-150, 0.0, 1e-150).area == 1e-300


def test_rect_helpers():
    r = Rect(0.0, 2.0, -1.0, 3.0)
    assert r.width == 2.0 and r.height == 4.0 and r.area == 8.0
    assert r.mid_x == 1.0 and r.mid_y == 1.0
    assert r.contains(0.0, 3.0) and not r.contains(2.1, 0.0)
    assert r.contains_rect(Rect(0.5, 1.5, 0.0, 1.0))
    assert not r.contains_rect(Rect(0.5, 2.5, 0.0, 1.0))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s1": 0.0},
        {"s2": 1.5},
        {"alpha1": -0.1},
        {"alpha2": 1.1},
        {"m1": 0.0},
        {"m2": 1.2},
        {"q": 0.5},
    ],
)
def test_genparams_rejects_out_of_range(kwargs):
    with pytest.raises(ParameterError):
        GenParams(**kwargs)


def test_genparams_conjugate():
    assert GenParams(q=2.0).p == 2.0
    assert GenParams(q=1.5).p == 3.0
    with pytest.raises(ParameterError):
        GenParams(q=1.0).p


def test_scaled_eval_hull_identity_scaling():
    assert Rect(*scaled_eval_edges(Rect(0, 1, 0, 1), GenParams())) == Rect(0, 1, 0, 1)


def test_scaled_eval_hull_scales_upper_corner():
    assert Rect(*scaled_eval_edges(Rect(0, 1, 0, 1), GenParams(m1=0.5))) == Rect(0, 2, 0, 1)


def test_scaled_eval_hull_negative_left_edge():
    # b/m1 = 2, and sampled x = a = -1 scales to a/m1 = -2: hull of {-2, -1, 1, 2}
    assert Rect(*scaled_eval_edges(Rect(-1, 1, 0, 1), GenParams(m1=0.5))) == Rect(-2, 2, 0, 1)


def test_require_inside_names_the_first_point_outside():
    domain = Rect(0, 1, 0, 1)
    require_inside(domain, [(0.0, 0.0), (1.0, 1.0)], "unit")
    with pytest.raises(OutOfDomainError) as exc_info:
        require_inside(domain, [(0.5, 0.5), (1.5, 0.0), (-1.0, 0.0)], "unit")
    assert exc_info.value.point == (1.5, 0.0)
    assert str(exc_info.value) == "unit: point (1.5, 0.0) outside domain [0, 1] x [0, 1]"


@settings(max_examples=100, deadline=None)
@given(
    m_small=st.floats(min_value=0.05, max_value=1.0),
    m_large=st.floats(min_value=0.05, max_value=1.0),
    b=st.floats(min_value=-5.0, max_value=5.0),
)
def test_hull_monotone_in_m(m_small, m_large, b):
    """Shrinking m never shrinks the hull."""
    lo, hi = sorted((m_small, m_large))
    r = Rect(b - 1.0, b + 1.0, 0.0, 1.0)
    h_small = Rect(*scaled_eval_edges(r, GenParams(m1=lo, m2=lo)))
    h_large = Rect(*scaled_eval_edges(r, GenParams(m1=hi, m2=hi)))
    assert h_small.contains_rect(h_large)
