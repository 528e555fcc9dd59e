import random
from itertools import product

import pytest

from helpers import HVECTOR_GENERATORS
from pferrer import diagram as dg
from pferrer import macaulay as mc
from pferrer.errors import (
    BadHVector,
    CountOutOfRange,
    NotClosedUnderDivision,
    NotMVector,
    SizeLimitExceeded,
)
from pferrer.limits import Limits


def test_is_m_vector_14341():
    assert mc.is_m_vector((1, 4, 3, 4, 1)).ok


def test_is_m_vector_reports_violation():
    check = mc.is_m_vector((1, 2, 4))
    assert not check.ok
    assert check.index == 2 and check.bound == 3


def test_is_m_vector_trivial():
    assert mc.is_m_vector((1,)).ok
    assert mc.is_m_vector((1, 0)).ok
    assert not mc.is_m_vector((2,)).ok
    assert not mc.is_m_vector((1, 0, 1)).ok


def test_macaulay_bound_values():
    assert mc.macaulay_bound(2, 1) == 3
    assert mc.macaulay_bound(3, 1) == 6
    assert mc.macaulay_bound(4, 2) == 5  # 4 = C(3,2)+C(1,1) -> C(4,3)+C(2,2)
    assert mc.macaulay_bound(0, 3) == 0


def test_revlex_segment_degree2():
    segment = mc.revlex_segment(4, 2, 3)
    assert segment == [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)]


def test_revlex_segment_degree1():
    assert mc.revlex_segment(4, 1, 4) == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]


def test_revlex_segment_two_variables_full():
    assert mc.revlex_segment(2, 3, 4) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_revlex_prefers_late_variables_last():
    # x2^2 precedes x1 x3 because the last nonzero coordinate difference is negative
    segment = mc.revlex_segment(3, 2, 6)
    assert segment.index((0, 2, 0)) < segment.index((1, 0, 1))


def test_revlex_segments_are_nested():
    for count in range(1, 10):
        shorter = mc.revlex_segment(3, 3, count)
        longer = mc.revlex_segment(3, 3, count + 1)
        assert longer[:count] == shorter


def test_revlex_segment_count_out_of_range():
    with pytest.raises(CountOutOfRange):
        mc.revlex_segment(2, 2, 4)
    with pytest.raises(CountOutOfRange):
        mc.revlex_segment(2, 2, -1)


def test_revlex_segment_lists_only_the_variables_it_needs():
    # C(203, 4) monomials exist in 200 variables; the first one is x1^4
    assert mc.revlex_segment(200, 4, 1) == [(4,) + (0,) * 199]


def test_multicomplex_14341():
    multicomplex = mc.multicomplex_from_mvector((1, 4, 3, 4, 1))
    assert multicomplex.nvars == 4
    assert multicomplex.degree_census() == (1, 4, 3, 4, 1)
    # degree 3 closes with x2^3, not with any monomial in x3
    assert (0, 3, 0, 0) in multicomplex.monomials
    assert (0, 0, 2, 0) not in multicomplex.monomials


def test_multicomplex_chain():
    multicomplex = mc.multicomplex_from_mvector((1, 1, 1))
    assert multicomplex.monomials == {(0,), (1,), (2,)}


def test_multicomplex_two_variables():
    multicomplex = mc.multicomplex_from_mvector((1, 2))
    assert multicomplex.monomials == {(0, 0), (1, 0), (0, 1)}


def test_multicomplex_rejects_non_mvector():
    with pytest.raises(NotMVector):
        mc.multicomplex_from_mvector((1, 2, 4))


def test_diagram_from_multicomplex_single_box():
    multicomplex = mc.Multicomplex(frozenset({(0, 0)}), 2)
    part = mc.diagram_from_multicomplex(multicomplex)
    assert dg.boxes(part) == ((1, 1),)


def test_diagram_from_multicomplex_chain():
    multicomplex = mc.Multicomplex(frozenset({(0,), (1,), (2,)}), 1)
    part = mc.diagram_from_multicomplex(multicomplex)
    assert part.to_tree() == 3


def test_diagram_diagonals_count_multicomplex_degrees():
    rng = random.Random(97)
    accepted = 0
    while accepted < 25:
        h = [1] + [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        if not mc.is_m_vector(h).ok:
            continue
        while h and h[-1] == 0:
            h.pop()
        if len(h) == 1 and h == [1]:
            continue
        multicomplex = mc.multicomplex_from_mvector(h)
        part = mc.diagram_from_multicomplex(multicomplex)
        profile = dg.diagonal_profile(part)
        assert profile.counts == tuple(h)
        accepted += 1


def test_realize_14341():
    realization = mc.realize_mvector((1, 4, 3, 4, 1))
    assert [str(g) for g in realization.ideal.generators] == HVECTOR_GENERATORS
    assert realization.dual_h_vector == (1, 4, 3, 4, 1)
    assert realization.verified


def test_realize_two_boxes():
    realization = mc.realize_mvector((1, 1))
    assert realization.diagram.to_tree() == 2
    assert realization.dual_h_vector == (1, 1)
    assert realization.verified


def test_realize_cm_case():
    realization = mc.realize_mvector((1, 3, 6))
    assert realization.diagram == dg.full_diagram(3, 3)
    assert realization.dual_h_vector == (1, 3, 6)
    assert realization.verified


def test_realize_single_box():
    realization = mc.realize_mvector((1,))
    assert realization.diagram.to_tree() == 1
    assert realization.dual_h_vector == (1,)
    assert realization.verified


def test_realize_box_limit_precedes_the_macaulay_check():
    with pytest.raises(SizeLimitExceeded):
        mc.realize_mvector((1, 2, 4), Limits(max_boxes=6))
    with pytest.raises(NotMVector):
        mc.realize_mvector((1, 2, 4), Limits(max_boxes=7))


@pytest.mark.parametrize("h", [(1,), (1, 1, 1), (1, 3, 6), (1, 4, 3, 4, 1), (1, 3, 2, 1, 1)])
def test_realize_variable_count_is_the_ideals(h):
    n = len(mc.realize_mvector(h).ideal.ambient)
    assert mc.realize_mvector(h, Limits(hitting_set_max_variables=n)).verified
    with pytest.raises(SizeLimitExceeded, match=f"^{n} variables exceed hitting-set limit {n - 1}$"):
        mc.realize_mvector(h, Limits(hitting_set_max_variables=n - 1))


def test_realize_variable_limit_precedes_the_build(monkeypatch):
    def unreachable(_):
        raise AssertionError("diagram built before the variable count was checked")

    monkeypatch.setattr(mc, "diagram_from_multicomplex", unreachable)
    with pytest.raises(SizeLimitExceeded, match="^1201 variables exceed hitting-set limit 30$"):
        mc.realize_mvector((1, 600, 1))


@pytest.mark.parametrize(
    "h, message",
    [
        ((1, -1), "h_1 = -1 is negative"),
        ((1, 2, -3), "h_2 = -3 is negative"),
        ((-1,), "h_0 = -1 is negative"),
    ],
)
def test_realize_rejects_a_negative_entry(h, message):
    with pytest.raises(BadHVector, match=f"^{message}$"):
        mc.realize_mvector(h)
    with pytest.raises(BadHVector, match=f"^{message}$"):
        mc.multicomplex_from_mvector(h)
    with pytest.raises(BadHVector, match=f"^{message}$"):
        mc.is_m_vector(h)


def test_realize_negative_check_precedes_the_box_limit():
    with pytest.raises(BadHVector, match="^h_2 = -1 is negative$"):
        mc.realize_mvector((1, 99_999_999_999, -1))


@pytest.mark.parametrize(
    "h, message",
    [((0,), "h_0 must be 1"), ((2, 1), "h_0 must be 1"), ((1, 2, 4), "h_2 <= 3 is violated")],
)
def test_not_mvector_message(h, message):
    with pytest.raises(NotMVector, match=f"^{message}$"):
        mc.realize_mvector(h)


def test_realize_roundtrip_small_grid():
    # exhaustive over sub-grids that keep the default run fast; the full
    # stated grid lives in the slow-marked test below
    checked = 0
    for h1, h2, h3 in product(range(1, 5), range(9), range(9)):
        h = (1, h1, h2, h3)
        while h[-1] == 0:
            h = h[:-1]
        if not mc.is_m_vector(h).ok:
            continue
        realization = mc.realize_mvector(h)
        assert realization.verified, h
        checked += 1
    for h1, h2, h3, h4 in product(range(1, 4), range(7), range(7), range(1, 7)):
        h = (1, h1, h2, h3, h4)
        if not mc.is_m_vector(h).ok:
            continue
        realization = mc.realize_mvector(h)
        assert realization.verified, h
        checked += 1
    assert checked >= 190


@pytest.mark.slow
def test_realize_roundtrip_full_grid():
    # every admissible vector with length <= 5, h1 <= 5 and entries <= 20;
    # 3390 realizations, about 2 s
    checked = 0
    for h1, h2, h3, h4 in product(range(1, 6), range(21), range(21), range(21)):
        h = (1, h1, h2, h3, h4)
        while h[-1] == 0:
            h = h[:-1]
        if not mc.is_m_vector(h).ok:
            continue
        realization = mc.realize_mvector(h)
        assert realization.verified, h
        checked += 1
    assert checked == 3390


def _segments_form_multicomplex(h) -> bool:
    nvars = max(h[1] if len(h) > 1 else 0, 1)
    monomials = set()
    try:
        for degree, count in enumerate(h):
            monomials.update(mc.revlex_segment(nvars, degree, count))
        mc._check_closed(monomials)
    except (CountOutOfRange, NotClosedUnderDivision):
        return False
    return True


def test_is_m_vector_agrees_with_closure_on_grid():
    # Macaulay admissibility coincides with the revlex segments forming a
    # divisibility-closed set, over the stated grid
    for h1 in range(6):
        for h2 in range(21):
            for h3 in range(21):
                h = (1, h1, h2, h3)
                assert mc.is_m_vector(h).ok == _segments_form_multicomplex(h), h
