"""The shifted substitution in two_class_specialize against the product form it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relzeros import ExactBiPoly, ExactUniPoly, reliability, shifted_power, two_class_specialize
from relzeros.polycore import taylor_shift
from relzeros.reference import family_bipoly
from util_graphs import poly_add, reference_taylor_shift


# The power-product form that the shifted substitution replaced, kept verbatim
# but for its sums, written with poly_add since ExactUniPoly has no +.
def reference_two_class_specialize(p, p1, p2):
    if not isinstance(p, ExactBiPoly):
        raise TypeError("expected ExactBiPoly")
    if not (isinstance(p1, int) and isinstance(p2, int) and p1 >= 1 and p2 >= 1):
        raise ValueError("multiplicities must be integers >= 1")
    a = shifted_power(p1)
    b = shifted_power(p2)
    apow = [ExactUniPoly([1])]
    for _ in range(p.degree_a):
        apow.append(apow[-1] * a)
    bpow = [ExactUniPoly([1])]
    for _ in range(p.degree_b):
        bpow.append(bpow[-1] * b)
    acc = ExactUniPoly()
    for (da, db), c in sorted(p.terms.items()):
        acc = poly_add(acc, apow[da] * bpow[db] * c)
    return acc


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    assert type(result) is ExactUniPoly
    return result.coeffs


@st.composite
def small_bipolys(draw):
    na = draw(st.integers(0, 4))
    nb = draw(st.integers(0, 4))
    coeff = st.one_of(st.integers(-5, 5), st.integers(-10 ** 30, 10 ** 30))
    return ExactBiPoly({(da, db): draw(coeff) for da in range(na + 1) for db in range(nb + 1)
                        if draw(st.booleans())})


@settings(max_examples=300, deadline=None)
@given(p=small_bipolys(), p1=st.integers(1, 12), p2=st.integers(1, 12))
def test_random_bipoly_matches_reference(p, p1, p2):
    assert outcome(two_class_specialize, p, p1, p2) == \
        outcome(reference_two_class_specialize, p, p1, p2)


@pytest.mark.parametrize("p, p1, p2", [
    (ExactBiPoly({(1, 1): 1}), 0, 1),
    (ExactBiPoly({(1, 1): 1}), 2, -1),
    (ExactBiPoly({(1, 1): 1}), 1.0, 1),
    (ExactUniPoly([1, 2]), 1, 1),
])
def test_errors_match_reference(p, p1, p2):
    assert outcome(two_class_specialize, p, p1, p2) == \
        outcome(reference_two_class_specialize, p, p1, p2)


@pytest.mark.parametrize("case", ["a", "b", "c", "d", "e", "k6"])
@pytest.mark.parametrize("p1, p2", [(1, 1), (20, 20), (30, 7), (7, 30)])
def test_family_members_match_reference(case, p1, p2):
    p = family_bipoly(case)
    assert two_class_specialize(p, p1, p2).coeffs == \
        reference_two_class_specialize(p, p1, p2).coeffs


@pytest.mark.parametrize("case, p1, p2", [("k6", 20, 20), ("k6", 30, 7), ("k6", 7, 30),
                                          ("b", 1000, 1)])
def test_shift_matches_the_double_loop(monkeypatch, case, p1, p2):
    shifts = []

    def spy(coeffs, s):
        shifts.append((list(coeffs), s, taylor_shift(coeffs, s)))
        return shifts[-1][2]

    monkeypatch.setattr(reliability, "taylor_shift", spy)
    p = family_bipoly(case)
    got = two_class_specialize(p, p1, p2)
    [(coeffs, s, shifted)] = shifts
    assert len(coeffs) == p1 * p.degree_a + p2 * p.degree_b + 1  # 2005 for k4:b:1000:1
    assert shifted == reference_taylor_shift(coeffs, s) == list(got.coeffs)
