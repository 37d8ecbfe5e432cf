"""Multiplicative and additive characters, Gauss sums."""

import pytest

from toric_correlator import AddChar, CycNum, MulChar, build_tower, gauss_sum
from toric_correlator.chars import canonical_mul_char


@pytest.fixture(scope="module")
def t25():
    return build_tower(5, 2)


def test_mul_char_is_multiplicative(t25):
    t = t25
    chi = MulChar(t.order, 3)
    for a in range(0, t.order, 7):
        for b in range(0, t.order, 11):
            lhs = chi.value(t, t.mul(a, b))
            assert lhs == chi.value(t, a) * chi.value(t, b)


def test_mul_char_orthogonality(t25):
    t = t25
    for j in range(4):
        chi = MulChar(t.order, j)
        total = sum(
            (chi.value(t, a) for a in range(t.order)), CycNum.rational(0)
        )
        if chi.j == 0:
            assert total == CycNum.rational(t.order)
        else:
            assert total.is_zero()


def test_restriction_to_subfield(t25):
    t = t25
    sub = t.p - 1
    chi = MulChar(t.order, 7)
    res = chi.restrict(sub)
    assert res.k == sub
    for e in range(sub):
        a = t.sub_exp(1, e)
        assert chi.value(t, a) == res.value(t, a)


def test_conj_and_power(t25):
    t = t25
    chi = MulChar(t.order, 5)
    a = 9 % t.order
    v = chi.value(t, a)
    assert chi.conj().value(t, a) == v.conj()
    assert chi.power(3).value(t, a) == v * v * v
    assert (chi * chi).value(t, a) == v * v


def test_add_char_is_additive(t25):
    t = t25
    psi = AddChar(2)
    for a in range(0, t.order, 9):
        for b in range(0, t.order, 13):
            s = t.add(a, b)
            assert psi.value(t, s) == psi.value(t, a) * psi.value(t, b)


def test_add_char_orthogonality(t25):
    t = t25
    psi = AddChar(2)
    total = psi.value(t, None) + sum(
        (psi.value(t, a) for a in range(t.order)), CycNum.rational(0)
    )
    assert total.is_zero()


def test_gauss_sum_absolute_value(t25):
    t = t25
    q = t.p**2
    psi = AddChar(2)
    for j in (1, 5, 11):
        chi = MulChar(q - 1, j)
        gs = gauss_sum(t, chi, psi)
        assert gs.abs2() == CycNum.rational(q)


def test_gauss_sum_trivial_char(t25):
    t = t25
    chi = MulChar(t.p**2 - 1, 0)
    assert gauss_sum(t, chi, AddChar(2)) == CycNum.rational(-1)


def test_gauss_sum_conjugation_relation(t25):
    # G(chi) * G(chi-bar) = chi(-1) * q for nontrivial chi
    t = t25
    q = t.p**2
    psi = AddChar(2)
    for j in (1, 4, 9):
        chi = MulChar(q - 1, j)
        lhs = gauss_sum(t, chi, psi) * gauss_sum(t, chi.conj(), psi)
        rhs = chi.value(t, t.neg(t.one)) * CycNum.rational(q)
        assert lhs == rhs


def test_canonical_mul_char(t25):
    chi = canonical_mul_char(t25, 1)
    assert chi.k == t25.p - 1
    chi2 = canonical_mul_char(t25, 2)
    assert chi2.k == t25.p**2 - 1
