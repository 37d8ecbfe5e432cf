"""Polynomial arithmetic over prime fields."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_correlator import gfpoly
import polyref


def naive_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return gfpoly.trim(out)


def test_mul_matches_naive():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(40):
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            assert gfpoly.mul(a, b, p) == naive_mul(a, b, p)


def rand_poly(rng, p, max_len):
    # normalized representation: no trailing zeros
    return gfpoly.trim([rng.randrange(p) for _ in range(rng.randrange(1, max_len))])


def test_divmod_reconstructs():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((3, 5, 7, 11))
        a = rand_poly(rng, p, 8)
        b = rand_poly(rng, p, 5)
        if not b:
            continue
        q, r = gfpoly.divmod_poly(a, b, p)
        back = polyref.add(gfpoly.mul(q, b, p), r, p)
        assert back == a
        assert gfpoly.degree(r) < gfpoly.degree(b)


def test_irreducibility_by_counting_roots():
    # degree-2 polynomials over F_5: irreducible iff no root
    p = 5
    for c0 in range(p):
        for c1 in range(p):
            f = [c0, c1, 1]
            has_root = any(polyref.eval_poly(f, x, p) == 0 for x in range(p))
            assert polyref.is_irreducible(f, p) == (not has_root)


def test_first_primitive_modulus_is_primitive():
    # the pruned scan skips the irreducibility test and every constant term
    # whose signed value is not a primitive root; the full scan in the same
    # order, testing every monic polynomial, must land on the same modulus
    for p, m in ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (5, 3), (3, 4)):
        f = gfpoly.first_primitive_modulus(p, m)
        assert gfpoly.degree(f) == m
        assert polyref.is_irreducible(f, p)
        # x generates the unit group: x^n = 1 and x^(n/ell) != 1
        n = p**m - 1
        x = [0, 1]
        assert gfpoly.powmod(x, n, f, p) == [1]
        for ell in gfpoly.factorint(n):
            assert gfpoly.powmod(x, n // ell, f, p) != [1]
        full = next(
            list(tail) + [1]
            for tail in itertools.product(range(p), repeat=m)
            if tail[0]
            and polyref.is_irreducible(list(tail) + [1], p)
            and gfpoly.element_order_check(x, list(tail) + [1], p, n)
        )
        assert f == full


def test_equal_degree_factor_splits_cyclotomic():
    # x^4 + 1 factors into quadratics mod 3 and 7, linears mod 17
    f = [1, 0, 0, 0, 1]
    for p, d in ((3, 2), (7, 2), (17, 1)):
        parts = gfpoly.equal_degree_factor(f, d, p)
        assert len(parts) == 4 // d
        prod = [1]
        for part in parts:
            assert gfpoly.degree(part) == d
            assert polyref.is_irreducible(part, p)
            prod = gfpoly.mul(prod, part, p)
        assert prod == gfpoly.monic(f, p)


@pytest.mark.parametrize("f, d, p", [
    ([1, 0, 1], 3, 3),  # X^2 + 1: 3 does not divide the degree
    ([1, 0, 0, 0, 1], 1, 3),  # X^4 + 1 mod 3 is two quadratics, not linears
    ([0, 2, 1], 2, 3),  # X(X - 1): linears, not quadratics
    ([0, 0, 1], 1, 3),  # X^2 is not squarefree
    ([1], 1, 3),  # a constant has no factor to split
    ([1, 0, 1], 0, 3),
    ([1, 1, 1], 2, 2),  # Cantor-Zassenhaus needs p odd
])
def test_equal_degree_factor_rejects_a_failed_precondition(f, d, p):
    # each of these once sent the splitting loop round forever
    with pytest.raises(ValueError):
        gfpoly.equal_degree_factor(f, d, p)


def schoolbook_powmod(a, e, m, p):
    """Reference: square and multiply with schoolbook products and long
    division, as powmod ran before packing."""
    result = [1]
    base = gfpoly.mod(a, m, p)
    while e:
        if e & 1:
            result = gfpoly.mod(naive_mul(result, base, p), m, p)
        base = gfpoly.mod(naive_mul(base, base, p), m, p)
        e >>= 1
    return result


PRIMES = (3, 5, 7, 17, 19, 29, 31)


def poly(p, max_degree, monic=False):
    """Polynomials with a length drawn uniformly up to max_degree + 1 (the
    zero polynomial too, unless monic), so draws land on both sides of
    PACKED_DEGREE."""
    coeffs = st.integers(0, max_degree).flatmap(
        lambda n: st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    )
    if monic:
        return coeffs.map(lambda c: c + [1])
    return coeffs.map(gfpoly.trim)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_mul_matches_schoolbook(data):
    # degrees 0-400 reach both sides of PACKED_DEGREE
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(poly(p, 400))
    b = data.draw(poly(p, 400))
    assert gfpoly.mul(a, b, p) == naive_mul(a, b, p)
    # a square packs its operand once
    assert gfpoly.mul(a, a, p) == gfpoly.mul(a, list(a), p)


def test_mul_packs_both_sides_of_the_cutoff():
    rng = random.Random(3)
    # mul packs from PACKED_DEGREE - 1 coefficients on
    cut = gfpoly.PACKED_DEGREE - 1
    for p in PRIMES:
        for n in (cut - 1, cut, cut + 1, 64, 400):
            a = [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(n + 3)] + [p - 1]
            assert gfpoly.mul(a, b, p) == naive_mul(a, b, p)
    # operands of all p - 1 give the largest lane sums for their length
    p = 31
    a = [p - 1] * 400
    assert gfpoly.mul(a, a, p) == naive_mul(a, a, p)
    # sums that cannot fit a 64-bit lane are refused, not wrapped
    big = 2**31 - 1
    with pytest.raises(ValueError, match="lane"):
        gfpoly.mul([big - 1] * 10, [big - 1] * 10, big)


def test_lane_convolve_matches_integer_convolution():
    # unreduced counts, as the pair classification convolves, on operands
    # of every length down to one entry
    rng = random.Random(5)
    for la, lb in ((1, 1), (1, 7), (9, 3), (40, 41), (360, 360)):
        a = [rng.randrange(400) for _ in range(la)]
        b = [rng.randrange(400) for _ in range(lb)]
        want = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] += x * y
        assert list(gfpoly.lane_convolve(a, b, 399)) == want
        assert list(gfpoly.lane_convolve(a, a, 399)) == list(gfpoly.lane_convolve(a, list(a), 399))
    with pytest.raises(ValueError, match="lane"):
        gfpoly.lane_convolve([1] * 4, [1] * 4, 2**31)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_barrett_remainder_matches_divmod(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(2, 400))
    m = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    m = m + [data.draw(st.integers(1, p - 1))]  # not necessarily monic
    reduce = gfpoly.barrett_reducer(m, p)
    a = data.draw(poly(p, 2 * n - 2))
    q, r = gfpoly.divmod_poly(a, m, p)
    assert reduce(a) == r
    assert polyref.add(naive_mul(q, m, p), r, p) == a


def test_barrett_reducer_rejects_low_degree():
    with pytest.raises(ValueError):
        gfpoly.barrett_reducer([1, 1], 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_powmod_matches_schoolbook(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(poly(p, 150, monic=True))
    a = data.draw(poly(p, 400))
    e = data.draw(st.integers(0, 300))
    assert gfpoly.powmod(a, e, m, p) == schoolbook_powmod(a, e, m, p)
