"""Exact cyclotomic arithmetic with rational coefficients."""

import cmath
import copy
import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toric_correlator import (
    CycNum,
    CycRing,
    PrimeIdealHandle,
    build_tower,
    cyclotomic_poly,
    factor_cyclotomic_mod_p,
)
from toric_correlator import gfpoly
from toric_correlator import cyclo
from toric_correlator.cyclo import _minimal_polynomial, _split_conductor, _subfield_piece
from toric_correlator.fields import ConsistencyError
import polyref


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]


_REFERENCE_PHI = {}


def reference_cyclotomic_poly(k):
    """Reference: X^k - 1 divided exactly by Phi_d for every proper d | k."""
    if k not in _REFERENCE_PHI:
        poly = [-1] + [0] * (k - 1) + [1]
        for d in range(1, k):
            if k % d == 0:
                b = reference_cyclotomic_poly(d)
                quo = [0] * (len(poly) - len(b) + 1)
                while len(poly) >= len(b):
                    shift = len(poly) - len(b)
                    c = poly[-1]  # b is monic
                    quo[shift] = c
                    for i, cb in enumerate(b):
                        poly[shift + i] -= c * cb
                    while poly and poly[-1] == 0:
                        poly.pop()
                assert not poly
                poly = quo
        _REFERENCE_PHI[k] = poly
    return _REFERENCE_PHI[k]


@pytest.mark.parametrize("ks", [range(1, 211), (624, 728, 960, 1680, 2400)])
def test_cyclotomic_poly_matches_reference(ks):
    for k in ks:
        assert cyclotomic_poly(k) == reference_cyclotomic_poly(k), k


def test_cyclotomic_poly_degree_is_totient():
    for k in range(1, 40):
        phi = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
        assert len(cyclotomic_poly(k)) - 1 == phi


def test_roots_of_unity_sum_to_zero():
    for k in (3, 5, 8, 12):
        total = sum((CycNum.zeta(k, e) for e in range(k)), CycNum.rational(0))
        assert total.is_zero()


def test_zeta_has_order_k():
    z = CycNum.zeta(12)
    acc = CycNum.rational(1)
    for i in range(1, 12):
        acc = acc * z
        assert acc != CycNum.rational(1)
    assert acc * z == CycNum.rational(1)


def test_equality_is_semantic_across_conductors():
    # stored conductors may differ; equality compares values
    assert CycNum.zeta(6) == -CycNum.zeta(3, 2)
    assert CycNum.zeta(8) * CycNum.zeta(8) == CycNum.zeta(4)


def test_from_counter_reduces_gcd():
    # counter supported on even exponents of conductor 8 lands in conductor 4
    z = CycNum.from_counter(8, {0: 1, 2: 3, 4: 1, 6: 3})
    assert z.k <= 4


def test_cross_conductor_equality():
    a = CycNum.zeta(3) + CycNum.zeta(3, 2)  # = -1
    assert a == CycNum.rational(-1)
    assert CycNum.zeta(4) * CycNum.zeta(4) == CycNum.rational(-1)
    assert CycNum.zeta(3) != CycNum.zeta(4)


small_rat = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cycnums(draw, k=12):
    coeffs = draw(st.lists(small_rat, min_size=1, max_size=4))
    z = CycNum.rational(0)
    for e, c in enumerate(coeffs):
        z = z + CycNum.rational(c) * CycNum.zeta(k, e)
    return z


@settings(max_examples=60, deadline=None)
@given(cycnums(), cycnums(), cycnums())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == CycNum.rational(0)


@settings(max_examples=40, deadline=None)
@given(cycnums())
def test_complex_embedding_consistent(a):
    za = a.to_complex()
    zb = (a * a).to_complex()
    assert cmath.isclose(za * za, zb, abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(cycnums())
def test_abs2_is_real_and_nonnegative(a):
    n = a.abs2()
    assert n == a * a.conj()
    assert n.conj() == n  # real (fixed by complex conjugation)
    z = n.to_complex()
    assert abs(z.imag) < 1e-9 and z.real > -1e-9
    assert a.conj().conj() == a


# (k, step): exponents are multiples of step, so the gcd-reduced
# conductor divides k // step; the cases reach reduced conductors 1, 2 and
# larger ones
FROM_COUNTER_CASES = [(12, 12), (10, 5), (12, 6), (12, 4), (30, 1), (24, 3), (7, 1)]


@pytest.mark.parametrize("k, step", FROM_COUNTER_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_from_counter_int_matches_fraction(k, step, data):
    # exponents may be negative or >= k; a cancelling pair e, e + k is
    # added on top, so entries that vanish after folding mod k occur too
    counter = data.draw(
        st.dictionaries(
            st.integers(-3 * k, 3 * k).map(lambda e: e * step),
            st.integers(-5, 5),
            max_size=8,
        )
    )
    e = data.draw(st.integers(-k, k)) * step
    c = data.draw(st.integers(1, 4))
    counter[e] = counter.get(e, 0) + c
    counter[e + k] = counter.get(e + k, 0) - c
    z = CycNum.from_counter(k, counter)
    zf = CycNum.from_counter(k, {e: Fraction(c) for e, c in counter.items()})
    assert z == zf
    assert (k // step) % z.k == 0
    assert all(type(c) is Fraction for c in z.coeffs)
    assert z.to_json_dict()["coeffs"] == zf.to_json_dict()["coeffs"]
    want = sum(c * cmath.exp(2j * cmath.pi * e / k) for e, c in counter.items())
    assert cmath.isclose(z.to_complex(), want, abs_tol=1e-9)


def _row_reduce(ring, vec):
    """Reference reduction: every entry at or above deg by its row X^e.

    The rows X^e mod Phi_k are built here, one shift of the previous row
    at a time, starting from X^deg = -(Phi_k - X^deg).
    """
    deg, phi = ring.deg, cyclotomic_poly(ring.k)
    out = [Fraction(c) for c in vec[:deg]]
    out += [Fraction(0)] * (deg - len(out))
    row = [-c for c in phi[:deg]]
    for e in range(deg, len(vec)):
        if e > deg:
            top = row[-1]
            row = [0] + row[:-1]
            for i in range(deg):
                row[i] -= top * phi[i]
        for i, r in enumerate(row):
            out[i] += vec[e] * r
    return tuple(out)


def test_ring_at_large_conductor_builds_fast():
    # a ring holds only the nonzero low terms of Phi_k, so it is cheap to
    # build even at k = 193^2 - 1, where phi(k) = 12288
    k = 193**2 - 1
    start = time.perf_counter()
    ring = CycRing.get(k)
    assert time.perf_counter() - start < 1.0
    z = CycNum.from_counter(k, {ring.deg: 1, 1: 2})
    want = cmath.exp(2j * cmath.pi * ring.deg / k) + 2 * cmath.exp(2j * cmath.pi / k)
    assert cmath.isclose(z.to_complex(), want, abs_tol=1e-9)


def test_wide_support_reduces_fast_at_large_conductor():
    # support every 5th exponent up to k/2: entries from phi(k) = 12288 up
    # to k/2 each cost one pass over the 128 nonzero low terms of Phi_k,
    # where a table of rows X^e would hold about 6,300 rows of length 12288
    k = 193**2 - 1
    counter = {e: e % 7 - 3 for e in range(0, k // 2, 5)}
    CycRing.get(k)
    start = time.perf_counter()
    z = CycNum.from_counter(k, counter)
    assert time.perf_counter() - start < 1.0
    assert z.k == k
    zf = CycNum.from_counter(k, {e: Fraction(c) for e, c in counter.items()})
    assert z.coeffs == zf.coeffs
    want = sum(c * cmath.exp(2j * cmath.pi * e / k) for e, c in counter.items())
    assert cmath.isclose(z.to_complex(), want, abs_tol=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 12, 16, 30, 49, 97, 105, 192, 194])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduce_vector_matches_row_reduction(k, data):
    # reduce_vector folds mod 1 + X^m + ... + X^((p-1)m), then divides by Phi_k
    ring = CycRing.get(k)
    vec = data.draw(st.lists(st.integers(-10**20, 10**20), max_size=k))
    got = ring.reduce_vector(vec)
    assert got == _row_reduce(ring, vec)
    assert all(type(c) is int for c in got)  # int in, int out


def test_division_is_by_rationals_only():
    z = CycNum.zeta(5) + CycNum.rational(2)
    with pytest.raises(ValueError):
        CycNum.zeta(5) / CycNum.zeta(5)
    # a rational that was never folded to conductor 1 still divides
    three = CycNum(5, (3, 0, 0, 0))
    assert (z / three) * 3 == z
    with pytest.raises(ZeroDivisionError):
        z / 0
    with pytest.raises(ZeroDivisionError):
        z / CycNum(5, (0,) * 4)


# -- reference: the Fraction-coordinate arithmetic ---------------------------
#
# A value is (k, coeffs) with one Fraction per coordinate mod Phi_k, reduced
# by _row_reduce. CycNum's integer numerators over one denominator must give
# the same conductor and the same coordinates, since both enter the JSON
# digests.


def ref_make(k, coeffs):
    coeffs = tuple(coeffs)
    if k > 1 and not any(coeffs[1:]):
        return 1, coeffs[:1]
    return k, coeffs


def ref_from_counter(k, counter):
    clean = {}
    for e, c in counter.items():
        clean[e % k] = clean.get(e % k, 0) + Fraction(c)
    clean = {e: c for e, c in clean.items() if c}
    if not clean:
        return 1, (Fraction(0),)
    g = math.gcd(k, *clean)
    k2 = k // g
    if k2 == 1:
        return 1, (sum(clean.values()),)
    if k2 == 2:
        return 1, (sum(c if (e // g) % 2 == 0 else -c for e, c in clean.items()),)
    vec = [0] * k2
    for e, c in clean.items():
        vec[e // g] += c
    return ref_make(k2, _row_reduce(CycRing.get(k2), vec))


def ref_embed(kk, a):
    k, coeffs = a
    vec = [Fraction(0)] * kk
    for i, c in enumerate(coeffs):
        vec[i * (kk // k)] += c
    return _row_reduce(CycRing.get(kk), vec)


def ref_pair(a, b):
    kk = math.lcm(a[0], b[0])
    va = a[1] if a[0] == kk else ref_embed(kk, a)
    vb = b[1] if b[0] == kk else ref_embed(kk, b)
    return kk, va, vb


def ref_add(a, b):
    kk, va, vb = ref_pair(a, b)
    return ref_make(kk, [x + y for x, y in zip(va, vb)])


def ref_neg(a):
    return a[0], tuple(-c for c in a[1])


def ref_mul(a, b):
    if a[0] == 1 or b[0] == 1:
        (k, coeffs), c = (a, b[1][0]) if b[0] == 1 else (b, a[1][0])
        return ref_make(k, [x * c for x in coeffs])
    kk, va, vb = ref_pair(a, b)
    vec = [Fraction(0)] * kk
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            vec[(i + j) % kk] += x * y
    return ref_make(kk, _row_reduce(CycRing.get(kk), vec))


def ref_conj(a):
    k, coeffs = a
    return a if k == 1 else ref_from_counter(k, {-i: c for i, c in enumerate(coeffs) if c})


def ref_eq(a, b):
    _, va, vb = ref_pair(a, b)
    return va == vb


def ref_as_rational(a):
    return a[1][0] if not any(a[1][1:]) else None


def state(z):
    """(conductor, Fraction coordinates) of a CycNum, checking its invariants."""
    assert z.den > 0 and math.gcd(z.den, *z.nums) == 1
    assert all(type(c) is int for c in z.nums)
    return z.k, z.coeffs


MIXED_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24]


@st.composite
def counters(draw):
    k = draw(st.sampled_from(MIXED_CONDUCTORS))
    value = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=12))
    return k, draw(st.dictionaries(st.integers(-2 * k, 2 * k), value, max_size=5))


@settings(max_examples=150, deadline=None)
@given(counters(), counters(), st.fractions(-5, 5, max_denominator=9))
# values that reduce to conductor 2 (zeta_2 = -1 needs no ring), from
# conductor 2 itself and from odd multiples k/2 of the support gcd
@example((2, {1: 3, 0: 1}), (2, {3: Fraction(1, 2)}), Fraction(2, 3))
@example((6, {3: Fraction(-5, 4), 9: 2, 0: 1}), (10, {5: 1}), Fraction(-1, 2))
@example((4, {2: Fraction(1, 3), -2: 1}), (12, {6: 4, 0: Fraction(1, 6)}), Fraction(0))
def test_integer_cycnum_matches_fraction_reference(ca, cb, r):
    a, b = CycNum.from_counter(*ca), CycNum.from_counter(*cb)
    ra, rb = ref_from_counter(*ca), ref_from_counter(*cb)
    assert state(a) == ra and state(b) == rb
    assert state(a + b) == ref_add(ra, rb)
    assert state(a - b) == ref_add(ra, ref_neg(rb))
    assert state(a * b) == ref_mul(ra, rb)
    assert state(a.conj()) == ref_conj(ra)
    assert (a == b) is ref_eq(ra, rb)
    assert a.as_rational() == ref_as_rational(ra)
    kk = math.lcm(a.k, b.k)
    assert tuple(Fraction(c, a.den) for c in CycRing.get(kk).embed(a.k, a.nums)) == ref_embed(kk, ra)
    if r:
        assert state(a / r) == ref_mul(ra, (1, (1 / r,)))
        assert state(a * r) == ref_mul(ra, (1, (r,)))
    d = a.to_json_dict()
    assert d["conductor"] == ra[0]
    assert d["coeffs"] == [[c.numerator, c.denominator] for c in ra[1]]


def test_normal_form_is_kept():
    # the constructor divides out gcd(den, *nums) and makes den positive
    z = CycNum(5, (2, 4, 0, 6), -6)
    assert (z.nums, z.den) == ((-1, -2, 0, -3), 3)
    assert CycNum(5, (0, 0, 0, 0), 7).den == 1
    with pytest.raises(ZeroDivisionError):
        CycNum(5, (1, 0, 0, 0), 0)
    # a product that cancels the denominator leaves den = 1, not (2, 2)
    half = CycNum.zeta(5) / 2
    assert half.den == 2
    twice = half * 2
    assert (twice.nums, twice.den) == (CycNum.zeta(5).nums, 1)
    assert (half + half).den == 1
    assert (half - half).den == 1 and (half - half).is_zero()
    # and a sum whose coordinates share a factor with the denominator
    third = CycNum.rational(Fraction(1, 3))
    assert (third * 3).den == 1
    assert (CycNum.zeta(3) / 6 + CycNum.zeta(3) / 6).den == 3


def test_equality_across_conductors_with_denominators():
    # embedding keeps the normal form, so equal values share den
    assert CycNum.zeta(8, 2) / 3 == CycNum.zeta(4) / 3
    assert CycNum.zeta(8, 2) / 3 != CycNum.zeta(4) / 6
    assert (CycNum.zeta(6) + 1) / 2 == (1 - CycNum.zeta(3, 2)) / 2
    assert CycNum(5, (3, 0, 0, 0), 4) == Fraction(3, 4)
    assert CycNum(5, (3, 0, 0, 0), 4) != Fraction(3, 2)
    root2 = CycNum.zeta(8) + CycNum.zeta(8, 7)
    assert (root2 / 4) * (root2 / 4) == CycNum.rational(Fraction(1, 8))


def test_cycnum_is_immutable_and_copies():
    z = CycNum.zeta(8) / 3
    with pytest.raises(AttributeError):
        z.den = 1
    assert copy.deepcopy(z) == z
    w = pickle.loads(pickle.dumps(z))
    assert (w.k, w.nums, w.den) == (z.k, z.nums, z.den)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        CycNum.rational(0.1)
    with pytest.raises(TypeError):
        CycNum.zeta(5) + 0.1
    assert CycNum.rational(Fraction(1, 10)).as_rational() == Fraction(1, 10)
    assert CycNum.rational(True).as_rational() == 1


def test_as_rational():
    assert CycNum.rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)
    assert CycNum.zeta(5).as_rational() is None
    # zeta_5 + ... + zeta_5^4 = -1 is rational despite conductor 5
    total = sum((CycNum.zeta(5, e) for e in range(1, 5)), CycNum.rational(0))
    assert total.as_rational() == -1


def test_json_dict_shape():
    d = (CycNum.zeta(8) / 2).to_json_dict()
    assert d["conductor"] == 8
    assert all(len(pair) == 2 for pair in d["coeffs"])
    assert abs(d["approx"]["re"] - math.cos(math.pi / 4) / 2) < 1e-12


def reference_to_complex(z):
    """cos and sin evaluated for every nonzero coordinate, summed in order."""
    total = 0j
    for i, c in enumerate(z.nums):
        if c:
            ang = 2.0 * math.pi * i / z.k
            total += (c / z.den) * complex(math.cos(ang), math.sin(ang))
    return total


def test_to_complex_matches_per_coordinate_loop_exactly():
    from toric_correlator import PGL2, correlate_all

    values = [CycNum.rational(0), CycNum.rational(Fraction(-7, 3)), CycNum.zeta(8) / 2]
    values += [(CycNum.zeta(k, 1) + CycNum.zeta(k, 3) * 5) / 7 for k in (5, 12, 15, 48, 120)]
    for p, f in [(13, 1), (3, 3), (7, 2)]:
        values += [rec.value for rec in correlate_all(PGL2(p, f))]
    for z in values:
        # exact float equality, twice: once filling the root cache, once from it
        want = reference_to_complex(z)
        assert z.to_complex() == want
        assert z.to_complex() == want
        assert z.to_json_dict()["approx"] == {"re": want.real, "im": want.imag}


def test_factor_cyclotomic_mod_p_structure():
    for k, p in ((8, 7), (12, 7), (48, 7), (24, 5)):
        factors = factor_cyclotomic_mod_p(k, p)
        # common degree = multiplicative order of p mod k
        d = 1
        while pow(p, d, k) != 1:
            d += 1
        phi = len(cyclotomic_poly(k)) - 1
        assert len(factors) == phi // d
        prod = [1]
        for f in factors:
            assert gfpoly.degree(f) == d
            assert polyref.is_irreducible(f, p)
            prod = gfpoly.mul(prod, f, p)
        assert prod == [c % p for c in cyclotomic_poly(k)]
        # deterministic across calls
        assert factors == factor_cyclotomic_mod_p(k, p)


def units_of_order(r, p):
    """Reference: the u in F_p^* of multiplicative order exactly r."""
    out = []
    for u in range(1, p):
        o, x = 1, u
        while x != 1:
            o, x = o + 1, x * u % p
        if o == r:
            out.append(u)
    return out


def totient(n):
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def residue_degree(k, p):
    d = 1
    while pow(p, d, k) != 1 % k:
        d += 1
    return d


def best_split(k, p):
    """Reference: (most pieces, least j giving them) over the j | d, j < d,
    d = ord_k(p), or j = 1 when d = 1; j splits Phi_k mod p into
    phi(r)/ord_r(p) pieces, r = gcd(k, p^j - 1)."""
    d = residue_degree(k, p)
    counts = []
    for j in range(1, max(d, 2)):
        if d % j == 0:
            r = math.gcd(k, p**j - 1)
            counts.append((totient(r) // residue_degree(r, p), -j))
    most, neg_j = max(counts)
    return most, -neg_j


def subfield_pieces(f, s, subfactors, p):
    """Reference: gcd(f, m(X^s)) for every m in subfactors; ConsistencyError
    unless the pieces' degrees sum to deg f, the check that the m(X^s)
    split f completely."""
    pieces = [_subfield_piece(f, s, m, p) for m in subfactors]
    if sum(map(gfpoly.degree, pieces)) != gfpoly.degree(f):
        raise ConsistencyError(f"the pieces gcd(f, m(X^{s})) do not split f")
    return pieces


def factor_by_pieces(k, p):
    """Reference: Phi_k mod p split into all its pieces gcd(Phi_k, m(X^(k/r))),
    one per irreducible factor m of Phi_r mod p, r = _split_conductor(k, p),
    and each piece factored by Cantor-Zassenhaus. The factors of Phi_r come
    from this reference too, or are X - u for the u of order r when r | p - 1."""
    d = residue_degree(k, p)
    r = _split_conductor(k, p)
    if (p - 1) % r:
        subfactors = factor_by_pieces(r, p)
    else:
        subfactors = [[-u % p, 1] for u in units_of_order(r, p)]
    phi = [c % p for c in cyclotomic_poly(k)]
    factors = []
    for piece in subfield_pieces(phi, k // r, subfactors, p):
        factors += gfpoly.equal_degree_factor(piece, d, p)
    return sorted(factors)


def check_against_references(k, p):
    phi = [c % p for c in cyclotomic_poly(k)]
    d = residue_degree(k, p)
    plain = gfpoly.equal_degree_factor(phi, d, p, seed=3)
    assert factor_cyclotomic_mod_p(k, p) == factor_by_pieces(k, p) == plain
    most, j = best_split(k, p)
    r = _split_conductor(k, p)
    assert r == math.gcd(k, p**j - 1)
    subfactors = factor_cyclotomic_mod_p(r, p)
    if j == 1:
        assert subfactors == sorted([-u % p, 1] for u in units_of_order(r, p))
    pieces = subfield_pieces(phi, k // r, subfactors, p)
    e = residue_degree(r, p)
    assert len(pieces) == most == totient(r) // e
    assert all(gfpoly.degree(g) == totient(k) * e // totient(r) for g in pieces)


@pytest.mark.parametrize("p, f", [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                         + [(3, 2), (5, 2), (3, 3)])
def test_factorization_by_pieces_matches_plain_edf(p, f):
    # every conductor k | q^2 - 1, q <= 31: k | p - 1 gives linear pieces,
    # and Phi_624 mod 5 and Phi_728 mod 3 split through F_25 and F_27. The
    # factors transported from one factor equal those of the all-pieces
    # reference and of Cantor-Zassenhaus on the whole of Phi_k
    q = p**f
    for k in (k for k in range(1, q * q) if (q * q - 1) % k == 0):
        check_against_references(k, p)


@pytest.mark.parametrize("k, p", [(288, 17), (342, 7), (360, 19)])
def test_factorization_matches_the_references_at_q_minus_1(k, p):
    # the principal-series conductors q - 1 of q = 289, 343 and 361
    check_against_references(k, p)


def test_binomial_pieces_reject_a_wrong_unit():
    # Phi_24 mod 7: r = 6, and the units of order 6 are 3 and 5
    p, k = 7, 24
    phi = [c % p for c in cyclotomic_poly(k)]
    assert units_of_order(6, p) == [3, 5]
    assert _split_conductor(k, p) == 6

    def linear(units):
        return [[-u % p, 1] for u in units]

    assert sum(gfpoly.degree(g) for g in subfield_pieces(phi, 4, linear([3, 5]), p)) == 8
    # a unit of order 3 gives the piece 1
    assert _subfield_piece(phi, 4, linear([2])[0], p) == [1]
    for wrong in ([3, 2], [3], [3, 5, 5]):
        with pytest.raises(ConsistencyError, match="do not split"):
            subfield_pieces(phi, 4, linear(wrong), p)


def test_subfield_pieces_reject_a_wrong_factor():
    # Phi_728 mod 3 splits through F_27: r = 26, and the four cubic factors
    # of Phi_26 mod 3 give four pieces of degree 72
    p, k = 3, 728
    phi = [c % p for c in cyclotomic_poly(k)]
    assert _split_conductor(k, p) == 26
    cubics = factor_cyclotomic_mod_p(26, p)
    assert [gfpoly.degree(g) for g in subfield_pieces(phi, 28, cubics, p)] == [72] * 4
    # a cubic factor of Phi_13 has roots of order 13, so X^28 = w gives no
    # root of order 728 and its piece is 1
    (other, *_) = factor_cyclotomic_mod_p(13, p)
    assert gfpoly.degree(other) == 3 and other not in cubics
    assert _subfield_piece(phi, 28, other, p) == [1]
    for wrong in (cubics[1:], cubics + cubics[:1], [other] + cubics[1:]):
        with pytest.raises(ConsistencyError, match="do not split"):
            subfield_pieces(phi, 28, wrong, p)


def _drop(fs):
    return fs[1:]


def _duplicate(fs):
    return fs[:1] + fs[:-1]


def _wrong_degree(fs):
    return [gfpoly.mul(fs[0], [1, 1], 7)] + fs[1:]


@pytest.mark.parametrize("alter", [_drop, _duplicate, _wrong_degree])
def test_transported_factors_are_checked(monkeypatch, alter):
    # Phi_48 mod 7 has eight quadratic factors; a transported list with one
    # dropped, one twice or one of degree 3 is caught before it is cached
    real = cyclo._conjugate_factors
    monkeypatch.setattr(cyclo, "_FACTOR_CACHE", {})
    monkeypatch.setattr(cyclo, "_conjugate_factors", lambda *a: alter(real(*a)))
    with pytest.raises(ConsistencyError, match="not 8 distinct polynomials of degree 2"):
        factor_cyclotomic_mod_p(48, 7)
    assert cyclo._FACTOR_CACHE == {}


def test_minimal_polynomial_finds_a_lower_degree():
    # in F_49 = F_7[X]/(X^2 + 1): y = X has minimal polynomial X^2 + 1, and
    # y = 3 from the prime field has X - 3, a degree the transport check rejects
    p = 7
    assert _minimal_polynomial([[1, 0], [0, 1], [p - 1, 0]], p) == [1, 0, 1]
    assert _minimal_polynomial([[1, 0], [3, 0], [2, 0]], p) == [4, 1]
    # y = 2 + 3X: y^2 = 4 + 12X + 9X^2 = -5 + 12X = 2 + 5X, and
    # y^2 - 4y + 13 = 0, so X^2 - 4X + 13 = X^2 + 3X + 6
    assert _minimal_polynomial([[1, 0], [2, 3], [2, 5]], p) == [6, 3, 1]


@pytest.mark.parametrize("k, p, message", [
    (5, 9, "odd prime"), (5, -3, "odd prime"), (5, 2, "odd prime"), (5, 1, "odd prime"),
    (0, 3, "k must be positive"), (-4, 5, "k must be positive"), (6, 3, "must not divide"),
])
def test_factor_cyclotomic_mod_p_rejects_bad_input(k, p, message):
    with pytest.raises(ValueError, match=message):
        factor_cyclotomic_mod_p(k, p)
    assert (k, p) not in cyclo._FACTOR_CACHE


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_cyclotomic_mod_p_of_phi_1(p):
    # Phi_1 = X - 1 is its own factor; the order of p mod 1 is 1
    assert factor_cyclotomic_mod_p(1, p) == [[p - 1, 1]]


def _handle_8_over_7(a=1):
    # F_49 holds the 8th roots of unity, so primes of Q(zeta_8) above 7 live there
    return PrimeIdealHandle(build_tower(7, 2), 8, a)


def test_prime_ideal_reduction_is_homomorphism():
    h = _handle_8_over_7()
    t = h.tower
    assert h.factor in factor_cyclotomic_mod_p(8, 7)
    assert t.eval_poly(h.factor, h.root) is None
    a = CycNum.zeta(8) + CycNum.rational(3)
    b = CycNum.zeta(8, 3) * CycNum.rational(Fraction(1, 2))
    ra, rb = h.reduce(a), h.reduce(b)
    assert h.reduce(a + b) == t.add(ra, rb)
    assert h.reduce(a * b) == t.mul(ra, rb)
    assert h.reduce(CycNum.zeta(8)) == h.root
    assert h.reduce(CycNum.zeta(4)) == t.power(h.root, 2)


def reduce_to_int(h, z):
    """Reduction at the prime of h when the image lies in the prime field."""
    return h.tower.to_prime(h.reduce(z))


def test_prime_ideal_reduce_to_int():
    # rational values reduce to their residue mod p
    h = _handle_8_over_7()
    assert reduce_to_int(h, CycNum.rational(Fraction(1, 2))) == pow(2, 7 - 2, 7) % 7
    assert reduce_to_int(h, CycNum.rational(10)) == 3
    with pytest.raises(ValueError):
        reduce_to_int(h, CycNum.zeta(8))  # residue degree 2


def test_prime_ideal_rejects_bad_denominator():
    h = _handle_8_over_7()
    with pytest.raises(ValueError):
        h.reduce(CycNum.rational(Fraction(1, 7)))
    with pytest.raises(ValueError):
        h.reduce(CycNum.zeta(8) + Fraction(1, 7))  # one coordinate is enough
    # a denominator prime to p is inverted once for all coordinates
    t = h.tower
    z = (CycNum.zeta(8) + CycNum.zeta(8, 2)) / 3
    assert h.reduce(z * 3) == t.add(h.root, t.power(h.root, 2))
    assert h.reduce(z) == t.mul(t.from_prime(pow(3, 5, 7)), h.reduce(z * 3))
    with pytest.raises(ValueError):
        h.reduce(CycNum.zeta(5))  # conductor 5 does not divide 8


def test_prime_ideal_rejects_bad_root():
    with pytest.raises(ValueError):
        PrimeIdealHandle(build_tower(7, 2), 5, 1)  # 5 does not divide 48
    with pytest.raises(ValueError):
        _handle_8_over_7(a=2)  # zeta_8^2 is not a primitive 8th root


def test_conductor_beyond_the_cap_is_rejected():
    # 200,003 is prime, so the exponent support {1} keeps the conductor
    with pytest.raises(ValueError, match="exceeds cap"):
        CycNum.from_counter(200_003, {1: 1})
