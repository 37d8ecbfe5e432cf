"""Residues of the constants at primes above p and the digit-product
closed form."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_correlator import (
    PGL2,
    ConsistencyError,
    CycNum,
    CycRing,
    PrimeIdealHandle,
    cyclotomic_poly,
    factor_cyclotomic_mod_p,
    gfpoly,
    predicted_residue,
    rep_report,
    sweep,
)
from toric_correlator.modp import (
    base_digits,
    digit_parameter,
    distinguished_handle,
    fraction_mod_p,
    lucas_binom,
    prime_handles,
    relabeled_r,
    rep_conductor,
    root_relabel_map,
)
import polyref


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.sampled_from((3, 5, 7, 11, 13)),
)
def test_lucas_binom_matches_comb(n, k, p):
    assert lucas_binom(n, k, p) == math.comb(n, k) % p


def test_base_digits_roundtrip():
    for p in (3, 5, 7):
        for n in range(p**3):
            digits = base_digits(n, p, 3)
            assert len(digits) == 3
            assert sum(d * p**i for i, d in enumerate(digits)) == n


def test_fraction_mod_p():
    assert fraction_mod_p(Fraction(1, 2), 7) == 4
    assert fraction_mod_p(Fraction(10, 3), 7) == 10 * 5 % 7
    with pytest.raises(ValueError):
        fraction_mod_p(Fraction(1, 7), 7)


def test_prime_handle_count(g7):
    # number of primes above p with a given conductor k is phi(k)/ord_k(p)
    for k in (8, 12, 48):
        handles = prime_handles(g7, k)
        phi = sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
        d = 1
        while pow(7, d, k) != 1:
            d += 1
        assert len(handles) == phi // d
        for h in handles:
            assert h.residue_degree == d


def test_distinguished_handle_fixes_zeta(g7, g9):
    # the distinguished prime reduces zeta_k to the tower's own order-k
    # generator, and the Horner reference in F_p[X]/(factor) agrees
    for g in (g7, g9):
        t = g.tower
        for k in (8, g.q - 1, g.q**2 - 1):
            h = distinguished_handle(g, k)
            assert h.a == 1
            assert h.reduce(CycNum.zeta(k)) == t.order // k % t.order
            assert t.eval_poly(horner_reduce(h, CycNum.zeta(k)), h.root) == h.root


def horner_reduce(h, z):
    """Reference reduction: Horner evaluation in F_p[X]/(factor), where the
    class of X is the image of zeta_k; returns a coefficient list."""
    if h.k % z.k:
        raise ValueError("value lies outside the handle's cyclotomic field")
    p = h.p
    point = gfpoly.powmod([0, 1], h.k // z.k, h.factor, p)
    acc = []
    for c in reversed(z.coeffs):
        if c.denominator % p == 0:
            raise ValueError("value is not integral at this prime")
        cc = c.numerator * pow(c.denominator, p - 2, p) % p
        acc = gfpoly.mod(polyref.add(gfpoly.mul(acc, point, p), [cc], p), h.factor, p)
    return acc


# (p, f, chi_modulus, listed, distinguished): every conductor whose primes
# the tests list with prime_handles and reduce at, including the pinned F_49
# of the acceptance tests, and every conductor whose distinguished prime the
# diamond checks and test_distinguished_handle_fixes_zeta reduce at
HANDLE_CASES = [
    (5, 1, None, (4, 24), (4, 24)),
    (7, 1, None, (6, 8, 12, 48), (6, 8, 48)),
    (3, 2, None, (8, 80), (8, 80)),
    (11, 1, None, (10, 120), ()),
    (13, 1, None, (12, 168), ()),
    (5, 2, None, (24, 624), (24, 624)),
    (3, 3, None, (26, 728), ()),
    (7, 2, None, (48,), (48, 2400)),
    (7, 2, (3, 6, 1), (48,), ()),
    (7, 3, None, (342,), ()),
]


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_tower_reduction_matches_horner(p, f, pin, listed, distinguished):
    g = PGL2(p, f, chi_modulus=None if pin is None else list(pin))
    t = g.tower
    rng = random.Random(p * 100 + f)
    handles = [h for k in listed for h in prime_handles(g, k)]
    handles += [distinguished_handle(g, k) for k in distinguished]
    for h in handles:
        k = h.k
        # a rational, a sum over a subgroup of smaller conductor, and a
        # random element of the whole field
        values = [CycNum.rational(Fraction(3, 2))]
        for support in (range(0, k, math.gcd(k, 6)), range(k)):
            e = rng.sample(support, min(6, len(support)))
            counter = {x: Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 4))) for x in e}
            values.append(CycNum.from_counter(k, counter))
        for z in values:
            assert h.reduce(z) == t.eval_poly(horner_reduce(h, z), h.root)
        with pytest.raises(ValueError):
            h.reduce(CycNum.rational(Fraction(1, p)))


def has_exact_order(factor, k, p):
    """Reference: X^k = 1 and X^(k/r) != 1 for each prime r | k, in
    F_p[X]/(factor)."""
    x = [0, 1]
    if gfpoly.powmod(x, k, factor, p) != [1]:
        return False
    return all(gfpoly.powmod(x, k // r, factor, p) != [1] for r in gfpoly.factorint(k))


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_handle_roots_have_exact_order(p, f, pin, listed, distinguished):
    # the order the constructor's division by Phi_k implies
    g = PGL2(p, f, chi_modulus=None if pin is None else list(pin))
    handles = [h for k in listed for h in prime_handles(g, k)]
    handles += [distinguished_handle(g, k) for k in distinguished]
    for h in handles:
        assert has_exact_order(h.factor, h.k, p)


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_handle_rejects_a_factor_of_a_smaller_cyclotomic(
    monkeypatch, p, f, pin, listed, distinguished
):
    t = PGL2(p, f, chi_modulus=None if pin is None else list(pin)).tower
    for k in listed:
        for d in (d for d in range(1, k) if k % d == 0):
            wrong = factor_cyclotomic_mod_p(d, p)[0]
            assert not has_exact_order(wrong, k, p)
            monkeypatch.setattr(t, "minpoly", lambda _root, w=wrong: list(w))
            with pytest.raises(ConsistencyError):
                PrimeIdealHandle(t, k, 1)


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_handle_checks_a_passed_factor(p, f, pin, listed, distinguished):
    # prime_handles passes each root's minimal polynomial in; the handle
    # checks factor(root) = 0 and the degree instead of calling minpoly
    t = PGL2(p, f, chi_modulus=None if pin is None else list(pin)).tower
    for k in listed:
        assert CycRing.get(k, cap=None).phi_mod(p) == [c % p for c in cyclotomic_poly(k)]
        own = t.minpoly(t.order // k % t.order)
        assert PrimeIdealHandle(t, k, 1, list(own)).factor == own
        for other in factor_cyclotomic_mod_p(k, p):
            if other == own:
                continue
            with pytest.raises(ConsistencyError, match="not the minimal polynomial"):
                PrimeIdealHandle(t, k, 1, list(other))
            # divisible by the root's minimal polynomial, but of the wrong degree
            with pytest.raises(ConsistencyError, match="not the minimal polynomial"):
                PrimeIdealHandle(t, k, 1, gfpoly.mul(own, other, p))
        # a scaled, so non-monic, minimal polynomial
        with pytest.raises(ConsistencyError, match="not the minimal polynomial"):
            PrimeIdealHandle(t, k, 1, gfpoly.scale(own, 2, p))


def brute_relabel_map(g, conductor):
    """Reference: one minimal polynomial per unit, the least unit kept."""
    t = g.tower
    base = t.order // conductor
    out = {}
    for j in range(1, conductor):
        if math.gcd(j, conductor) == 1:
            out.setdefault(tuple(t.minpoly(base * j % t.order)), j)
    return out


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_relabel_map_matches_per_unit_brute_force(p, f, pin, listed, distinguished):
    # the orbit walk computes one minimal polynomial per Frobenius orbit
    g = PGL2(p, f, chi_modulus=None if pin is None else list(pin))
    for k in sorted({*listed, *distinguished}):
        got = root_relabel_map(g, k)
        assert got == brute_relabel_map(g, k)
        assert list(got.items()) == list(brute_relabel_map(g, k).items())


@pytest.mark.parametrize("p, f, pin, listed, distinguished", HANDLE_CASES)
def test_listed_factors_divide_phi(p, f, pin, listed, distinguished):
    # prime_handles builds its handles without dividing Phi_k by each
    # factor; the division, as the other constructions still run it, is
    # the reference
    g = PGL2(p, f, chi_modulus=None if pin is None else list(pin))
    for k in listed:
        phi = [c % p for c in cyclotomic_poly(k)]
        for h in prime_handles(g, k):
            assert gfpoly.mod(phi, h.factor, p) == []


def test_prime_handles_cross_check_factorization(monkeypatch):
    import toric_correlator.modp as modp

    real = modp.factor_cyclotomic_mod_p
    k = 48
    factors = real(k, 7)
    altered = [list(f) for f in factors]
    altered[0][0] = (altered[0][0] + 1) % 7
    built = []

    class CountingHandle(PrimeIdealHandle):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(modp, "PrimeIdealHandle", CountingHandle)
    for wrong in (factors[1:], altered, factors[::-1]):
        monkeypatch.setattr(modp, "factor_cyclotomic_mod_p", lambda *a, w=wrong: w)
        g = PGL2(7, 1)
        with pytest.raises(ConsistencyError):
            prime_handles(g, k)
        # the lists are compared before any handle is built or cached
        assert built == [] and g._handle_cache == {}
    monkeypatch.setattr(modp, "factor_cyclotomic_mod_p", real)
    assert [h.factor for h in prime_handles(PGL2(7, 1), k)] == factors
    assert len(built) == len(factors)


def test_prime_handles_memo_is_per_group():
    g = PGL2(7, 1)
    first = prime_handles(g, 48)
    want = [h.factor for h in first]
    first.pop()
    first.append(None)
    again = prime_handles(g, 48)
    assert [h.factor for h in again] == want
    # built once: every call hands out the same handles
    assert all(x is y for x, y in zip(again, prime_handles(g, 48)))
    other = prime_handles(PGL2(7, 1), 48)
    assert [h.factor for h in other] == want
    assert not any(x is y for x, y in zip(again, other))
    assert all(h.tower is g.tower for h in again)
    with pytest.raises(ValueError):
        relabeled_r(g, ("ps", 1), other[0])  # a prime of another group's tower


def test_rep_conductor(g7):
    assert rep_conductor(g7, ("triv",)) == 1
    assert rep_conductor(g7, ("steta",)) == 1
    assert rep_conductor(g7, ("ps", 1)) == g7.q - 1
    assert rep_conductor(g7, ("cusp", 1)) == g7.q**2 - 1


def test_predicted_residue_even_digit_case(g7):
    # d = 0: prediction is (-1)^((q-1)/2) * C(q-1, (q-1)/2) mod p
    want = (-1) ** 3 * math.comb(6, 3) % 7
    assert predicted_residue(g7, 0) == want % 7


def test_predicted_residue_odd_digit_vanishes(g7, g9):
    for g in (g7, g9):
        for d in range(g.q - 1):
            if any(x % 2 for x in base_digits(d, g.p, g.f)):
                assert predicted_residue(g, d) == 0


def test_rep_report_matches_everywhere(g5, g7):
    for g in (g5, g7):
        for rep in g.reps():
            if rep[0] in ("eta", "st"):
                continue
            rpt = rep_report(g, rep)
            assert rpt.all_match()
            assert rpt.vanishing_consistent
            assert len(rpt.entries) >= 1


def test_sweep_covers_multiplicity_one_reps(g9):
    reports = sweep(g9)
    kinds = {r.rep[0] for r in reports}
    assert kinds == {"triv", "steta", "ps", "cusp"}
    for r in reports:
        assert r.all_match()
        assert r.vanishing_consistent


# every odd q <= 31
SWEEP_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
                (23, 1), (5, 2), (3, 3), (29, 1), (31, 1)]


@pytest.mark.parametrize("p, f", SWEEP_FIELDS)
def test_sweep_entries_match_uncached(p, f):
    # rep_report keeps one (digits, predicted) per group and digit
    # parameter, and reduces a value once per image of its root of unity;
    # the uncached relabeling, digits, prediction and per-handle reduction
    # are the reference, and every entry owns its digits list
    g = PGL2(p, f)
    t = g.tower
    reports = sweep(g)
    digit_lists = []
    for rpt in reports:
        handles = [None] if rpt.conductor == 1 else prime_handles(g, rpt.conductor)
        assert len(handles) == len(rpt.entries)
        for h, e in zip(handles, rpt.entries):
            assert e.d == digit_parameter(g, rpt.rep, h)
            assert e.r_relabeled == (None if h is None else relabeled_r(g, rpt.rep, h))
            assert e.digits == base_digits(e.d, p, f)
            assert e.predicted == predicted_residue(g, e.d)
            if h is not None:
                red = h.reduce(rpt.value)
                assert e.actual == (t.to_prime(red) if t.in_subfield(1, red) else None)
            digit_lists.append(e.digits)
    assert len({id(x) for x in digit_lists}) == len(digit_lists)
    cached = {id(digits) for digits, _ in g._digit_cache.values()}
    assert not cached & {id(x) for x in digit_lists}
    assert set(g._digit_cache) == {e.d for rpt in reports for e in rpt.entries}


def test_report_json_shape(g5):
    d = rep_report(g5, ("cusp", 1)).to_json_dict()
    assert d["rep"] == ["cusp", 1]
    assert d["conductor"] == 24
    entry = d["entries"][0]
    assert {"factor", "d", "digits", "predicted", "actual", "match"} <= set(entry)


def test_sweep_relabels_each_conductor_once(monkeypatch):
    # prime_handles keeps its handles per conductor, so the relabel map,
    # which is not memoized, is walked once per conductor of a sweep
    import toric_correlator.modp as modp

    calls = []
    real = modp.root_relabel_map

    def counting(g, conductor):
        calls.append(conductor)
        return real(g, conductor)

    monkeypatch.setattr(modp, "root_relabel_map", counting)
    g = PGL2(5, 2)
    sweep(g)
    assert sorted(calls) == [g.q - 1, g.q**2 - 1]


def test_second_sweep_reuses_the_cyclotomic_factors(monkeypatch):
    # factor_cyclotomic_mod_p keeps each (k, p); a fresh group of the same
    # q cuts no cyclotomic polynomial into a piece again
    import toric_correlator.cyclo as cyclo

    first = [r.to_json_dict() for r in sweep(PGL2(5, 2))]
    calls = []
    real = cyclo._subfield_piece

    def counting(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(cyclo, "_subfield_piece", counting)
    assert [r.to_json_dict() for r in sweep(PGL2(5, 2))] == first
    assert calls == []
