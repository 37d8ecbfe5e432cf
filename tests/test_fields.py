"""Field tower tables: representation roundtrips, Zech addition, subfields,
norms and traces. Nonzero elements are discrete logs of the tower generator;
None is zero."""

import itertools
import math

import pytest

from toric_correlator import PGL2, build_tower, gfpoly
from toric_correlator.fields import ConsistencyError, FieldTower
import polyref


def to_coeffs(t, a):
    """The coefficients over F_p of a tower element, from the coordinates
    of g^b kept by the tower."""
    if a is None:
        return [0] * t.m
    j, b = divmod(a, t._q + 1)
    return t._point(b, j)


def from_coeffs(t, coeffs):
    """The tower element with these coefficients over F_p. X^j = n^xs[j]
    + n^ys[j] g for j < m <= q + 1, so the coordinates of sum c_j X^j are
    the same F_p-combinations of theirs."""
    if t.pack(coeffs) == 0:
        return None

    def combine(logs):
        # log_n of sum c_j n^logs[j], where n^None is zero; None for 0
        acc = [0] * t.m
        for c, e in zip(coeffs, logs):
            if c and e is not None:
                acc = [u + c * w for u, w in zip(acc, t._fexp[e])]
        return t._flog.get(t.pack(acc))

    return t._join(combine(t._xs), combine(t._ys))


@pytest.fixture(scope="module", params=[(3, 2), (5, 2), (7, 2), (3, 4)])
def tower(request):
    p, m = request.param
    return build_tower(p, m)


def test_coeff_roundtrip(tower):
    t = tower
    step = max(1, t.order // 200)
    for a in range(0, t.order, step):
        coeffs = to_coeffs(t, a)
        assert len(coeffs) == t.m
        assert from_coeffs(t, coeffs) == a
    assert to_coeffs(t, None) == [0] * t.m
    assert from_coeffs(t, [0] * t.m) is None


def test_prime_field_roundtrip(tower):
    t = tower
    for c in range(t.p):
        assert t.to_prime(t.from_prime(c)) == c
    with pytest.raises(ValueError):
        t.to_prime(t.gen)  # generator of F_{p^m} is never in F_p for m > 1


def test_add_matches_coefficient_arithmetic(tower):
    t = tower
    p = t.p
    step = max(1, t.order // 40)
    for a in range(0, t.order, step):
        for b in range(0, t.order, step):
            want = [(x + y) % p for x, y in zip(to_coeffs(t, a), to_coeffs(t, b))]
            got = t.add(a, b)
            if got is None:
                assert all(c == 0 for c in want)
            else:
                assert to_coeffs(t, got) == want


def test_field_axioms_spot(tower):
    t = tower
    one, gen = t.one, t.gen
    assert t.mul(one, gen) == gen
    assert t.add(gen, t.neg(gen)) is None
    assert t.mul(gen, t.inv(gen)) == one
    a, b, c = 7 % t.order, 19 % t.order, 101 % t.order
    assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
    assert t.sub(a, b) == t.add(a, t.neg(b))


def test_frobenius_fixes_prime_field(tower):
    t = tower
    for c in range(1, t.p):
        a = t.from_prime(c)
        assert t.frobenius(a) == a
    b = t.gen
    for _ in range(t.m):
        b = t.frobenius(b)
    assert b == t.gen
    assert t.frobenius(t.gen, t.m - 1) != t.gen


def test_subfield_membership_count(tower):
    t = tower
    for d in range(1, t.m + 1):
        if t.m % d:
            continue
        members = sum(1 for a in range(t.order) if t.in_subfield(d, a))
        assert members == t.p**d - 1


def test_sub_dlog_exp_roundtrip(tower):
    t = tower
    d = t.m // 2
    for e in range(t.p**d - 1):
        assert t.sub_dlog(d, t.sub_exp(d, e)) == e


def test_subfield_trace_hits_every_prime_value(tower):
    t = tower
    d = t.m // 2
    values = {t.subfield_trace(d, t.sub_exp(d, e)) for e in range(t.p**d - 1)}
    values.add(t.subfield_trace(d, None))
    assert values == set(range(t.p))


def test_minpoly_annihilates(tower):
    t = tower
    for a in (0, 1, 2, t.order // 2, t.order - 1):
        mp = t.minpoly(a)
        assert mp[-1] == 1
        assert t.eval_poly(mp, a) is None
        orbit = {a}
        b = t.frobenius(a)
        while b not in orbit:
            orbit.add(b)
            b = t.frobenius(b)
        assert len(mp) - 1 == len(orbit)


def test_sqrt_and_is_square(tower):
    t = tower
    step = max(1, t.order // 100)
    squares = 0
    for a in range(0, t.order, step):
        if a % 2 == 0:  # g^a is a square exactly when a is even
            squares += 1
            r = t.sqrt(a)
            assert t.mul(r, r) == a
        else:
            with pytest.raises(ValueError):
                t.sqrt(a)
    assert squares > 0
    assert t.sqrt(None) is None


def _first_irreducible(p, m):
    for tail in itertools.product(range(p), repeat=m):
        if tail[0] == 0:
            continue
        f = list(tail) + [1]
        if polyref.is_irreducible(f, p):
            return f
    raise ValueError("no irreducible polynomial found")


def _minpoly_mod(c, f0, p, m):
    """The minimal polynomial over F_p of the class of c in F_p[X]/(f0),
    deg f0 = m, for c of degree m: the product of X - c^(p^i), i < m."""
    conjugates = [c]
    for _ in range(m - 1):
        conjugates.append(gfpoly.powmod(conjugates[-1], p, f0, p))
    coeffs = [[1]]
    for c in conjugates:
        nxt = [[] for _ in range(len(coeffs) + 1)]
        mc = gfpoly.scale(c, p - 1, p)
        for i, co in enumerate(coeffs):
            nxt[i + 1] = polyref.add(nxt[i + 1], co, p)
            nxt[i] = polyref.add(nxt[i], gfpoly.mod(gfpoly.mul(co, mc, p), f0, p), p)
        coeffs = nxt
    return [c[0] if c else 0 for c in coeffs]


def canonical_modulus(p, m):
    """Reference: the least minimal polynomial of a primitive element.

    F_{p^m} is presented by the first irreducible polynomial, and the
    minimum is taken over one primitive element per Frobenius orbit; this
    is the search towers used before the pruned scan. For even m the
    minimal polynomials are read from a scratch tower; towers have even
    degree, so for odd m they are products of conjugates in F_p[X]/(f0).
    """
    if m == 1:
        for c0 in range(1, p):
            if gfpoly.element_order_check([(-c0) % p], [c0, 1], p, p - 1):
                return [c0, 1]
        raise ValueError("no primitive root found")
    order = p**m - 1
    f0 = _first_irreducible(p, m)
    fac = gfpoly.factorint(order)
    gen = None
    for pk in range(p, p**m):
        cand = []
        t = pk
        while t:
            cand.append(t % p)
            t //= p
        if all(gfpoly.powmod(cand, order // r, f0, p) != [1] for r in fac):
            gen = cand
            break
    if m % 2:
        def minpoly(e):
            return _minpoly_mod(gfpoly.powmod(gen, e, f0, p), f0, p, m)
    else:
        minpoly = FieldTower(p, m, modulus=_minpoly_mod(gen, f0, p, m)).minpoly
    best = None
    for e in range(1, order):
        if math.gcd(e, order) != 1:
            continue
        t = e * p % order
        while t != e and t > e:
            t = t * p % order
        if t != e:
            continue  # not the least exponent of its Frobenius orbit
        mp = minpoly(e)
        if best is None or mp < best:
            best = mp
    return best


def test_canonical_modulus_deterministic():
    assert canonical_modulus(3, 2) == canonical_modulus(3, 2)
    assert canonical_modulus(7, 4) == canonical_modulus(7, 4)
    assert build_tower(7, 4).modulus == canonical_modulus(7, 4)


# (p, m) of every tower the tests and the benchmark workloads build: the
# tower of PGL2(F_{p^f}) has degree 2f, and the prime-field tests cover
# every odd prime up to 47. The modulus search also serves odd degrees.
_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 79]
_PRIMES += [127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193]
TOWER_DEGREES = sorted(
    {(p, 2) for p in _PRIMES}
    | {(3, 4), (5, 4), (7, 4), (11, 4), (13, 4), (17, 4), (19, 4)}
    | {(3, 6), (5, 6), (7, 6), (3, 8), (3, 10)}
)
MODULUS_DEGREES = sorted(TOWER_DEGREES + [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)])


@pytest.mark.parametrize("p, m", MODULUS_DEGREES)
def test_first_primitive_modulus_matches_reference(p, m):
    want = canonical_modulus(p, m)
    assert gfpoly.first_primitive_modulus(p, m) == want
    # the process-wide memo holds the same modulus, and a repeat call reads it
    assert gfpoly._MODULUS_CACHE[(p, m)] == tuple(want)
    assert gfpoly.first_primitive_modulus(p, m) == want


def _count_order_checks(monkeypatch):
    calls = []
    check = gfpoly.element_order_check

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(gfpoly, "element_order_check", counted)
    return calls


def test_a_second_group_over_a_field_makes_no_modulus_search(monkeypatch):
    gfpoly._MODULUS_CACHE.pop((7, 2), None)
    calls = _count_order_checks(monkeypatch)
    first = PGL2(7, 1)
    assert calls  # the scan ran
    calls.clear()
    second = PGL2(7, 1)
    assert calls == []
    assert second.tower.modulus == first.tower.modulus
    # towers and their Zech memos stay per group
    assert second.tower is not first.tower
    assert second.tower._zech is not first.tower._zech


def test_the_modulus_memo_hands_out_copies():
    f = gfpoly.first_primitive_modulus(5, 2)
    memo = gfpoly._MODULUS_CACHE[(5, 2)]
    f.append(7)
    f[0] = 0
    assert gfpoly._MODULUS_CACHE[(5, 2)] == memo
    assert gfpoly.first_primitive_modulus(5, 2) == list(memo)
    assert FieldTower(5, 2).modulus == list(memo)


def test_an_explicit_modulus_is_checked_after_the_memo_is_filled(monkeypatch):
    gfpoly.first_primitive_modulus(7, 2)
    assert (7, 2) in gfpoly._MODULUS_CACHE
    calls = _count_order_checks(monkeypatch)
    # x^2 + 1 is irreducible mod 7, but x has order 4, not 48
    with pytest.raises(ValueError, match="not primitive"):
        FieldTower(7, 2, modulus=[1, 0, 1])
    assert calls == [([0, 1], [1, 0, 1], 7, 48)]


def reference_tables(p, m, modulus):
    """Reference: the exp/dlog/Zech tables digit by digit, as towers built
    them before the packed walk; a repeated power means X is not primitive."""
    order = p**m - 1
    exp_table = [0] * order
    dlog = [None] * p**m
    cur = [1] + [0] * (m - 1)
    for e in range(order):
        pk = 0
        for c in reversed(cur):
            pk = pk * p + c
        if dlog[pk] is not None:
            raise ValueError("modulus is not primitive")
        exp_table[e] = pk
        dlog[pk] = e
        lead = cur[m - 1]
        nxt = [0] + cur[: m - 1]
        if lead:
            for i in range(m):
                nxt[i] = (nxt[i] - lead * modulus[i]) % p
        cur = nxt
    assert cur == [1] + [0] * (m - 1)
    zech = [None] * order
    for e in range(order):
        pk = exp_table[e]
        c0 = pk % p
        pk2 = pk - c0 + (c0 + 1) % p
        zech[e] = dlog[pk2] if pk2 else None
    return exp_table, dlog, zech


def _assert_reference_tables(t):
    exp_table, dlog, zech = reference_tables(t.p, t.m, t.modulus)
    # a tower derives each Zech log on first use; g^0 + g^e
    # reads zech(e), so this pass fills every memo entry but that of -1
    assert [t.add(0, e) for e in range(t.order)] == zech
    assert t._zech == zech
    assert [t.add(0, e) for e in range(t.order)] == zech
    for e, pk in enumerate(exp_table):
        coeffs = to_coeffs(t, e)
        assert t.pack(coeffs) == pk
        assert from_coeffs(t, coeffs) == e
    assert from_coeffs(t, to_coeffs(t, None)) is None


# characteristic 2 has log(-1) = 0 in every subfield; no group is built
# there, so these towers are checked here only
@pytest.mark.parametrize("p, m", TOWER_DEGREES + [(2, 2), (2, 4), (2, 6)])
def test_tables_match_reference(p, m):
    _assert_reference_tables(FieldTower(p, m))


def test_coordinate_cross_check_catches_a_wrong_log_of_minus_one():
    # in characteristic 2, -1 = 1 has log 0; taking it for (q - 1)/2, as in
    # odd characteristic, gives wrong coordinates for g^2 onwards
    class OddSign(FieldTower):
        def _build_tables(self):
            self.neg_one_exp = self.order // 2
            super()._build_tables()

    with pytest.raises(ConsistencyError, match="disagree"):
        OddSign(2, 4)


def test_pinned_tower_tables_match_reference():
    t = build_tower(7, 4, subfield_modulus=(2, [3, 6, 1]))
    assert t.modulus != gfpoly.first_primitive_modulus(7, 4)
    _assert_reference_tables(t)


def test_non_primitive_modulus_rejected():
    # x^2 + 1 is irreducible mod 7, but x has order 4, not 48
    assert polyref.is_irreducible([1, 0, 1], 7)
    with pytest.raises(ValueError, match="not primitive"):
        reference_tables(7, 2, [1, 0, 1])
    with pytest.raises(ValueError, match="not primitive"):
        FieldTower(7, 2, modulus=[1, 0, 1])
    # and in even degree above 2: x^4 + x^3 + x^2 + x + 1 is irreducible
    # mod 3, and x has order 5, not 80
    assert polyref.is_irreducible([1, 1, 1, 1, 1], 3)
    with pytest.raises(ValueError, match="not primitive"):
        FieldTower(3, 4, modulus=[1, 1, 1, 1, 1])


def test_reducible_modulus_rejected_by_the_order_check():
    # x^2 + 3x + 2 = (x + 1)(x + 2) mod 7: no unit of its ring has order 48
    assert not polyref.is_irreducible([2, 3, 1], 7)
    with pytest.raises(ValueError, match="not primitive"):
        FieldTower(7, 2, modulus=[2, 3, 1])


def test_odd_degree_tower_rejected():
    # PGL2(F_q) builds F_{q^2}; odd degrees fail before any table is built
    for p, m in ((3, 1), (7, 1), (3, 3), (5, 3)):
        with pytest.raises(ValueError, match="positive even degree"):
            FieldTower(p, m)
    with pytest.raises(ValueError, match="positive even degree"):
        FieldTower(7, 3, modulus=[5, 0, 0, 1])
    with pytest.raises(ValueError, match="positive even degree"):
        build_tower(3, 3)


def test_pinned_subfield_modulus():
    # the quadratic subfield generator's minimal polynomial is forced
    pin = [3, 6, 1]
    t = build_tower(7, 4, subfield_modulus=(2, pin))
    assert t.minpoly(t.subgen(2)) == pin
    assert t.eval_poly(pin, t.subgen(2)) is None
    # x^2 + 1 is irreducible mod 7 but its roots are not primitive
    with pytest.raises(ValueError):
        build_tower(7, 4, subfield_modulus=(2, [1, 0, 1]))
