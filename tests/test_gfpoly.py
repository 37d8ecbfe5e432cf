"""Polynomial arithmetic over prime fields."""

import itertools
import random

from toric_correlator import gfpoly


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
        back = gfpoly.add(gfpoly.mul(q, b, p), r, p)
        assert back == a
        assert gfpoly.degree(r) < gfpoly.degree(b)


def test_xgcd_bezout():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        a = rand_poly(rng, p, 6)
        b = rand_poly(rng, p, 6)
        if not a or not b:
            continue
        d, u, v = gfpoly.xgcd(a, b, p)
        lhs = gfpoly.add(gfpoly.mul(u, a, p), gfpoly.mul(v, b, p), p)
        assert lhs == d
        assert gfpoly.mod(a, d, p) == []
        assert gfpoly.mod(b, d, p) == []


def test_irreducibility_by_counting_roots():
    # degree-2 polynomials over F_5: irreducible iff no root
    p = 5
    for c0 in range(p):
        for c1 in range(p):
            f = [c0, c1, 1]
            has_root = any(gfpoly.eval_poly(f, x, p) == 0 for x in range(p))
            assert gfpoly.is_irreducible(f, p) == (not has_root)


def test_first_primitive_modulus_is_primitive():
    # the pruned scan skips the irreducibility test and every constant term
    # whose signed value is not a primitive root; the full scan in the same
    # order, testing every monic polynomial, must land on the same modulus
    for p, m in ((3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (5, 3), (3, 4)):
        f = gfpoly.first_primitive_modulus(p, m)
        assert gfpoly.degree(f) == m
        assert gfpoly.is_irreducible(f, p)
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
            and gfpoly.is_irreducible(list(tail) + [1], p)
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
            assert gfpoly.is_irreducible(part, p)
            prod = gfpoly.mul(prod, part, p)
        assert prod == gfpoly.monic(f, p)
