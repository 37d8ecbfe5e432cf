"""Twisted symmetric-power modules in defining characteristic: structure
constants, torus-fixed dimensions, constituent decompositions."""

import itertools
import random

import pytest

from toric_correlator import ConsistencyError, PGL2, diamond_check, jh_constituents
from toric_correlator import st_report, sympow
from toric_correlator.pgl2 import mat_mul
from toric_correlator.sympow import (
    Constituent,
    SymPowModule,
    closed_s,
    closed_t,
    rho_pure,
    vector_h,
    vector_k,
)
from test_pgl2 import ODD_Q_TO_49


def all_rvecs(g):
    return itertools.product(range(g.p), repeat=g.f)


def test_st_reports_prime_fields():
    for p in (3, 5, 7):
        g = PGL2(p, 1)
        for r in range(p):
            rpt = st_report(g, (r,))
            assert rpt.ok(), (p, r, rpt)


def test_st_reports_q9(g9):
    for rvec in all_rvecs(g9):
        assert st_report(g9, rvec).ok(), rvec


def test_closed_forms_none_iff_odd_digit(g9):
    for rvec in all_rvecs(g9):
        has_odd = any(r % 2 for r in rvec)
        assert (closed_s(g9, rvec) is None) == has_odd
        assert (closed_t(g9, rvec) is None) == has_odd


def test_xy_composite_annihilates_on_odd_digits():
    # independent check on the full module: with an odd digit, averaging
    # over K then over H kills every basis vector
    g = PGL2(3, 1)
    mod = SymPowModule(g, rho_pure((1,)))
    t = g.tower
    for avec in rho_pure((1,)).avecs():
        image = mod.x_average(mod.y_average({avec: t.one}))
        assert all(v is None for v in image.values()) or not image


def test_xy_composite_scales_on_even_digits():
    g = PGL2(5, 1)
    t = g.tower
    rvec = (2,)
    mod = SymPowModule(g, rho_pure(rvec))
    vh = vector_h(g, rvec)
    image = mod.x_average(mod.y_average(vh))
    want_scale = t.mul(closed_s(g, rvec), closed_t(g, rvec))
    want = {k: t.mul(v, want_scale) for k, v in vh.items()}
    got = {k: v for k, v in image.items() if v is not None}
    assert got == want


def test_module_apply_is_an_action(g9):
    g = g9
    rng = random.Random(23)
    mod = SymPowModule(g, rho_pure((2, 1)))
    entries = [None] + [g.sub_exp(e) for e in range(g.q - 1)]
    from toric_correlator.pgl2 import mat_det

    def rand_mat():
        while True:
            m = tuple(rng.choice(entries) for _ in range(4))
            if mat_det(g.tower, m) is not None:
                return m

    vec = vector_k(g, (2, 1))
    for _ in range(4):
        x, y = rand_mat(), rand_mat()
        lhs = mod.apply(mat_mul(g.tower, x, y), vec)
        rhs = mod.apply(x, mod.apply(y, vec))
        lhs = {k: v for k, v in lhs.items() if v is not None}
        rhs = {k: v for k, v in rhs.items() if v is not None}
        assert lhs == rhs


def test_fixed_dims_counting_equals_brauer(g9):
    for rvec in ((0, 0), (1, 0), (2, 2), (1, 2)):
        mod = SymPowModule(g9, rho_pure(rvec))
        assert mod.fixed_dims() == mod.fixed_dims_brauer()


def test_jh_dims_sum(g9, g25):
    for g in (g9, g25):
        for rep in g.reps():
            if rep[0] not in ("ps", "cusp"):
                continue
            parts = jh_constituents(g, rep)
            assert sum(c.dim() for _, c in parts) == g.dim(rep)
            # subsets are distinct
            assert len({sub for sub, _ in parts}) == len(parts)


def test_jh_prime_field_structure(g7):
    # over a prime field: two constituents, symmetric-power degrees summing
    # to p - 1 for the principal series and p - 3 for the cuspidals
    p = g7.p
    for rep in g7.reps():
        if rep[0] not in ("ps", "cusp"):
            continue
        parts = jh_constituents(g7, rep)
        assert len(parts) == 2
        degs = sorted(c.sym[0] for _, c in parts)
        assert degs[0] + degs[1] == (p - 1 if rep[0] == "ps" else p - 3)


def test_diamond_checks(g5, g7, g9):
    for g in (g5, g7, g9):
        for rep in g.reps():
            if rep[0] not in ("ps", "cusp"):
                continue
            rpt = diamond_check(g, rep)
            assert rpt.ok(), (g.q, rep, rpt)


def test_diamond_exactly_one_flagged(g9):
    for rep in g9.reps():
        if rep[0] not in ("ps", "cusp"):
            continue
        rpt = diamond_check(g9, rep)
        flags = [dims == (1, 1) for dims in rpt.fixed_dims]
        assert sum(flags) == 1


def test_constituent_dim():
    c = Constituent(sym=(2, 4), det=(0, 1))
    assert c.dim() == 15
    assert len(list(c.avecs())) == 15


def test_bad_rvec_rejected(g9):
    with pytest.raises(ValueError):
        st_report(g9, (1,))  # wrong length
    with pytest.raises(ValueError):
        st_report(g9, (3, 0))  # digit out of range


# -- the K-average through the eigenbasis of K ------------------------------


def reference_y_average(mod, vec):
    """Reference: the average over K as the sum of apply(k, vec) over its
    q + 1 matrices, divided by q + 1."""
    g = mod.g
    t = g.tower
    total = {}
    for k in g.K:
        for avec, c in mod.apply(k, vec).items():
            acc = t.add(total.get(avec), c)
            if acc is None:
                total.pop(avec, None)
            else:
                total[avec] = acc
    scale = t.inv(t.from_prime(g.q + 1))
    return {avec: t.mul(c, scale) for avec, c in total.items()}


def random_vector(g, cons, rng):
    """A vector with a random coefficient in F_(q^2), zero included, on
    every monomial."""
    vec = {avec: rng.randrange(-1, g.tower.order) for avec in cons.avecs()}
    return {avec: c for avec, c in vec.items() if c >= 0}


def ps_cusp_constituents(g):
    """Every constituent of every ps and cusp reduction, each once."""
    return {
        c for rep in g.reps() if rep[0] in ("ps", "cusp") for _, c in jh_constituents(g, rep)
    }


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_y_average_matches_the_sum_over_k(p, f):
    # determinant twists included: each constituent carries its own
    g = PGL2(p, f)
    rng = random.Random(p * 100 + f)
    for cons in sorted(ps_cusp_constituents(g), key=lambda c: (c.sym, c.det)):
        mod = SymPowModule(g, cons)
        vec = random_vector(g, cons, rng)
        assert mod.y_average(vec) == reference_y_average(mod, vec), cons


@pytest.mark.parametrize("p, f", [(3, 2), (5, 2), (3, 3)])
def test_y_average_matches_the_sum_over_k_on_st_vectors(p, f):
    g = PGL2(p, f)
    for rvec in all_rvecs(g):
        mod = SymPowModule(g, rho_pure(rvec))
        for vec in (vector_h(g, rvec), vector_k(g, rvec)):
            assert mod.y_average(vec) == reference_y_average(mod, vec), rvec


def test_y_average_rejects_a_basis_that_does_not_diagonalize_k(g25, monkeypatch):
    g = g25
    t = g.tower
    one, s = t.one, g.sqrt_alpha
    mod = SymPowModule(g, rho_pure((2, 2)))
    vec = vector_h(g, (2, 2))
    m, m_inv = sympow._k_eigenbasis(g)
    assert mat_mul(t, m, m_inv) == (one, None, None, one)
    identity = (one, None, None, one)
    # M with its columns swapped diagonalizes K, but to diag(1 - s, 1 + s)
    swapped = (t.neg(s), s, one, one)
    swapped_inv = (m_inv[2], m_inv[3], m_inv[0], m_inv[1])
    assert mat_mul(t, swapped, swapped_inv) == identity
    for bad in ((identity, identity), (swapped, swapped_inv)):
        monkeypatch.setattr(sympow, "_k_eigenbasis", lambda _g, bad=bad: bad)
        with pytest.raises(ConsistencyError, match="does not diagonalize"):
            mod.y_average(vec)


def test_y_average_rejects_a_module_with_a_central_character(g9):
    # Sym^1 without a twist: the scalar c acts by c, so the sum over K is
    # not an average over the projective torus
    mod = SymPowModule(g9, Constituent((1, 0), (0, 0)))
    with pytest.raises(ValueError, match="scalars act trivially"):
        mod.y_average({(0, 0): g9.tower.one})


@pytest.mark.parametrize("p, f", [(5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_the_change_of_basis_round_trips(p, f):
    g = PGL2(p, f)
    m, m_inv = sympow._k_eigenbasis(g)
    rng = random.Random(f * 10 + p)
    cons = sorted(ps_cusp_constituents(g), key=lambda c: (c.sym, c.det))
    for c in cons[:: max(1, len(cons) // 6)] + [rho_pure((g.p - 1,) * g.f)]:
        mod = SymPowModule(g, c)
        vec = random_vector(g, c, rng)
        assert mod.apply(m, mod.apply(m_inv, vec)) == vec
        assert mod.apply(m_inv, mod.apply(m, vec)) == vec
