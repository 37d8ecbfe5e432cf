"""Twisted symmetric-power modules in defining characteristic: structure
constants, torus-fixed dimensions, constituent decompositions."""

import itertools
import random

import pytest

from toric_correlator import ConsistencyError, PGL2, diamond_check, jh_constituents
from toric_correlator import CycNum, st_report, sympow
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
        assert mod.fixed_dims() == mod.fixed_dims_brauer() == reference_fixed_dims_brauer(mod)
    # every constituent of every ps and cusp reduction at odd q <= 49
    for p, f in ODD_Q_TO_49:
        g = PGL2(p, f)
        for cons in ps_cusp_constituents(g):
            mod = SymPowModule(g, cons)
            assert mod.fixed_dims_brauer() == reference_fixed_dims_brauer(mod), (g.q, cons)


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
    with pytest.raises(ValueError, match="scalars act trivially"):
        mod.torus_histograms()


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


# -- the Brauer checks as torus histograms ----------------------------------


def reference_brauer_counter(mod, ex, ey):
    """Brauer character value of mod at a p-regular element with eigenvalue
    dlogs (ex, ey), as an exponent counter mod q^2 - 1."""
    g = mod.g
    kk = g.q**2 - 1
    out = {}
    for avec in mod.cons.avecs():
        e = mod.det_weight * (ex + ey)
        for i, (ai, di) in enumerate(zip(avec, mod.cons.sym)):
            e += g.p**i * (ai * ex + (di - ai) * ey)
        out[e % kk] = out.get(e % kk, 0) + 1
    return out


def reference_class_eigs(g, cls):
    """Eigenvalue dlogs of a p-regular class; None for the unipotent."""
    q = g.q
    if cls[0] in ("id", "unip"):
        return (0, 0) if cls[0] == "id" else None
    if cls[0] == "split":
        return (cls[1] * (q + 1), 0)
    ee = (q + 1 - cls[1]) % (q * q - 1)
    return (ee, ee * q % (q * q - 1))


def reference_brauer_sum_ok(g, rep, modules):
    """Reference: the Brauer characters of modules minus chi_rep, reduced in
    Q(zeta_(q^2 - 1)) at every p-regular class."""
    for cls in g.classes:
        eigs = reference_class_eigs(g, cls)
        if eigs is None:
            continue
        total = {}
        for mod in modules:
            for e, c in reference_brauer_counter(mod, *eigs).items():
                total[e] = total.get(e, 0) + c
        for e, c in g.char_counter(rep, cls).items():
            total[e] = total.get(e, 0) - c
        if not CycNum.from_counter(g.q**2 - 1, total).is_zero():
            return False
    return True


def reference_fixed_dims_brauer(mod):
    """Reference: the Brauer character averaged over the q - 1 elements of H
    and over the q + 1 elements of K, each sum reduced in Q(zeta_(q^2 - 1))."""
    g = mod.g
    kk = g.q**2 - 1
    e0 = g.tower.add(g.tower.one, g.sqrt_alpha)
    h_eigs = [(e * (g.q + 1), 0) for e in range(g.q - 1)]
    k_eigs = [(t * e0 % kk, t * e0 * g.q % kk) for t in range(g.q + 1)]
    dims = []
    for eigs in (h_eigs, k_eigs):
        total = {}
        for ex, ey in eigs:
            for e, c in reference_brauer_counter(mod, ex, ey).items():
                total[e] = total.get(e, 0) + c
        val = CycNum.from_counter(kk, total).as_rational() / len(eigs)
        assert val.denominator == 1
        dims.append(int(val))
    return tuple(dims)


def ps_cusp_modules(g):
    """(rep, the modules of its constituents) for every ps and cusp rep."""
    for rep in g.reps():
        if rep[0] in ("ps", "cusp"):
            yield rep, [SymPowModule(g, c) for _, c in jh_constituents(g, rep)]


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_brauer_sum_matches_the_class_by_class_reference(p, f):
    g = PGL2(p, f)
    for rep, modules in ps_cusp_modules(g):
        assert sympow._brauer_sum_ok(g, rep, modules), rep
        assert reference_brauer_sum_ok(g, rep, modules), rep


def rejected(check):
    """True when check() returns False or raises ConsistencyError."""
    try:
        return not check()
    except ConsistencyError:
        return True


def both_reject(g, rep, modules):
    return rejected(lambda: sympow._brauer_sum_ok(g, rep, modules)) and rejected(
        lambda: reference_brauer_sum_ok(g, rep, modules)
    )


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_broken_brauer_sums_are_rejected_by_both_routes(p, f, monkeypatch):
    g = PGL2(p, f)
    reps = g.reps()
    form = g.form
    for rep, modules in ps_cusp_modules(g):
        # a dropped constituent
        assert both_reject(g, rep, modules[1:]), rep
        # the first constituent's determinant twisted by (q - 1)/2
        cons = modules[0].cons
        det = (cons.det[0] + (g.q - 1) // 2,) + cons.det[1:]
        twisted = SymPowModule(g, Constituent(cons.sym, det))
        assert both_reject(g, rep, [twisted] + modules[1:]), rep
        # the neighbouring label of the same kind
        for r in (rep[1] + 1, rep[1] - 1):
            if (rep[0], r) in reps:
                assert both_reject(g, (rep[0], r), modules), rep
                break
        # c moved by m (so m still divides chi(id) - c), or s moved by 1
        chi_id, chi_unip, fams = form(rep)
        fam, m = ("split", g.q - 1) if rep[0] == "ps" else ("ell", g.q + 1)
        c, s = fams[fam]
        for edit in ((c + m, s), (c, s + 1)):
            edited = (chi_id, chi_unip, {**fams, fam: edit})
            monkeypatch.setattr(g, "form", lambda r: edited if r == rep else form(r))
            assert both_reject(g, rep, modules), (rep, edit)
            monkeypatch.undo()


def test_form_histograms_reject_an_indivisible_form(g9, monkeypatch):
    chi_id, chi_unip, fams = g9.form(("ps", 1))
    c, s = fams["split"]
    edited = (chi_id, chi_unip, {**fams, "split": (c + 1, s)})
    monkeypatch.setattr(g9, "form", lambda r: edited)
    with pytest.raises(ConsistencyError, match="does not divide"):
        sympow._form_histograms(g9, ("ps", 1))
