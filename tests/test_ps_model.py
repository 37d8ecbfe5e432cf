"""Induced-model vectors: explicit torus eigenvectors reproduce the
abstract correlation constants."""

import random

import pytest

from toric_correlator import ConsistencyError, CycNum, PGL2, corr_constant
from toric_correlator.pgl2 import mat_det, mat_mul
from toric_correlator.ps_model import (
    INF_KEY,
    ZERO_KEY,
    InducedModel,
    PsModel,
    act,
    compose,
    model_sum,
)


def rand_group_mat(g, rng):
    entries = [None] + [g.sub_exp(e) for e in range(g.q - 1)]
    while True:
        mat = tuple(rng.choice(entries) for _ in range(4))
        if mat_det(g.tower, mat) is not None:
            return mat


# -- reference: the model on CycNum vectors, one field computation per term --


def _zeta(model, e):
    return CycNum.zeta(model.kk, e)


def _add(out, key, c):
    out[key] = out.get(key, CycNum.rational(0)) + c


def ref_diag(model, a, vec):
    t = model.g.tower
    ca = _zeta(model, model.chi_exp(a))
    cai = ca.conj()  # chi^(-1)(a) since chi(a) is a root of unity
    out = {}
    for key, c in vec.items():
        if key == INF_KEY:
            _add(out, INF_KEY, ca * c)
        else:
            _add(out, model.key_of(t.mul(a, model.lam_of(key))), cai * c)
    return out


def ref_u(model, b, vec):
    t = model.g.tower
    out = {}
    for key, c in vec.items():
        nk = key if key == INF_KEY else model.key_of(t.sub(model.lam_of(key), b))
        _add(out, nk, c)
    return out


def ref_w(model, vec):
    t = model.g.tower
    out = {}
    for key, c in vec.items():
        if key == INF_KEY:
            _add(out, ZERO_KEY, c)
        elif key == ZERO_KEY:
            _add(out, INF_KEY, c)
        else:
            lam = model.lam_of(key)
            mult = _zeta(model, model.chi_exp(t.neg(t.mul(lam, lam))))
            _add(out, model.key_of(t.inv(lam)), mult * c)
    return out


def ref_apply(model, mat, vec):
    """Action of a matrix over F_q via its Bruhat factorization."""
    t = model.g.tower
    a, b, c, d = mat
    if c is None:
        # g = u(b/d) diag(a/d, 1)
        out = ref_diag(model, t.div(a, d), vec)
        if b is not None:
            out = ref_u(model, t.div(b, d), out)
        return out
    e = t.neg(t.div(mat_det(t, mat), c))
    # g = u(a/c) w u(d/e) diag(c/e, 1), applied rightmost-first
    out = ref_diag(model, t.div(c, e), vec)
    if d is not None:
        out = ref_u(model, t.div(d, e), out)
    out = ref_w(model, out)
    if a is not None:
        out = ref_u(model, t.div(a, c), out)
    return out


def ref_vector_h(model):
    """v_H: the H-average of f_1."""
    scale = CycNum.rational(1) / model.kk
    return {e: _zeta(model, -model.j * e) * scale for e in range(model.kk)}


def ref_vector_k(model, alpha):
    """v_K(alpha): the K_alpha-average of f."""
    g = model.g
    t = g.tower
    scale = CycNum.rational(1) / (g.q + 1)
    out = {INF_KEY: scale}
    for lam in g.q_elements():
        arg = t.inv(t.sub(alpha, t.mul(lam, lam)))
        out[model.key_of(lam)] = _zeta(model, model.chi_exp(arg)) * scale
    return out


def vector_equal(v, w):
    zero = CycNum.rational(0)
    return all(v.get(k, zero) == w.get(k, zero) for k in set(v) | set(w))


def as_cyc(model, image):
    """A monomial table entry (key, exponent) as a CycNum vector."""
    nk, e = image
    return {nk: _zeta(model, e)}


def mvec_as_cyc(model, vec, scale):
    return {k: _zeta(model, e) / scale for k, e in vec.items()}


# -- the monomial tables against the reference -------------------------------


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_tables_match_cycnum_reference(p, f):
    g = PGL2(p, f)
    rng = random.Random(p * 100 + f)
    mats = [rand_group_mat(g, rng) for _ in range(8)]
    for model in (PsModel(g, 1), InducedModel(g, (g.q - 1) // 2 + 1)):
        keys = model.basis_keys()
        assert len(keys) == g.q + 1
        w = model.w()
        for key in keys:
            basis = {key: CycNum.rational(1)}
            assert vector_equal(as_cyc(model, w[key]), ref_w(model, basis))
        for a in g.q_units():
            diag = model.diag(a)
            for key in keys:
                basis = {key: CycNum.rational(1)}
                assert vector_equal(as_cyc(model, diag[key]), ref_diag(model, a, basis))
        for b in g.q_elements():
            u = model.u(b)
            for key in keys:
                basis = {key: CycNum.rational(1)}
                assert vector_equal(as_cyc(model, u[key]), ref_u(model, b, basis))
        for mat in mats:
            table = model.apply(mat)
            for key in keys:
                basis = {key: CycNum.rational(1)}
                assert vector_equal(as_cyc(model, table[key]), ref_apply(model, mat, basis))
        # the scaled vectors are the reference averages
        want = ref_vector_h(model)
        assert vector_equal(mvec_as_cyc(model, model.vector_h(), g.q - 1), want)
        alpha2 = g.tower.mul(g.alpha, g.sub_exp(2))
        for alpha in (g.alpha, alpha2):
            want = ref_vector_k(model, alpha)
            got = mvec_as_cyc(model, model.vector_k(alpha), g.q + 1)
            assert vector_equal(got, want)


def test_apply_is_an_action(g7):
    g = g7
    model = PsModel(g, 1)
    rng = random.Random(17)
    for _ in range(8):
        x = rand_group_mat(g, rng)
        y = rand_group_mat(g, rng)
        via_product = model.apply(mat_mul(g.tower, x, y))
        stepwise = compose(model.apply(x), model.apply(y), model.kk)
        assert via_product == stepwise


def test_scalars_act_trivially(g7):
    # the model must factor through the projective group
    g = g7
    model = PsModel(g, 2)
    identity = {key: (key, 0) for key in model.basis_keys()}
    for e in range(g.q - 1):
        c = g.sub_exp(e)
        assert model.apply((c, None, None, c)) == identity


# consistency_check tests one generator of each torus; these loops over
# every element are its reference
def test_h_vector_is_an_h_eigenvector(g7, g25):
    for g in (g7, g25, PGL2(3, 3)):
        for r in range(1, (g.q - 1) // 2):
            model = PsModel(g, r)
            vh = model.vector_h()
            for h in g.H:
                assert act(model.apply(h), vh, model.kk) == vh


def test_k_vector_is_k_invariant(g7, g25):
    for g in (g7, g25, PGL2(3, 3)):
        for r in (1, 2):
            model = PsModel(g, r)
            vk = model.vector_k()
            for k in g.K:
                assert act(model.apply(k), vk, model.kk) == vk


def test_consistency_check_passes(g5, g7, g9):
    for g in (g5, g7, g9):
        for r in range(1, (g.q - 1) // 2):
            PsModel(g, r).consistency_check()


def test_model_constant_matches_character_route(g7, g9):
    for g in (g7, g9):
        for r in range(1, (g.q - 1) // 2):
            model = PsModel(g, r)
            assert model.model_constant() == corr_constant(g, ("ps", r))


def test_corr_sum_abs_square_is_the_constant(g7):
    g = g7
    model = PsModel(g, 2)
    s = model_sum(g, 2)
    want = s.abs2() / CycNum.rational(g.q**2 - 1)
    assert model.model_constant() == want


def test_invalid_r_rejected(g5):
    with pytest.raises(ValueError):
        PsModel(g5, 0)
    with pytest.raises(ValueError):
        PsModel(g5, (g5.q - 1) // 2)  # boundary exponent is not regular


# -- negative tests: one perturbed entry -------------------------------------


def test_perturbed_w_entry_is_caught(g25):
    model = PsModel(g25, 4)
    model.consistency_check()
    bad = model.w()
    nk, e = bad[3]
    bad[3] = (nk, (e + 1) % model.kk)
    model.w = lambda: bad
    with pytest.raises(ConsistencyError, match="K-fixed"):
        model.consistency_check()


def test_perturbed_k_vector_entry_is_caught(g25):
    model = PsModel(g25, 4)
    good = model.vector_k

    def vector_k(alpha=None):
        out = good(alpha)
        out[3] = (out[3] + 1) % model.kk
        return out

    model.vector_k = vector_k
    with pytest.raises(ConsistencyError, match="K-fixed"):
        model.consistency_check()
