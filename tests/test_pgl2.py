"""Group engine: tori, conjugacy classification, character table."""

import random

import pytest

from toric_correlator import CycNum, PGL2
from toric_correlator.pgl2 import mat_det, mat_mul


def _mat_inv(t, x):
    a, b, c, d = x
    di = t.inv(mat_det(t, x))
    return (t.mul(d, di), t.mul(t.neg(b), di), t.mul(t.neg(c), di), t.mul(a, di))


def _mat_eq_projective(t, x, y):
    """Equality in PGL2: x = c*y for a scalar c."""
    c = None
    for u, v in zip(x, y):
        if (u is None) != (v is None):
            return False
        if u is not None:
            r = t.div(u, v)
            if c is None:
                c = r
            elif r != c:
                return False
    return c is not None


def test_torus_sizes(g7, g9):
    for g in (g7, g9):
        assert len(g.H) == g.q - 1
        assert len(g.K) == g.q + 1


def test_split_torus_is_closed_under_product(g7):
    g = g7
    t = g.tower
    for a in g.q_units():
        for b in g.q_units():
            prod = mat_mul(t, g.h_mat(a), g.h_mat(b))
            assert _mat_eq_projective(t, prod, g.h_mat(t.mul(a, b)))


def test_nonsplit_torus_is_a_group(g7):
    g = g7
    t = g.tower
    for x in g.K[:4]:
        assert any(
            _mat_eq_projective(t, _mat_inv(t, x), y) for y in g.K
        )
        for y in g.K[:4]:
            prod = mat_mul(t, x, y)
            assert any(_mat_eq_projective(t, prod, z) for z in g.K)


def test_nonsplit_torus_elements_have_irreducible_char_poly(g7):
    # tr^2 - 4 det is a nonsquare for every nonidentity torus element
    from toric_correlator.pgl2 import mat_trace

    g = g7
    t = g.tower
    nontrivial = 0
    for x in g.K:
        tr, det = mat_trace(t, x), mat_det(t, x)
        disc = t.sub(t.mul(tr, tr), t.mul(t.from_prime(4), det))
        if disc is not None and g.sub_dlog(disc) % 2 == 1:
            nontrivial += 1
    assert nontrivial == g.q


def test_alpha_is_a_nonsquare_of_the_base_field(g7, g9):
    for g in (g7, g9):
        t = g.tower
        assert t.in_subfield(g.f, g.alpha)
        assert g.sub_dlog(g.alpha) % 2 == 1  # nonsquare in F_q
        # its square root generates the quadratic extension
        assert t.mul(g.sqrt_alpha, g.sqrt_alpha) == g.alpha
        assert not t.in_subfield(g.f, g.sqrt_alpha)


def rand_mat(g, rng):
    # entries in F_q, nonzero determinant
    entries = [None] + [g.sub_exp(e) for e in range(g.q - 1)]
    while True:
        mat = tuple(rng.choice(entries) for _ in range(4))
        if mat_det(g.tower, mat) is not None:
            return mat


def test_classify_covers_all_classes(g7):
    g = g7
    t = g.tower
    rng = random.Random(3)
    seen = {g.classify(rand_mat(g, rng)) for _ in range(400)}
    # random draws essentially never produce a scalar matrix
    seen.add(g.classify((t.one, None, None, t.one)))
    assert seen == set(g.classes)


def test_classify_is_conjugation_invariant(g9):
    g = g9
    t = g.tower
    rng = random.Random(5)
    for _ in range(12):
        x = rand_mat(g, rng)
        s = rand_mat(g, rng)
        conj = mat_mul(t, mat_mul(t, s, x), _mat_inv(t, s))
        assert g.classify(conj) == g.classify(x)


def test_class_sizes_sum_to_group_order(g7, g9):
    for g in (g7, g9):
        assert sum(g.class_size[c] for c in g.classes) == g.order
        assert g.order == g.q * (g.q - 1) * (g.q + 1)


def test_dims_sum_of_squares(g5, g7, g9):
    for g in (g5, g7, g9):
        assert sum(g.dim(rep) ** 2 for rep in g.reps()) == g.order


def test_char_value_at_identity_is_dim(g7):
    g = g7
    for rep in g.reps():
        assert g.char_value(rep, ("id",)) == CycNum.rational(g.dim(rep))


def test_orthogonality(g3, g5, g7, g9):
    for g in (g3, g5, g7, g9):
        g.orthogonality_check()


def test_invariant_dims_multiplicity_one(g7, g9):
    # both tori: dimension of the fixed space is 0 or 1 except for the
    # Steinberg H-side (dimension 2) and the sign character (0, 0)
    want = {
        "triv": (1, 1), "eta": (0, 0), "st": (2, 0),
        "steta": (1, 1), "ps": (1, 1), "cusp": (1, 1),
    }
    for g in (g7, g9):
        for rep in g.reps():
            assert g.invariant_dims(rep) == want[rep[0]]


def test_rep_count_matches_class_count(g5, g7, g9):
    for g in (g5, g7, g9):
        assert len(g.reps()) == len(g.classes)


def test_describe(g9):
    d = g9.describe()
    assert d["p"] == 3 and d["f"] == 2 and d["q"] == 9
    assert d["num_classes"] == len(g9.classes)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PGL2(4, 1)
    with pytest.raises(ValueError):
        PGL2(2, 3)
