"""Correlation constants: frozen values, identities, sign criterion."""

from fractions import Fraction

import pytest

from toric_correlator import (
    CycNum,
    PGL2,
    corr_constant,
    correlate_all,
    epsilon,
    epsilon_closed,
    pair_class_counts,
    regular_identity,
    tensor_identity,
)
from toric_correlator.correlation import (
    epsilon_h_average,
    epsilon_k_average,
    unipotent_pair_report,
)
from toric_correlator.fields import ConsistencyError
from toric_correlator.pgl2 import mat_mul

from test_pgl2 import ODD_Q_TO_49, move_one_count, moved_value_reps


def reference_corr_constant(g, rep, counts=None):
    """c(rep) summed class by class through char_counter, uncached."""
    if counts is None:
        counts = pair_class_counts(g)
    kk = g.q**2 - 1
    total = {}
    for cls, n in counts.items():
        if n:
            for e, c in g.char_counter(rep, cls).items():
                total[e] = total.get(e, 0) + n * c
    return CycNum.from_counter(kk, total) / kk


# every odd prime power up to 49
SMALL_FIELDS = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
    (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1),
    (47, 1), (7, 2),
]


# frozen exact constants for PGL2(F_5), computed once and pinned
Q5_EXPECTED = {
    ("triv",): Fraction(1),
    ("eta",): Fraction(0),
    ("st",): Fraction(0),
    ("steta",): Fraction(2, 3),
    ("ps", 1): Fraction(0),
    ("cusp", 1): Fraction(1, 6),
    ("cusp", 2): Fraction(0),
}


def test_q5_constants_frozen(g5):
    records = {r.rep: r for r in correlate_all(g5)}
    assert set(records) == set(Q5_EXPECTED)
    for rep, want in Q5_EXPECTED.items():
        assert records[rep].value.as_rational() == want


def test_q7_cuspidal_values_quadratic_irrational(g7):
    # the two nonvanishing cuspidal constants are (2 +/- sqrt2)/6
    sqrt2 = CycNum.zeta(8) + CycNum.zeta(8, 7)
    lo = (CycNum.rational(2) - sqrt2) / CycNum.rational(6)
    hi = (CycNum.rational(2) + sqrt2) / CycNum.rational(6)
    got = [corr_constant(g7, ("cusp", r)) for r in (1, 2, 3)]
    nonzero = [v for v in got if not v.is_zero()]
    assert len(nonzero) == 2
    assert any(v == lo for v in nonzero)
    assert any(v == hi for v in nonzero)


def test_constants_are_real_and_nonnegative(g9):
    for rec in correlate_all(g9):
        assert rec.value.conj() == rec.value
        assert rec.value.to_complex().real >= -1e-12


def test_regular_identity_small():
    for p, f in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1)):
        regular_identity(PGL2(p, f))


def test_tensor_identity(g5, g7):
    for g in (g5, g7):
        for rep in g.reps():
            tensor_identity(g, rep)


def test_unipotent_count_follows_q_mod_4(g5, g7, g9):
    for g in (g5, g7, g9):
        rpt = unipotent_pair_report(g)
        assert rpt["agrees_with_q_rule"]
    # the p-mod-4 prediction fails precisely for even extension degree
    rpt9 = unipotent_pair_report(g9)
    assert not rpt9["agrees_with_p_rule"]


def test_epsilon_closed_forms(g7):
    assert epsilon_closed(g7, ("triv",)) == 1
    assert epsilon_closed(g7, ("steta",)) == -1  # (q-1)/2 = 3 odd
    assert epsilon_closed(g7, ("ps", 1)) == -1
    assert epsilon_closed(g7, ("ps", 2)) == 1
    assert epsilon_closed(g7, ("cusp", 1)) == 1
    assert epsilon_closed(g7, ("cusp", 2)) == -1


def test_epsilon_three_ways_agree(g5, g7, g9):
    # epsilon() cross-checks the closed form against two other routes and
    # raises on disagreement; None marks reps without multiplicity one
    for g in (g5, g7, g9):
        for rep in g.reps():
            eps = epsilon(g, rep)
            if rep[0] in ("eta", "st"):
                assert eps is None
            else:
                assert eps in (-1, 1)


def test_sign_criterion_one_directional(g5, g7, g9, g25):
    # epsilon = -1 forces vanishing; the converse fails only over
    # extension fields, in exactly these cases
    plus_vanishing = []
    for g in (g5, g7, g9, g25):
        for rec in correlate_all(g):
            if rec.epsilon == -1:
                assert rec.vanishes
            if rec.epsilon == 1 and rec.vanishes:
                plus_vanishing.append((g.q, rec.rep))
                assert g.f > 1
    assert plus_vanishing == [(9, ("steta",)), (25, ("ps", 6)), (25, ("ps", 8))]


def test_pair_class_counts_total(g7):
    counts = pair_class_counts(g7)
    assert sum(counts.values()) == (g7.q - 1) * (g7.q + 1)


def test_pair_class_counts_mutation_does_not_leak(g7):
    # the classification is memoized on the group, and the conftest groups
    # are shared by every test: a caller mutating its copy must not reach
    # later callers
    first = pair_class_counts(g7)
    want = dict(first)
    values = {rep: corr_constant(g7, rep) for rep in g7.reps()}
    first[("id",)] += 100
    first[("unip",)] = -1
    del first[("ell", 1)]
    second = pair_class_counts(g7)
    assert second == want and second is not first
    second.clear()
    assert pair_class_counts(g7) == want
    for rep, val in values.items():
        assert corr_constant(g7, rep) == val
    regular_identity(g7)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_pair_class_counts_match_per_product_classification(p, f):
    g = PGL2(p, f)
    t = g.tower
    want = {c: 0 for c in g.classes}
    for h in g.H:
        for k in g.K:
            cls = g.classify(mat_mul(t, h, k))
            want[cls] += 1
    assert pair_class_counts(g) == want


def _brute_sign_average(g, rep, mats):
    total = sum((g.char_value(rep, g.classify(m)) for m in mats), CycNum.rational(0))
    return (total / len(mats)).as_rational()


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_sign_averages_match_per_element_sum(p, f):
    # the averages sum class counts; here every product h k_0 and h_0 k is
    # formed as a matrix and classified on its own
    g = PGL2(p, f)
    t = g.tower
    hk0 = [mat_mul(t, h, g.k0) for h in g.H]
    h0k = [mat_mul(t, g.h0, k) for k in g.K]
    assert len(hk0) == g.q - 1 and len(h0k) == g.q + 1
    for rep in g.reps():
        if epsilon_closed(g, rep) is None:
            continue
        assert epsilon_h_average(g, rep) == _brute_sign_average(g, rep, hk0)
        assert epsilon_k_average(g, rep) == _brute_sign_average(g, rep, h0k)


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
@pytest.mark.parametrize("which", ["hk0", "h0k"])
@pytest.mark.parametrize("family", ["split", "ell"])
def test_sign_averages_see_a_moved_class_count(p, f, which, family):
    # the sign averages read the family form of the class multiset, so one
    # count moved within the family must still fail the three-way check
    g = PGL2(p, f)
    kind, m, e, x = move_one_count(g, which, family)
    for rep in moved_value_reps(g, kind, m, e, x):
        with pytest.raises(ConsistencyError):
            epsilon(g, rep)


def test_records_shape(g5):
    rec = correlate_all(g5)[0]
    d = rec.to_json_dict()
    assert set(d) == {"rep", "dim", "value", "epsilon", "vanishes", "sign_criterion_ok"}
    assert d["value"]["conductor"] >= 1


def test_bad_rep_label_raises(g5):
    with pytest.raises((KeyError, ValueError)):
        corr_constant(g5, ("ps", 99))


@pytest.mark.parametrize("rep", [("st", 1), ("foo",), ("cusp",)])
def test_epsilon_rejects_bad_labels(g7, rep):
    with pytest.raises(ValueError):
        epsilon_closed(g7, rep)
    with pytest.raises(ValueError):
        epsilon(g7, rep)


@pytest.mark.parametrize("p, f", SMALL_FIELDS)
def test_family_kernels_match_char_counter_reference(p, f):
    g = PGL2(p, f)
    for rep in g.reps():
        want = reference_corr_constant(g, rep)
        got = corr_constant(g, rep)
        # the conductor and the coordinates enter the digest, not only the value
        assert got == want
        assert got.k == want.k
        assert got.to_json_dict()["coeffs"] == want.to_json_dict()["coeffs"]


@pytest.mark.parametrize("p, f", [(7, 1), (3, 2), (5, 2), (7, 2)])
def test_shifted_kernel_exponent_disagrees_with_reference(p, f):
    # moving one class's mass to the nearest class of its family whose
    # exponent +-r e differs must change the value, so the reference
    # comparison has teeth
    g = PGL2(p, f)
    counts = pair_class_counts(g)
    kk = g.q**2 - 1
    terms = g.family_terms(counts)
    n_id, n_unip, pairs = terms
    for rep in g.reps():
        if rep[0] not in ("ps", "cusp"):
            continue
        kind, r = rep
        form = g.form(rep)
        assert g.family_sum(form, terms, den=kk) == corr_constant(g, rep)
        fam = "split" if kind == "ps" else "ell"
        (e, n), rest = pairs[fam][0], pairs[fam][1:]
        m = g.q - 1 if kind == "ps" else g.q + 1  # classes 1..m/2
        near = sorted(range(1, m // 2 + 1), key=lambda x: abs(x - e))
        moved = next(x for x in near if r * (x - e) % m and r * (x + e) % m)
        shifted = (n_id, n_unip, {**pairs, fam: [(moved, n), *rest]})
        bad = g.family_sum(form, shifted, den=kk)
        assert bad != reference_corr_constant(g, rep, counts)


def test_constant_memo_is_per_group():
    g1, g2 = PGL2(7, 1), PGL2(7, 1)
    val = corr_constant(g1, ("cusp", 1))
    assert g1._const_cache == {("cusp", 1): val}
    assert g2._const_cache == {}
    assert corr_constant(g2, ("cusp", 1)) == val
    assert g2._const_cache[("cusp", 1)] is not val


def test_explicit_counts_bypass_the_memo():
    # the family sum over a moved pair multiset matches the class-by-class
    # reference on that multiset, and not the memoized constant
    g = PGL2(7, 1)
    rep = ("ps", 2)
    moved = pair_class_counts(g)
    moved[("split", 1)] += 1
    moved[("split", 3)] -= 1
    got = g.family_sum(g.form(rep), g.family_terms(moved), den=g.q**2 - 1)
    assert got == reference_corr_constant(g, rep, moved)
    assert got != corr_constant(g, rep)


def test_regular_identity_checks_the_memoized_constants():
    g = PGL2(7, 1)
    regular_identity(g)
    assert set(g._const_cache) == set(g.reps())
    rep = ("cusp", 1)
    good = g._const_cache[rep]
    g._const_cache[rep] = good + CycNum.zeta(8)
    with pytest.raises(ConsistencyError):
        regular_identity(g)
    # the memoized value restored passes again
    g._const_cache[rep] = good
    regular_identity(g)


def test_regular_identity_rejects_a_coordinate_outside_the_lattice():
    # coordinates of c(pi) lie in (1/(q^2 - 1)) Z; half a step is not one
    g = PGL2(7, 1)
    kk = g.q**2 - 1
    rep = ("ps", 1)
    g._const_cache[rep] = corr_constant(g, rep) + Fraction(1, 2 * kk)
    with pytest.raises(ConsistencyError, match="outside"):
        regular_identity(g)


def test_bad_rep_label_raises_before_memo_lookup():
    g = PGL2(5, 1)
    g._const_cache[("ps", 99)] = CycNum.rational(0)
    with pytest.raises(ValueError):
        corr_constant(g, ("ps", 99))
