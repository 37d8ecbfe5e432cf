"""Group engine: tori, conjugacy classification, character table."""

import random

import pytest

from toric_correlator import CycNum, PGL2
from toric_correlator.correlation import pair_class_counts
from toric_correlator.fields import ConsistencyError
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


def _pm_counter(ex, kk, sign):
    """sign * (zeta^ex + zeta^-ex) as an exponent counter modulo kk."""
    out = {}
    for x in (ex % kk, -ex % kk):
        out[x] = out.get(x, 0) + sign
    return out


def reference_char_counter(g, rep, cls):
    """Reference: chi_rep(cls) as an exponent counter modulo q^2 - 1,
    written class by class, independently of g.form."""
    g.check_rep(rep)
    q = g.q
    kind, ckind = rep[0], cls[0]
    if kind == "triv":
        return {0: 1}
    if kind == "eta":
        sign = 1 if ckind in ("id", "unip") else (-1) ** cls[1]
        return {0: sign}
    if kind == "st":
        return {"id": {0: q}, "unip": {}, "split": {0: 1}, "ell": {0: -1}}[ckind]
    if kind == "steta":
        base = reference_char_counter(g, ("st",), cls)
        if ckind in ("split", "ell") and cls[1] % 2:
            return {e: -c for e, c in base.items()}
        return base
    r = rep[1]
    kk = q * q - 1
    if kind == "ps":
        if ckind == "id":
            return {0: q + 1}
        if ckind == "unip":
            return {0: 1}
        if ckind == "ell":
            return {}
        return _pm_counter(r * cls[1] * (q + 1), kk, 1)
    if ckind == "id":
        return {0: q - 1}
    if ckind == "unip":
        return {0: -1}
    if ckind == "split":
        return {}
    ee = q + 1 - cls[1]  # an eigenvalue dlog with this angle
    return _pm_counter(r * ee * (q - 1), kk, -1)


def _row_product(kk, sizes, row1, row2):
    """Reference: sum over classes of |cls| chi_1(cls) conj chi_2(cls),
    class by class, from two rows of exponent counters."""
    total = {}
    for sz, c1, c2 in zip(sizes, row1, row2):
        for e1, a in c1.items():
            for e2, b in c2.items():
                ex = (e1 - e2) % kk
                total[ex] = total.get(ex, 0) + sz * a * b
    return CycNum.from_counter(kk, total)


def test_char_value_at_identity_is_dim(g7):
    g = g7
    for rep in g.reps():
        assert g.char_value(rep, ("id",)) == CycNum.rational(g.dim(rep))


def test_orthogonality(g3, g5, g7, g9):
    for g in (g3, g5, g7, g9):
        g.orthogonality_check()


def row_orthogonality(g):
    """Reference: the class-by-class row sums the kernels regroup,
    sum over classes of |c| chi_r1(c) conj chi_r2(c) = |G| if r1 = r2,
    else 0, one reduction per pair of reps."""
    kk = g.q**2 - 1
    reps = g.reps()
    for i, r1 in enumerate(reps):
        for r2 in reps[i:]:
            total = {}
            for cls in g.classes:
                sz = g.class_size[cls]
                c2 = g.char_counter(r2, cls)
                for e1, a in g.char_counter(r1, cls).items():
                    for e2, b in c2.items():
                        ex = (e1 - e2) % kk
                        total[ex] = total.get(ex, 0) + sz * a * b
            val = CycNum.from_counter(kk, total)
            want = g.order if r1 == r2 else 0
            if val != want:
                raise ConsistencyError(f"row orthogonality fails at {r1}, {r2}")


def column_orthogonality(g):
    """Reference: the column sums the row check implies for a square table,
    sum over reps of chi(c1) conj chi(c2) = |G| / |c1| if c1 = c2, else 0."""
    kk = g.q**2 - 1
    reps = g.reps()
    for i, c1 in enumerate(g.classes):
        for c2 in g.classes[i:]:
            total = {}
            for rep in reps:
                cc2 = g.char_counter(rep, c2)
                for e1, a in g.char_counter(rep, c1).items():
                    for e2, b in cc2.items():
                        ex = (e1 - e2) % kk
                        total[ex] = total.get(ex, 0) + a * b
            val = CycNum.from_counter(kk, total)
            want = 0 if c1 != c2 else g.order // g.class_size[c1]
            if val != want:
                raise ConsistencyError(f"column orthogonality fails at {c1}, {c2}")


ODD_Q_TO_49 = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
    (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
]


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_column_orthogonality_reference(p, f):
    g = PGL2(p, f)
    g.orthogonality_check()
    column_orthogonality(g)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_row_orthogonality_reference(p, f):
    g = PGL2(p, f)
    g.orthogonality_check()
    row_orthogonality(g)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_char_counter_matches_reference(p, f):
    # char_counter evaluates the forms; the table written class by class
    # stays its reference
    g = PGL2(p, f)
    kk = g.q**2 - 1
    for rep in g.reps():
        for cls in g.classes:
            want = CycNum.from_counter(kk, reference_char_counter(g, rep, cls))
            got = g.char_value(rep, cls)
            assert got == want and got.k == want.k and got.den == want.den, (rep, cls)


def _edit_form(g, rep0, edit):
    """Patch g.form so that the form of rep0 carries one edit. Edits
    name a family ("split" or "ell") and a change of its term (c, s):
    "c negated", "c plus one", "s moved" (s to m/2 - s, so 0 and m/2
    swap), "s shifted" (s + 1), "term added" (a family where chi vanished
    gets (2, 1)); or "id plus one", "unip plus one"."""
    real = g.form
    chi_id, chi_unip, fams = real(rep0)
    if edit == "id plus one":
        chi_id += 1
    elif edit == "unip plus one":
        chi_unip += 1
    else:
        fam, change = edit.split(" ", 1)
        c, s = fams[fam] or (0, 0)
        half = (g.q - 1 if fam == "split" else g.q + 1) // 2
        fams = {**fams, fam: {
            "c negated": (-c, s),
            "c plus one": (c + 1, s),
            "s moved": (c, half - s),
            "s shifted": (c, s + 1),
            "term added": (2, 1),
        }[change]}
    edited = chi_id, chi_unip, fams
    assert edited != real(rep0)
    g.form = lambda rep: edited if rep == rep0 else real(rep)


def _assert_rejected(g):
    """Both the kernel check and the class-by-class reference fail."""
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        g.orthogonality_check()
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        row_orthogonality(g)


def _assert_entry_changed(g, rep, cls):
    want = CycNum.from_counter(g.q**2 - 1, reference_char_counter(g, rep, cls))
    assert g.char_value(rep, cls) != want


def test_orthogonality_check_rejects_a_perturbed_table():
    # st on every split class becomes 2 instead of 1
    g = PGL2(5, 1)
    _edit_form(g, ("st",), "split c plus one")
    _assert_rejected(g)
    with pytest.raises(ConsistencyError, match="column orthogonality"):
        column_orthogonality(g)
    # one unit of size moved between classes keeps the total, so the
    # trivial row still passes
    g = PGL2(5, 1)
    g.class_size = dict(g.class_size)
    g.class_size[("split", 1)] += 1
    g.class_size[("ell", 1)] -= 1
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        g.orthogonality_check()
    g = PGL2(5, 1)
    reps = g.reps()
    g.reps = lambda: reps[:-1]
    with pytest.raises(ConsistencyError, match="not square"):
        g.orthogonality_check()


EDITED_REPS = [("triv",), ("eta",), ("st",), ("steta",), ("ps", 2), ("cusp", 2)]
HOME = {"ps": "split", "cusp": "ell"}


def _form_edits():
    """(rep, edit) for every edit each check must reject: c negated, s
    moved between 0 and m/2 or shifted by 1 on each family the rep lives
    on, chi(id) + 1, chi(unip) + 1, and a ps or cusp rep given a term on
    the other family."""
    out = []
    for rep in EDITED_REPS:
        fams = [HOME[rep[0]]] if rep[0] in HOME else ["split", "ell"]
        edits = ["id plus one", "unip plus one"]
        edits += [f"{fam} {e}" for fam in fams for e in ("c negated", "s moved", "s shifted")]
        if rep[0] in HOME:
            edits.append(f"{'ell' if rep[0] == 'ps' else 'split'} term added")
        out += [pytest.param(rep, e, id=f"{':'.join(map(str, rep))}-{e}") for e in edits]
    return out


@pytest.mark.parametrize("p, f", [(11, 1), (5, 2)])
@pytest.mark.parametrize("rep, edit", _form_edits())
def test_orthogonality_check_rejects_an_edited_form(p, f, rep, edit):
    g = PGL2(p, f)
    _edit_form(g, rep, edit)
    _assert_rejected(g)


FAMILY_ENTRY_EDITS = {
    "ps on a split class": (("ps", 2), ("split", 3), "split s shifted"),
    "cusp on an elliptic class": (("cusp", 2), ("ell", 3), "ell s shifted"),
    "ps on an elliptic class": (("ps", 2), ("ell", 1), "ell term added"),
    "cusp on a split class": (("cusp", 2), ("split", 1), "split term added"),
}


@pytest.mark.parametrize("p, f", [(11, 1), (5, 2)])
@pytest.mark.parametrize("edit", FAMILY_ENTRY_EDITS)
def test_orthogonality_check_rejects_a_wrong_family_entry(p, f, edit):
    # a form edit of the family reaches the entry at this class
    g = PGL2(p, f)
    rep, cls, form_edit = FAMILY_ENTRY_EDITS[edit]
    _edit_form(g, rep, form_edit)
    _assert_entry_changed(g, rep, cls)
    _assert_rejected(g)


@pytest.mark.parametrize("p, f", [(11, 1), (5, 2)])
@pytest.mark.parametrize("family", ["split", "ell"])
def test_orthogonality_check_rejects_a_moved_class_size(p, f, family):
    # classes 1 and 3 have the same parity, so the rows of the four small
    # reps stay orthogonal among themselves and only rows that meet a
    # family can see the move
    g = PGL2(p, f)
    g.class_size = dict(g.class_size)
    g.class_size[(family, 1)] += 1
    g.class_size[(family, 3)] -= 1
    small = [rep for rep in g.reps() if rep[0] not in ("ps", "cusp")]
    for i, r1 in enumerate(small):
        for r2 in small[i:]:
            val = sum(
                g.class_size[c] * g.char_value(r1, c) * g.char_value(r2, c).conj()
                for c in g.classes
            )
            assert val == (g.order if r1 == r2 else 0)
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        g.orthogonality_check()
    with pytest.raises(ConsistencyError, match="row orthogonality"):
        row_orthogonality(g)


SMALL_REPS = [("triv",), ("eta",), ("st",), ("steta",)]


def _move_sizes(g):
    """Class sizes no longer those of the group, with the same split and
    elliptic classes: every row product that meets a family then reads
    them."""
    g.class_size = dict(g.class_size)
    for cls in g.classes:
        if cls[0] in ("split", "ell"):
            g.class_size[cls] += cls[1] * (2 if cls[0] == "split" else 3)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
@pytest.mark.parametrize("moved", [False, True])
def test_small_family_products_match_row_product(p, f, moved):
    # every row product from the forms is 4 times the class-by-class
    # _row_product of the reference table, on the group's class sizes
    # (every product off the diagonal 0) and on moved ones (not all 0)
    g = PGL2(p, f)
    if moved:
        _move_sizes(g)
    kk = g.q**2 - 1
    sizes = [g.class_size[c] for c in g.classes]
    rows = {rep: [reference_char_counter(g, rep, c) for c in g.classes] for rep in g.reps()}
    seen = nonzero = 0
    for r1, r2, val in g._row_products():
        want = _row_product(kk, sizes, rows[r1], rows[r2])
        assert val == 4 * want, (r1, r2)
        seen += 1
        nonzero += r1 != r2 and bool(want)
    n = len(g.reps())
    assert seen == n * (n + 1) // 2
    assert bool(nonzero) == moved


@pytest.mark.parametrize("p, f", [(11, 1), (5, 2)])
@pytest.mark.parametrize("rep", SMALL_REPS)
@pytest.mark.parametrize("cls", [("split", 3), ("ell", 1), ("ell", 4)])
@pytest.mark.parametrize("edit", ["plus one", "irrational", "negated"])
def test_orthogonality_check_rejects_a_wrong_small_entry(p, f, rep, cls, edit):
    # an edit of the form's term on the family of cls (c + 1, s + 1 or
    # -c) reaches the entry at cls, and both checks reject the table
    g = PGL2(p, f)
    change = {"plus one": "c plus one", "irrational": "s shifted", "negated": "c negated"}
    _edit_form(g, rep, f"{cls[0]} {change[edit]}")
    _assert_entry_changed(g, rep, cls)
    _assert_rejected(g)


def test_a_small_row_of_the_wrong_sign_form_reaches_the_row_sums():
    # st with -1 on every split class is still +-1 there, and the row
    # sums must catch it
    g = PGL2(11, 1)
    _edit_form(g, ("st",), "split c negated")
    assert g.char_counter(("st",), ("split", 1)) == {0: -1}
    _assert_rejected(g)


def _classify_each(g, mats):
    out = {}
    for m in mats:
        cls = g.classify(m)
        out[cls] = out.get(cls, 0) + 1
    return out


def _trace_zero_classes_by_det(g, torus):
    """Reference: h k_0 = [[0, a alpha], [1, 0]] and h_0 k have trace zero,
    so each is classified from its determinant alone."""
    t = g.tower
    if torus == "H":
        dets = [t.neg(t.mul(a, g.alpha)) for a in g.q_units()]
    else:
        dets = [t.neg(mat_det(t, k)) for k in g.K]
    out = {}
    for d in dets:
        cls = g.classify_trace_det(None, d)
        out[cls] = out.get(cls, 0) + 1
    return out


@pytest.mark.parametrize("p, f", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_torus_classes_match_per_element_classification(p, f):
    g = PGL2(p, f)
    t = g.tower
    hk0 = [mat_mul(t, h, g.k0) for h in g.H]
    h0k = [mat_mul(t, g.h0, k) for k in g.K]
    assert g.torus_classes("H") == _classify_each(g, g.H)
    assert g.torus_classes("K") == _classify_each(g, g.K)
    assert g.torus_classes("hk0") == _classify_each(g, hk0)
    assert g.torus_classes("h0k") == _classify_each(g, h0k)
    assert g.torus_classes("hk0") == _trace_zero_classes_by_det(g, "H")
    assert g.torus_classes("h0k") == _trace_zero_classes_by_det(g, "K")
    assert g.torus_classes("hk0") is g.torus_classes("hk0")  # built once


@pytest.mark.parametrize("p, f", [(5, 1), (3, 2), (13, 1)])
def test_torus_sum_splits_each_torus_once(p, f):
    g = PGL2(p, f)
    for which in ("H", "K", "hk0", "h0k"):
        for rep in g.reps():
            assert g.torus_sum(rep, which) == g.class_sum(rep, g.torus_classes(which))
        terms = g._torus_terms[which]
        assert terms == g.family_terms(g.torus_classes(which))
        g.torus_sum(("ps", 1) if g.q > 3 else ("cusp", 1), which)
        assert g._torus_terms[which] is terms
    assert PGL2(p, f)._torus_terms == {}  # per group, filled on first use


def _invariant_dims_per_element(g, rep):
    """Reference: classify every torus element for this rep and average."""
    kk = g.q**2 - 1
    dims = []
    for torus in (g.H, g.K):
        total = {}
        for x in torus:
            for e, c in g.char_counter(rep, g.classify(x)).items():
                total[e] = total.get(e, 0) + c
        d = CycNum.from_counter(kk, total).as_rational() / len(torus)
        assert d.denominator == 1
        dims.append(int(d))
    return tuple(dims)


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_invariant_dims_match_per_element_loop(p, f):
    g = PGL2(p, f)
    for rep in g.reps():
        assert g.invariant_dims(rep) == _invariant_dims_per_element(g, rep)


def move_one_count(g, which, family):
    """Move one count of the memo g.torus_classes(which) from its lowest
    class of the family to the neighbouring class. Returns the family's
    rep kind, m = q -+ 1 and the (from, to) indices."""
    ms = g.torus_classes(which)
    src = min(c for c in ms if c[0] == family and ms[c])
    dst = (family, src[1] - 1 if src[1] > 1 else src[1] + 1)
    ms[src] -= 1
    ms[dst] += 1
    kind, m = ("ps", g.q - 1) if family == "split" else ("cusp", g.q + 1)
    return kind, m, src[1], dst[1]


def moved_value_reps(g, kind, m, e, x):
    """The reps of the family whose character differs on classes e and x:
    r e and r x differ up to sign mod m."""
    reps = [rep for rep in g.reps() if rep[0] == kind and rep[1] * (x - e) % m and rep[1] * (x + e) % m]
    assert (kind, 1) in reps
    return reps


@pytest.mark.parametrize("p, f", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
@pytest.mark.parametrize("which, family", [("H", "split"), ("K", "ell")])
def test_invariant_dims_see_a_moved_class_count(p, f, which, family):
    # the family reps are summed by family_sum, which reads the class
    # multiset, so one count moved within the family must still show
    g = PGL2(p, f)
    kind, m, e, x = move_one_count(g, which, family)
    for rep in moved_value_reps(g, kind, m, e, x):
        with pytest.raises(ConsistencyError):
            g.invariant_dims(rep)


def _char_counter_sum(g, rep, ms):
    """Reference: sum of n * chi_rep(cls) over ms, class by class through
    reference_char_counter, reduced at conductor q^2 - 1."""
    total = {}
    for cls, n in ms.items():
        for e, c in reference_char_counter(g, rep, cls).items():
            total[e] = total.get(e, 0) + n * c
    return CycNum.from_counter(g.q**2 - 1, total)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_family_sum_matches_char_counter_sum(p, f, monkeypatch):
    g = PGL2(p, f)
    multisets = [pair_class_counts(g)]
    multisets += [g.torus_classes(which) for which in ("H", "K", "hk0", "h0k")]
    multisets.append({c: n for c, n in g.class_size.items() if c[0] in ("split", "ell")})
    kk = g.q**2 - 1
    for ms in multisets:
        for rep in g.reps():
            want = _char_counter_sum(g, rep, ms)
            got = g.class_sum(rep, ms)
            assert got == want and got.k == want.k
    # the ps and cusp forms hold at every integer s; only the label check
    # keeps s in 1..(q-3)/2, resp. 1..(q-1)/2. Orthogonality reads the
    # family sums at s = r1 +- r2, which include 0, (q -+ 1)/2 and
    # negative s.
    monkeypatch.setattr(g, "check_rep", lambda rep: None)
    for ms in multisets:
        terms = g.family_terms(ms)
        for kind, m in (("ps", g.q - 1), ("cusp", g.q + 1)):
            for s in range(-m, m):
                want = _char_counter_sum(g, (kind, s), ms)
                got = g.family_sum(g.form((kind, s)), terms)
                assert got == want and got.k == want.k
                assert g.family_sum(g.form((kind, s)), terms, den=kk) == want / kk


SMALL_REPS = [("triv",), ("eta",), ("st",), ("steta",)]


def _class_by_class_sum(g, rep, ms):
    """Reference: the small reps' class_sum before it read the form, one
    char_counter per class, reduced at conductor q^2 - 1."""
    total = {}
    for cls, n in ms.items():
        if n:
            for e, c in g.char_counter(rep, cls).items():
                total[e] = total.get(e, 0) + n * c
    return CycNum.from_counter(g.q**2 - 1, total)


@pytest.mark.parametrize("p, f", ODD_Q_TO_49)
def test_small_rep_sums_match_the_class_by_class_sum(p, f):
    from toric_correlator import corr_constant

    g = PGL2(p, f)
    rng = random.Random(31 * p + f)
    pairs = pair_class_counts(g)
    multisets = [pairs, g.class_size]
    multisets += [g.torus_classes(which) for which in ("H", "K", "hk0", "h0k")]
    multisets.append({c: rng.randrange(-3, 4) for c in g.classes})
    for ms in multisets:
        for rep in SMALL_REPS:
            want = _class_by_class_sum(g, rep, ms)
            got = g.class_sum(rep, ms)
            assert got == want and got.k == want.k, (rep, ms)
    for rep in SMALL_REPS:
        for which in ("H", "K", "hk0", "h0k"):
            assert g.torus_sum(rep, which) == _class_by_class_sum(g, rep, g.torus_classes(which))
        assert corr_constant(g, rep) == _class_by_class_sum(g, rep, pairs) / (g.q**2 - 1)


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


def test_group_beyond_the_table_cap_is_rejected(monkeypatch):
    # q^2 = 1031^2 = 1,062,961 > 2^20: the size check fires before any
    # modulus search or table build
    from toric_correlator import fields

    def no_tables(*_args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(fields.gfpoly, "first_primitive_modulus", no_tables)
    monkeypatch.setattr(fields.FieldTower, "_build_tables", no_tables)
    with pytest.raises(ValueError, match="exceeds table cap"):
        PGL2(1031, 1)
