"""Base-change descent: classification of twisted characters, the
norm-intertwining operator, and the vanishing sign rule."""

import pytest

from toric_correlator import (
    ConsistencyError,
    CycNum,
    PGL2,
    ShintaniOperator,
    base_change_class,
    corr_constant,
    eligible_exponents,
    theorem_report,
)
from toric_correlator.pgl2 import mat_mul
from toric_correlator.ps_model import INF_KEY, ZERO_KEY, act
from toric_correlator.shintani import (
    CVec,
    lemma_checks,
    lemma_nonsquare_sum,
    lemma_shift_sum,
    norm_map_check,
)
from test_ps_model import as_cyc, ref_diag, ref_u, ref_w, vector_equal


def test_eligible_exponents_frozen():
    assert eligible_exponents(3, 2) == [2]
    assert eligible_exponents(3, 3) == []
    assert eligible_exponents(3, 4) == [20]
    assert eligible_exponents(5, 2) == [4, 8]
    assert eligible_exponents(7, 2) == [6, 12, 18]


def test_classification_f9():
    # j q = j mod (Q - 1) marks descent from a split-torus character
    bc = base_change_class(3, 2, 4)
    assert bc.kind == "split" and bc.base_exponent == 1
    # j q = -j marks descent from a nonsplit character
    bc = base_change_class(3, 2, 2)
    assert bc.kind == "cusp" and bc.base_label == ("cusp", 1)
    assert bc.epsilon_tau() == 1
    # the trivial exponent is split
    assert base_change_class(3, 2, 0).kind == "split"
    # generic exponents are not base changes at all
    assert base_change_class(17, 2, 24).kind == "none"


def test_classification_epsilon_tau_signs():
    assert base_change_class(5, 2, 4).epsilon_tau() == 1  # cusp r_tau = 1
    assert base_change_class(5, 2, 8).epsilon_tau() == -1  # cusp r_tau = 2
    assert base_change_class(5, 2, 6).epsilon_tau() == -1  # split j0 = 1
    assert base_change_class(7, 2, 16).epsilon_tau() == 1  # split j0 = 2


def test_operator_checks_f9(g9):
    for j in (2, 4):
        ShintaniOperator(g9, 3, j).check_all()


def test_operator_checks_f25(g25):
    ShintaniOperator(g25, 5, 4).check_all()


def test_operator_matches_ps_model_action(g9):
    # the operator's generator tables and the cyclotomic model must agree
    g = g9
    op = ShintaniOperator(g, 3, 2)
    m = op.model
    a, a_sigma = g.sub_exp(1), g.sub_exp(3)
    b, b_sigma = g.sub_exp(0), op.sigma(g.sub_exp(0))
    (diag, diag_s), (w, w_s), (u, u_s) = op._generators()[:3]
    for key in m.basis_keys():
        basis = {key: CycNum.rational(1)}
        pairs = [
            (diag[key], ref_diag(m, a, basis)),
            (diag_s[key], ref_diag(m, a_sigma, basis)),
            (w[key], ref_w(m, basis)),
            (w_s[key], ref_w(m, basis)),
            (u[key], ref_u(m, b, basis)),
            (u_s[key], ref_u(m, b_sigma, basis)),
        ]
        for image, want in pairs:
            assert vector_equal(as_cyc(m, image), want)


def test_sign_rule_f9(g9):
    rpt = theorem_report(g9, 3, 2)
    assert rpt.bc.kind == "cusp"
    assert rpt.epsilon_tau == 1
    assert not rpt.sum_vanishes
    assert rpt.sign_rule_ok
    rpt = theorem_report(g9, 3, 4)
    assert rpt.bc.kind == "split"
    assert rpt.epsilon_tau == -1
    assert rpt.sum_vanishes
    assert rpt.sign_rule_ok


def test_sign_rule_f25(g25):
    for j, vanishes in ((4, False), (6, True), (8, True)):
        rpt = theorem_report(g25, 5, j)
        assert rpt.sum_vanishes == vanishes
        assert rpt.sign_rule_ok


def test_vanishing_matches_correlation_constant(g25):
    # ps:4 over F_25 descends with epsilon_tau = -1, so its constant is 0
    bc = base_change_class(5, 2, 8)
    assert bc.base_label is not None
    fold = bc.j if bc.j <= (g25.q - 1) // 2 else g25.q - 1 - bc.j
    assert corr_constant(g25, ("ps", fold)).is_zero()


def test_lemma_shift_sum_cases(g9):
    # eligible exponent: the sum collapses to (-1)^(n-1) q^n
    assert lemma_shift_sum(g9, 2) == CycNum.rational(3)
    # trivial exponent: Q - 2
    assert lemma_shift_sum(g9, 0) == CycNum.rational(g9.q - 2)
    # quadratic exponent: -1
    assert lemma_shift_sum(g9, (g9.q - 1) // 2) == CycNum.rational(-1)


def test_lemma_nonsquare_sum(g9):
    # -1 + (-1)^n q^n with n = 1
    assert lemma_nonsquare_sum(g9, 2) == CycNum.rational(-1 - 3)


def test_lemma_nonsquare_sum_requires_primitive_alpha(g25):
    # closed form -1 + (-1)^n q^n holds for any primitive nonsquare ...
    want = CycNum.rational(-1 - 5)
    for dlog in (1, 5, 7):
        assert lemma_nonsquare_sum(g25, 4, g25.sub_exp(dlog)) == want
    # ... and genuinely fails for a non-primitive one (dlog 3, gcd 3 with 24)
    assert lemma_nonsquare_sum(g25, 4, g25.sub_exp(3)) != want


def test_lemma_checks_all_scales():
    lemma_checks(PGL2(3, 2), 3)
    lemma_checks(PGL2(5, 2), 5)


def test_norm_map_stability(g9, g25):
    norm_map_check(g9, 3)
    norm_map_check(g25, 5)


def test_rejects_non_power_base(g9):
    with pytest.raises(ValueError):
        ShintaniOperator(g9, 4, 2)
    with pytest.raises(ValueError):
        ShintaniOperator(g9, 9, 2)  # ext = 1 is not an extension


@pytest.mark.parametrize("p, f, q_base", [(3, 2, 1), (3, 5, 9)])
def test_rejects_base_that_is_not_a_subfield(p, f, q_base):
    # q_base = 1 is p^0; F_9 is not inside F_243, though 5 // 2 = 2
    g = PGL2(p, f)
    with pytest.raises(ValueError):
        ShintaniOperator(g, q_base, 8)
    with pytest.raises(ValueError):
        theorem_report(g, q_base, 8)
    with pytest.raises(ValueError):
        lemma_checks(g, q_base)
    with pytest.raises(ValueError):
        norm_map_check(g, q_base)


# -- references: Ttilde from field arithmetic, checks on every column -------


def _merge(dst: dict[int, int], src: dict[int, int], shift: int, kk: int):
    for e, c in src.items():
        e2 = (e + shift) % kk
        dst[e2] = dst.get(e2, 0) + c


def cvec_equal(kk: int, v: CVec, w: CVec) -> bool:
    """Counter vectors equal as vectors of cyclotomic numbers, key by key."""
    for key in set(v) | set(w):
        diff = dict(v.get(key, {}))
        for e, c in w.get(key, {}).items():
            diff[e] = diff.get(e, 0) - c
        if any(diff.values()) and not CycNum.from_counter(kk, diff).is_zero():
            return False
    return True


def reference_t_tilde(op: ShintaniOperator, vec: CVec) -> CVec:
    """Ttilde from its defining formula, one field computation per entry."""
    g = op.g
    t = g.tower
    kk = op.kk
    out: CVec = {}
    for key, ctr in vec.items():
        if op.bc.kind == "split":
            _merge(out.setdefault(op.sigma_key(key), {}), ctr, 0, kk)
            continue
        if key == INF_KEY:
            for mu in op.model.finite_keys():
                _merge(out.setdefault(mu, {}), ctr, 0, kk)
            continue
        lam = op.model.lam_of(key)
        _merge(out.setdefault(INF_KEY, {}), ctr, 0, kk)
        for mu_key in op.model.finite_keys():
            if mu_key == key:
                continue
            diff = t.sub(lam, op.model.lam_of(mu_key))
            shift = op.model.chi_exp(t.neg(t.mul(diff, diff)))
            _merge(out.setdefault(op.sigma_key(mu_key), {}), ctr, shift, kk)
    return {k: v for k, v in out.items() if any(v.values())}


def reference_unitarity(op: ShintaniOperator) -> None:
    """Every pair of columns of Ttilde: orthogonal, squared norm t_scale^2."""
    cols = {k: op.t_tilde({k: {0: 1}}) for k in op.model.basis_keys()}
    want_diag = op.t_scale() ** 2
    keys = op.model.basis_keys()
    for i1, k1 in enumerate(keys):
        for k2 in keys[i1:]:
            inner: dict[int, int] = {}
            c1, c2 = cols[k1], cols[k2]
            for key in set(c1) & set(c2):
                for e1, a1 in c1[key].items():
                    for e2, a2 in c2[key].items():
                        e = (e1 - e2) % op.kk
                        inner[e] = inner.get(e, 0) + a1 * a2
            val = CycNum.from_counter(op.kk, inner)
            want = CycNum.rational(want_diag if k1 == k2 else 0)
            if val != want:
                raise ConsistencyError(
                    f"unitarity fails at column pair ({k1}, {k2})"
                )


def reference_t_power(op: ShintaniOperator) -> None:
    """Ttilde^ext = t_scale^ext on every basis vector."""
    want = op.t_scale() ** op.ext
    for key in op.model.basis_keys():
        vec: CVec = {key: {0: 1}}
        for _ in range(op.ext):
            vec = op.t_tilde(vec)
        if not cvec_equal(op.kk, vec, {key: {0: want}}):
            raise ConsistencyError(f"T^ext is not scalar at key {key}")


def reference_effects(op: ShintaniOperator) -> None:
    """Ttilde v_H and Ttilde v_K against the whole expected vectors."""
    g = op.g
    m = op.model
    kk = op.kk
    scale = op.t_scale()
    vh = m.vector_h()
    got = op.t_tilde({k: {e: 1} for k, e in vh.items()})
    want: CVec = {k: {e: scale} for k, e in vh.items()}
    if not cvec_equal(kk, got, want):
        raise ConsistencyError("T does not fix v_H")
    got = op.t_tilde({k: {e: 1} for k, e in m.vector_k().items()})
    if op.bc.kind == "split":
        shift, mult = 0, 1
    else:
        shift, mult = -m.chi_exp(g.alpha), -scale
    vks = m.vector_k(op.sigma(g.alpha))
    want = {k: {(e + shift) % kk: mult} for k, e in vks.items()}
    if not cvec_equal(kk, got, want):
        raise ConsistencyError("T does not map v_K as expected")


def reference_checks(op: ShintaniOperator) -> None:
    reference_unitarity(op)
    reference_t_power(op)
    reference_effects(op)


def _base_change_exponents(q_base: int, ext: int) -> list[int]:
    """Every split j, and the eligible cuspidal j."""
    big = q_base**ext - 1
    split = [j for j in range(big) if base_change_class(q_base, ext, j).kind == "split"]
    return split + eligible_exponents(q_base, ext)


@pytest.mark.parametrize("p, ext", [(3, 2), (5, 2), (3, 3)])
def test_column_checks_agree_with_all_columns(p, ext):
    g = PGL2(p, ext)
    js = _base_change_exponents(p, ext)
    assert js
    for j in js:
        op = ShintaniOperator(g, p, j)
        for key in op.model.basis_keys():
            vec = {key: {0: 1}}
            assert op.t_tilde(vec) == reference_t_tilde(op, vec), (j, key)
        op.check_all()
        reference_checks(op)


def test_perturbed_kernel_entry_is_caught(g25):
    op = ShintaniOperator(g25, 5, 4)
    col = op.columns[ZERO_KEY]
    key = op.sigma_key(3)
    col[key] = (col[key] + 1) % op.kk
    # the coordinate reads rest on intertwining, which catches it first
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.check_all()
    for check in (reference_unitarity, reference_t_power):
        with pytest.raises(ConsistencyError):
            check(op)


def test_rotated_operator_fails_only_t_power(g25):
    # zeta * Ttilde still intertwines and is still unitary; only T^ext
    # = 1 tells it apart
    op = ShintaniOperator(g25, 5, 4)
    for col in op.columns.values():
        for key in col:
            col[key] = (col[key] + 1) % op.kk
    op.intertwining_check()
    op._unitarity_check()
    reference_unitarity(op)
    with pytest.raises(ConsistencyError, match="T\\^ext"):
        op.check_all()
    with pytest.raises(ConsistencyError):
        reference_t_power(op)


def test_column_checks_read_every_entry_they_rely_on(g25):
    # each edit keeps what a few coordinate reads see, so check_all must
    # stop it at intertwining, and the dense references see it too
    # two entries of column 0 swapped: its entry multiset stays, so
    # G[0, 0] and G[inf, 0] still hold and only some G[0, mu] fails
    op = ShintaniOperator(g25, 5, 4)
    col = op.columns[ZERO_KEY]
    a = 0
    b = next(k for k in range(op.kk) if col[k] != col[a])
    col[a], col[b] = col[b], col[a]
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.check_all()
    with pytest.raises(ConsistencyError, match=r"column pair \(-1, \d+\)"):
        reference_unitarity(op)
    # one entry of column inf moved: its norm stays, only G[inf, 0] fails
    op = ShintaniOperator(g25, 5, 4)
    op.columns[INF_KEY][0] = 1
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.check_all()
    with pytest.raises(ConsistencyError, match=r"column pair \(-2, -1\)"):
        reference_unitarity(op)
    # one row's entries swapped between columns 0 and lam: Ttilde^2 e_inf
    # sums every finite column, so it stays, and only column 0 fails
    op = ShintaniOperator(g25, 5, 4)
    cols = op.columns
    row = 0
    lam = next(
        k for k in range(op.kk)
        if row in cols[k] and cols[k][row] != cols[ZERO_KEY][row]
    )
    cols[lam][row], cols[ZERO_KEY][row] = cols[ZERO_KEY][row], cols[lam][row]
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.check_all()
    with pytest.raises(ConsistencyError, match=f"at key {ZERO_KEY}"):
        reference_t_power(op)


def test_negated_operator_fails_only_the_v_h_effect(g25):
    # -Ttilde still intertwines, is unitary and, ext being even, has the
    # right ext-th power; only the effects tell it apart
    op = ShintaniOperator(g25, 5, 4)
    half = op.kk // 2
    for col in op.columns.values():
        for key in col:
            col[key] = (col[key] + half) % op.kk
    op.intertwining_check()
    op._unitarity_check()
    op._t_power_check()
    reference_unitarity(op)
    reference_t_power(op)
    with pytest.raises(ConsistencyError, match="v_H"):
        op.check_all()
    with pytest.raises(ConsistencyError, match="v_H"):
        reference_effects(op)


def test_translations_carry_the_column_checks(g25):
    # Ttilde pi(diag(-1, 1)) still intertwines the torus and w, is unitary
    # and has the right ext-th power; only the translations catch it, and
    # the column-only checks are sound only once they have passed
    op = ShintaniOperator(g25, 5, 4)
    d = op.model.diag(g25.sub_exp(op.kk // 2))
    op.columns = {
        k: {r: (e + d[k][1]) % op.kk for r, e in op.columns[d[k][0]].items()}
        for k in op.columns
    }
    op._unitarity_check()
    op._t_power_check()
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.check_all()


# -- references: the per-entry table and the dict-based intertwining --------


def reference_tabulate(op: ShintaniOperator) -> dict:
    """The columns of Ttilde, one field subtraction, subfield dlog and
    sigma_key per entry."""
    m = op.model
    if op.bc.kind == "split":
        return {key: {op.sigma_key(key): 0} for key in m.basis_keys()}
    g = op.g
    t = g.tower
    w = m.w()
    lams = m.finite_keys()
    cols = {INF_KEY: dict.fromkeys(lams, 0)}
    for key in lams:
        lam = m.lam_of(key)
        col = {INF_KEY: 0}
        for mu_key in lams:
            if mu_key != key:
                diff = t.sub(lam, m.lam_of(mu_key))
                col[op.sigma_key(mu_key)] = w[g.sub_dlog(diff)][1]
        cols[key] = col
    return cols


def reference_generators(op: ShintaniOperator) -> list:
    """The 2 + f generator pairs: diag(gamma, 1), w and the translations
    u_b for the F_p-basis b = gamma^0 .. gamma^(f-1) of E."""
    g = op.g
    m = op.model
    w = m.w()
    gens = [
        (m.diag(g.sub_exp(1)), m.diag(g.sub_exp(op.q_base % op.kk))),
        (w, w),
    ]
    for i in range(g.f):
        b = g.sub_exp(i % op.kk)
        gens.append((m.u(b), m.u(op.sigma(b))))
    return gens


def reference_intertwining(op: ShintaniOperator) -> None:
    """T pi(g) = pi(g^sigma) T compared as key -> exponent dicts, on the
    2 + f reference generators and every basis key."""
    kk = op.kk
    cols = op.columns
    for gen, gen_s in reference_generators(op):
        for key in op.model.basis_keys():
            nk, shift = gen[key]
            lhs = {k: (e + shift) % kk for k, e in cols[nk].items()}
            if lhs != act(gen_s, cols[key], kk):
                raise ConsistencyError(f"intertwining fails at basis key {key}")


# every eligible j of the five extension pairs the checks run on
PAIRS = [(3, 3, 2, 2), (5, 5, 2, 2), (7, 7, 2, 2), (9, 3, 4, 2), (3, 3, 4, 4)]
ELIGIBLE = [
    (q_base, p, f, j)
    for q_base, p, f, ext in PAIRS
    for j in eligible_exponents(q_base, ext)
]


@pytest.mark.parametrize("q_base, p, f, j", ELIGIBLE)
def test_tables_and_intertwining_match_references(q_base, p, f, j):
    op = ShintaniOperator(PGL2(p, f), q_base, j)
    assert op.bc.kind == "cusp"
    want = reference_tabulate(op)
    assert op.columns == want
    # the same order of keys within each column, too
    assert all(list(op.columns[k]) == list(want[k]) for k in want)
    # the three generators open the 2 + f of the reference list, and the
    # operator passes on all of them
    assert op._generators() == reference_generators(op)[:3]
    op.intertwining_check()
    reference_intertwining(op)


def _projective(t, mat):
    """mat scaled so that its first nonzero entry is 1."""
    lead = next(x for x in mat if x is not None)
    return tuple(t.div(x, lead) if x is not None else None for x in mat)


def test_three_generators_give_all_of_pgl2_q9(g9):
    # brute-force closure of diag(gamma, 1), w and u_1 in PGL2(F_9), each
    # matched against the model table that _generators uses for it
    g = g9
    t = g.tower
    one = t.one
    op = ShintaniOperator(g, 3, 2)
    m = op.model
    mats = [(g.sub_exp(1), None, None, one), (None, one, one, None), (one, one, None, one)]
    for mat, (gen, _) in zip(mats, op._generators()):
        assert m.apply(mat) == gen
    seen = {_projective(t, (one, None, None, one))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for mat in mats:
                y = _projective(t, mat_mul(t, x, mat))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == g.q**3 - g.q == g.order


@pytest.mark.parametrize("q_base, p, f, j", ELIGIBLE)
def test_coordinate_reads_agree_with_dense_references(q_base, p, f, j):
    op = ShintaniOperator(PGL2(p, f), q_base, j)
    op.check_all()
    reference_checks(op)
    # the v_K read assumes v_K(alpha^sigma) fixed by sigma(K(alpha))
    g = op.g
    m = op.model
    vks = m.vector_k(op.sigma(g.alpha))
    for k in g.K:
        k_sigma = tuple(op.sigma(x) for x in k)
        assert act(m.apply(k_sigma), vks, op.kk) == vks


@pytest.mark.parametrize("p, ext", [(3, 2), (5, 2)])
def test_split_tables_match_reference(p, ext):
    g = PGL2(p, ext)
    for j in _base_change_exponents(p, ext):
        op = ShintaniOperator(g, p, j)
        assert op.columns == reference_tabulate(op)
        op.intertwining_check()
        reference_intertwining(op)


COLUMN_EDITS = ["shift an entry", "drop an entry", "add an entry"]


@pytest.mark.parametrize("q_base, p, f, j", [(5, 5, 2, 4), (7, 7, 2, 18), (9, 3, 4, 16)])
@pytest.mark.parametrize("column", [INF_KEY, ZERO_KEY, 0, 5])
@pytest.mark.parametrize("edit", COLUMN_EDITS)
def test_one_changed_column_entry_fails_intertwining(q_base, p, f, j, column, edit):
    op = ShintaniOperator(PGL2(p, f), q_base, j)
    col = op.columns[column]
    if edit == "add an entry":
        # each column has exactly one zero among the basis keys
        (key,) = set(op.model.basis_keys()) - set(col)
        col[key] = 0
    else:
        key = next(k for k in col if k != INF_KEY)
        if edit == "drop an entry":
            del col[key]
        else:
            col[key] = (col[key] + 1) % op.kk
    with pytest.raises(ConsistencyError, match="intertwining"):
        op.intertwining_check()
    with pytest.raises(ConsistencyError, match="intertwining"):
        reference_intertwining(op)


def test_a_column_key_outside_the_basis_is_caught(g25):
    op = ShintaniOperator(g25, 5, 4)
    op.columns[ZERO_KEY][op.kk] = 0
    with pytest.raises(ConsistencyError, match="outside the basis"):
        op.intertwining_check()


def test_a_twisted_generator_that_is_not_a_permutation_is_caught(g25):
    op = ShintaniOperator(g25, 5, 4)
    gens = op._generators()
    gen, gen_s = gens[0]
    gen_s = dict(gen_s)
    gen_s[ZERO_KEY] = gen_s[INF_KEY]  # two keys sent to one image
    op._generators = lambda: [(gen, gen_s)] + gens[1:]
    with pytest.raises(ConsistencyError, match="not a permutation"):
        op.intertwining_check()


@pytest.fixture(scope="module")
def g81():
    return PGL2(3, 4)


@pytest.mark.parametrize("j", eligible_exponents(9, 2))
def test_operator_checks_9_to_81(g81, j):
    ShintaniOperator(g81, 9, j).check_all()
