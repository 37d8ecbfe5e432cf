"""Base change along F_q -> E = F_(q^ext) and the twisted intertwiner.

A principal series Ps(chi^j) of PGL2(E) is a base change exactly when the
character chi^j of E^* is fixed up to inversion by the relative Frobenius
sigma (x -> x^q):

    split base change   chi^sigma = chi         (chi = chi_0 o Norm)
    cusp base change    chi^sigma = chi^(-1)    (ext even; chi factors
                                                 through the norm to the
                                                 quadratic subextension)

In the split case the descended datum is the character exponent j_0 over
F_q; in the cusp case it is a cuspidal label r_tau of PGL2(F_q). The sign
attached to the descended datum,

    eps_tau = (-1)^(j_0)  or  (-1)^(r_tau - 1),

controls the correlation constant over E: eps_tau = -1 forces the model
sum S = sum over lam of chi(alpha/lam - lam) to vanish, hence the
correlation constant of Ps(chi^j) over E vanishes. This is how extension
fields acquire vanishing correlations whose own epsilon invariant is +1.

The operator realizing sigma on the induced model is

    split:  T f(inf) = f(inf),  T f_lam = f_(lam^sigma)
    cusp:   T = ((-1)^(n-1) / q^n) Ttilde  for ext = 2n, where
            Ttilde f(inf) = sum over mu of f_mu
            Ttilde f_lam  = f(inf) + sum over mu != lam of
                            chi(-(lam - mu)^2) f_(mu^sigma)

T is checked to intertwine (T pi(g) = pi(g^sigma) T on three generators),
to be unitary, to satisfy T^ext = 1, to fix v_H, and to send v_K to the
conjugate-torus vector for alpha^sigma (scaled by -chi(1/alpha) in the
cusp case). Every entry of Ttilde is 0 or a root of unity, so its q + 2
columns are tabulated once per operator as key -> zeta exponent. Each
column is built in one pass over lists made once per operator (the
elements lam of the finite keys and their negatives, the sigma-keys, and
the exponents of w by subfield dlog), so an entry costs one field
addition and one list lookup. Intertwining reads the columns as lists
indexed by basis position, with None for a zero entry, and inverts each
twisted generator once into (source position, shift) per position, so
each (generator, key) test compares two lists.

check_all checks intertwining first, on every basis column and on the
generators diag(gamma, 1), w and u_1 of PGL2(E), so Ttilde pi(g) =
pi(g^sigma) Ttilde then holds for every g. The other checks rest on it
and read at most four coordinates each. Ttilde^ext (sigma^ext fixes E) and Ttilde* Ttilde (pi
is unitary) commute with pi, so each is decided by its image of e_inf,
as every basis vector is pi(g) e_inf for g = 1, w or u(-lam) w. That
image is fixed by the translations, hence c e_inf + d sum of the f_lam,
read at inf and 0. Ttilde v_H is H-fixed and Ttilde v_K(alpha) is
K(alpha^sigma)-fixed, so each is decided at orbit representatives: inf,
0 and lam = 1 for H, inf alone for K, which acts simply transitively on
P^1(E). Nothing here needs pi irreducible, so every base-change j, the
trivial and quadratic ones included, is checked the same way.

The operator acts on the induced model of ps_model.py, the one PsModel
uses: the keys, the monomial generator tables and the vectors v_H and
v_K (one zeta exponent per key) all come from it. The powers of Ttilde
are sums, carried as counter vectors key -> {exponent of zeta mod Q - 1:
integer}, and each coordinate read is one counter that
CycNum.from_counter turns into a number, so every check is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .chars import AddChar, MulChar, gauss_sum
from .cyclo import CycNum
from .fields import ConsistencyError, FqElem
from .pgl2 import PGL2, Label, Mat, mat_det, mat_mul
from .ps_model import (
    INF_KEY,
    ZERO_KEY,
    InducedModel,
    MonoMap,
    MVec,
    inner_counter,
    model_sum,
)

# key -> (zeta exponent -> integer coefficient), for the powers of Ttilde
CVec = dict[int, dict[int, int]]


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class BaseChangeClass:
    kind: str  # "split" | "cusp" | "none"
    q_base: int
    ext: int
    j: int
    base_exponent: int | None  # j_0 mod q_base - 1 (split only)
    base_label: Label | None  # irreducible descended label, if any
    regular: bool  # chi differs from its conjugate over E

    def epsilon_tau(self) -> int | None:
        if self.kind == "split":
            return -1 if self.base_exponent % 2 else 1
        if self.kind == "cusp":
            return -1 if (self.base_label[1] - 1) % 2 else 1
        return None


def base_change_class(q_base: int, ext: int, j: int) -> BaseChangeClass:
    """Classify chi^j on F_(q_base^ext) against the relative Frobenius."""
    if ext < 2:
        raise ValueError("base change needs a proper extension")
    big = q_base**ext - 1
    j %= big
    regular = j != 0 and 2 * j % big != 0
    if j * q_base % big == j:
        cof = big // (q_base - 1)
        j0 = j // cof % (q_base - 1)
        fold = min(j0, q_base - 1 - j0)
        label: Label | None = None
        if regular and 1 <= fold <= (q_base - 3) // 2:
            label = ("ps", fold)
        return BaseChangeClass("split", q_base, ext, j, j0, label, regular)
    if ext % 2 == 0 and j * q_base % big == -j % big:
        nn = big // (q_base**2 - 1)
        rr = j // nn // (q_base - 1) % (q_base + 1)
        r_tau = min(rr, q_base + 1 - rr)
        return BaseChangeClass(
            "cusp", q_base, ext, j, None, ("cusp", r_tau), regular
        )
    return BaseChangeClass("none", q_base, ext, j, None, None, regular)


def eligible_exponents(q_base: int, ext: int) -> list[int]:
    """The regular j with chi^sigma = chi^(-1), folded modulo inversion."""
    big = q_base**ext - 1
    out = []
    for j in range(1, big // 2 + (big % 2)):
        if 2 * j % big and j * q_base % big == -j % big:
            out.append(j)
    return out


# -- the intertwiner ---------------------------------------------------------


class ShintaniOperator:
    """The sigma-twisted intertwiner on the induced model of chi^j.

    Every entry of Ttilde is 0 or a root of unity, so its q + 2 columns are
    tabulated once, as key -> zeta exponent, and every check reads them.
    A column costs one pass over lists kept for the whole table: one field
    addition lam + (-mu) and one lookup of the w exponent per entry.
    intertwining_check reads the same columns as position-indexed lists
    and checks every basis key against every generator. The other checks
    rest on it and read only the few coordinates that equivariance leaves
    free (see the module docstring).
    """

    def __init__(self, g: PGL2, q_base: int, j: int):
        f0 = _log(q_base, g.p, g.f)
        self.g = g
        self.q_base = q_base
        self.f0 = f0
        self.ext = g.f // f0
        self.model = InducedModel(g, j)
        self.kk = self.model.kk
        self.bc = base_change_class(q_base, self.ext, j)
        if self.bc.kind == "none":
            raise ValueError(f"chi^{j} is not a base change from F_{q_base}")
        self.n = self.ext // 2 if self.bc.kind == "cusp" else None
        self.columns = self._tabulate()

    # sigma on field elements and on basis keys
    def sigma(self, x: FqElem) -> FqElem:
        return self.g.tower.frobenius(x, self.f0)

    def sigma_key(self, key: int) -> int:
        if key in (INF_KEY, ZERO_KEY):
            return key
        return key * self.q_base % self.kk

    # integer-rescaled T: equal to T in the split case and to
    # (-1)^(n-1) q^n T in the cusp case
    def t_scale(self) -> int:
        if self.bc.kind == "split":
            return 1
        return (-1) ** (self.n - 1) * self.q_base**self.n

    def _tabulate(self) -> dict[int, MVec]:
        """The columns of Ttilde: basis key -> (key -> zeta exponent)."""
        m = self.model
        if self.bc.kind == "split":
            return {key: {self.sigma_key(key): 0} for key in m.basis_keys()}
        g = self.g
        add = g.tower.add
        cof = g.cof
        # chi(-(lam - mu)^2) depends on lam - mu alone: it is the exponent
        # that w gives the key of lam - mu, listed by subfield dlog, so each
        # of the q^2 entries is one addition lam + (-mu) and one lookup
        w = m.w()
        wexp = [w[key][1] for key in range(self.kk)]
        lams = m.finite_keys()
        elems = [m.lam_of(key) for key in lams]
        negs = [g.tower.neg(lam) for lam in elems]
        skeys = [self.sigma_key(key) for key in lams]
        cols = {INF_KEY: dict.fromkeys(lams, 0)}
        for i, (key, lam) in enumerate(zip(lams, elems)):
            col = {INF_KEY: 0}
            col.update(zip(
                skeys[:i] + skeys[i + 1:],
                [wexp[add(lam, nm) // cof] for nm in negs[:i] + negs[i + 1:]],
            ))
            cols[key] = col
        return cols

    def t_tilde(self, vec: CVec) -> CVec:
        kk = self.kk
        out: CVec = {}
        for key, ctr in vec.items():
            terms = list(ctr.items())
            for k, e in self.columns[key].items():
                dst = out.setdefault(k, {})
                for e0, c in terms:
                    x = (e0 + e) % kk
                    dst[x] = dst.get(x, 0) + c
        return {k: v for k, v in out.items() if any(v.values())}

    # -- invariant checks ---------------------------------------------------

    def _generators(self) -> list[tuple[MonoMap, MonoMap]]:
        """(action, sigma-twisted action) pairs for diag(gamma, 1), w and
        u_1, as the model's monomial tables. These three generate PGL2(E).

        The g with Ttilde pi(g) = pi(g^sigma) Ttilde form a subgroup, as
        g -> g^sigma is an automorphism: if g and h pass, then
        Ttilde pi(g h) = pi(g^sigma) Ttilde pi(h) = pi((g h)^sigma) Ttilde,
        and a finite set closed under products is a group. So passing on
        generators is passing on the whole group. diag(gamma, 1)^i u_1
        diag(gamma, 1)^-i = u_(gamma^i), and the gamma^i run over E^*, so
        diag(gamma, 1) and u_1 give every translation u_b, and with them
        the upper triangular group B modulo the centre. The Bruhat
        decomposition PGL2(E) = B + B w B then makes w the last generator.
        """
        g = self.g
        m = self.model
        w = m.w()
        u1 = m.u(g.tower.one)  # sigma fixes u_1 and w
        return [
            (m.diag(g.sub_exp(1)), m.diag(g.sub_exp(self.q_base % self.kk))),
            (w, w),
            (u1, u1),
        ]

    def intertwining_check(self) -> None:
        """T pi(g) = pi(g^sigma) T on every basis vector and generator,
        raise on failure.

        Each side is one root of unity per key, and zeta^a = zeta^b only
        for a = b mod Q - 1, so comparing exponents is exact. The columns
        are read as lists indexed by basis position, None for a zero
        entry. pi(g) e_key = zeta^shift e_nk makes the left side column nk
        shifted by shift; each twisted generator is inverted once into
        (source position, shift) per target position, which gives the
        right side as one pass over column key.
        """
        kk = self.kk
        keys = self.model.basis_keys()
        pos = {key: i for i, key in enumerate(keys)}
        cols = {}
        for key, col in self.columns.items():
            if not col.keys() <= pos.keys():
                raise ConsistencyError(f"column {key} has a key outside the basis")
            cols[key] = [col.get(k) for k in keys]
        for gen, gen_s in self._generators():
            inv: list = [None] * len(keys)
            for k, (nk, shift) in gen_s.items():
                inv[pos[nk]] = (pos[k], shift)
            if None in inv:
                raise ConsistencyError("a twisted generator is not a permutation")
            for key in keys:
                nk, shift = gen[key]
                col = cols[key]
                lhs = [e if e is None else (e + shift) % kk for e in cols[nk]]
                rhs = [
                    e if (e := col[i]) is None else (e + sh) % kk
                    for i, sh in inv
                ]
                if lhs != rhs:
                    raise ConsistencyError(
                        f"intertwining fails at basis key {key}"
                    )

    def _unitarity_check(self) -> None:
        """Ttilde* Ttilde = t_scale^2. Sound only after intertwining: this
        Gram matrix G commutes with pi, so G[inf, inf] and G[0, inf], two
        inner products of columns, decide it."""
        kk = self.kk
        cols = self.columns
        for key, want in ((INF_KEY, self.t_scale() ** 2), (ZERO_KEY, 0)):
            val = CycNum.from_counter(kk, inner_counter(cols[INF_KEY], cols[key], kk))
            if val != CycNum.rational(want):
                raise ConsistencyError(
                    f"unitarity fails at column pair ({INF_KEY}, {key})"
                )

    def _t_power_check(self) -> None:
        """T^ext = 1, that is Ttilde^ext = t_scale^ext. Sound only after
        intertwining: Ttilde^ext commutes with pi, so the coordinates of
        Ttilde^ext e_inf at inf and 0 decide it."""
        vec: CVec = {INF_KEY: {0: 1}}
        for _ in range(self.ext - 1):
            vec = self.t_tilde(vec)
        want = {
            INF_KEY: CycNum.rational(self.t_scale() ** self.ext),
            ZERO_KEY: CycNum.rational(0),
        }
        self._read(vec, want, "T^ext is not scalar")

    def _effects_check(self) -> None:
        """T v_H = v_H; T v_K = v_K(alpha^sigma), times -chi(1/alpha) in
        the cusp case. Raises on failure.

        Sound only after intertwining. Ttilde v_H is H-fixed, as H is
        sigma-stable, and (q - 1) v_H reads 0, 0 and 1 at inf, 0 and
        lam = 1. Ttilde v_K(alpha) is fixed by sigma(K(alpha)) =
        K(alpha^sigma), which acts simply transitively on P^1(E), so its
        fixed vectors form one line. v_K(alpha') is
        the K(alpha')-average of f for every nonsquare alpha' (the formula
        of ps_model holds for each), so that line is spanned by
        v_K(alpha^sigma), and since every v_K(alpha') reads 1 at inf, the
        coordinate at inf is the scalar.
        """
        m = self.model
        scale = self.t_scale()
        zero = CycNum.rational(0)
        vh = {k: {e: 1} for k, e in m.vector_h().items()}
        want = {INF_KEY: zero, ZERO_KEY: zero, 0: CycNum.rational(scale)}
        self._read(vh, want, "T does not fix v_H")
        vk = {k: {e: 1} for k, e in m.vector_k().items()}
        mult = CycNum.rational(1)
        if self.bc.kind == "cusp":
            mult = CycNum.zeta(self.kk, -m.chi_exp(self.g.alpha)) * -scale
        self._read(vk, {INF_KEY: mult}, "T does not map v_K as expected")

    def _read(self, vec: CVec, want: dict[int, CycNum], failure: str) -> None:
        """(Ttilde vec)[key] = want[key] for each key of want, each read
        from row key of Ttilde; raise ConsistencyError on a mismatch."""
        kk = self.kk
        for key, val in want.items():
            ctr: dict[int, int] = {}
            for k, terms in vec.items():
                e = self.columns[k].get(key)
                if e is not None:
                    for e0, c in terms.items():
                        x = (e0 + e) % kk
                        ctr[x] = ctr.get(x, 0) + c
            if CycNum.from_counter(kk, ctr) != val:
                raise ConsistencyError(f"{failure} at key {key}")

    def check_all(self) -> None:
        """Intertwining on every basis vector and generator; then, resting
        on it, unitarity, T^ext = 1 and the effects on v_H and v_K, each
        read from at most four coordinates. Raises ConsistencyError on any
        failure."""
        self.intertwining_check()
        self._unitarity_check()
        self._t_power_check()
        self._effects_check()


# -- the vanishing theorem ---------------------------------------------------


@dataclass
class BaseChangeReport:
    bc: BaseChangeClass
    epsilon_tau: int
    sum_vanishes: bool
    constant: CycNum | None  # correlation constant over E, when irreducible
    sign_rule_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.bc.kind,
            "q_base": self.bc.q_base,
            "ext": self.bc.ext,
            "j": self.bc.j,
            "base_exponent": self.bc.base_exponent,
            "base_label": list(self.bc.base_label) if self.bc.base_label else None,
            "epsilon_tau": self.epsilon_tau,
            "sum_vanishes": self.sum_vanishes,
            "constant": None if self.constant is None else self.constant.to_json_dict(),
            "sign_rule_ok": self.sign_rule_ok,
        }


def theorem_report(g: PGL2, q_base: int, j: int) -> BaseChangeReport:
    """Evaluate the descent sign rule for one base-change character.

    eps_tau = -1 must force S = 0 (hence a vanishing correlation constant
    over E); the correlation constant itself is computed when chi^j is
    regular so the principal series is irreducible.
    """
    from .correlation import corr_constant

    big = g.q - 1
    bc = base_change_class(q_base, g.f // _log(q_base, g.p, g.f), j)
    eps = bc.epsilon_tau()
    if eps is None:
        raise ValueError(f"chi^{j} is not a base change from F_{q_base}")
    s = model_sum(g, j)
    vanishes = s.is_zero()
    const = None
    if bc.regular:
        fold = min(j % big, (big - j) % big)
        const = corr_constant(g, ("ps", fold))
        if const.is_zero() != vanishes:
            raise ConsistencyError("model sum and correlation constant disagree")
    ok = vanishes if eps == -1 else not vanishes
    return BaseChangeReport(bc, eps, vanishes, const, ok)


def _log(q_base: int, p: int, f: int) -> int:
    """The degree f0 >= 1 with q_base = p^f0, so that F_(q_base) is a
    subfield of F_(p^f); raises ValueError unless f0 exists and divides f."""
    f0 = 0
    qq = 1
    while qq < q_base:
        qq *= p
        f0 += 1
    if f0 == 0 or qq != q_base:
        raise ValueError(f"{q_base} is not a positive power of {p}")
    if f % f0:
        raise ValueError(f"{q_base} is not a subfield size of F_{p**f}")
    return f0


# -- auxiliary character sums ------------------------------------------------


def lemma_shift_sum(g: PGL2, j: int) -> CycNum:
    """Sum over lam != 0, 1 in E of chi^j((lam - 1)^2 / lam)."""
    t = g.tower
    kk = g.q - 1
    counter: dict[int, int] = {}
    one = t.one
    for e in range(kk):
        lam = g.sub_exp(e)
        if lam == one:
            continue
        num = t.sub(lam, one)
        arg = t.div(t.mul(num, num), lam)
        ee = j * g.sub_dlog(arg) % kk
        counter[ee] = counter.get(ee, 0) + 1
    return CycNum.from_counter(kk, counter)


def lemma_nonsquare_sum(g: PGL2, j: int, alpha: FqElem | None = None) -> CycNum:
    """Sum over i of chi^j(1 - alpha^(2i - 1)) for i = 1 .. |E| - 1.

    alpha must be a generator of E^* (a primitive nonsquare): the odd
    powers alpha^(2i - 1) then sweep the nonsquares uniformly, which the
    closed form requires. Defaults to the canonical generator.
    """
    t = g.tower
    kk = g.q - 1
    alpha = g.sub_exp(1) if alpha is None else alpha
    counter: dict[int, int] = {}
    for i in range(1, g.q):
        arg = t.sub(t.one, t.power(alpha, 2 * i - 1))
        ee = j * g.sub_dlog(arg) % kk
        counter[ee] = counter.get(ee, 0) + 1
    return CycNum.from_counter(kk, counter)


def lemma_checks(g: PGL2, q_base: int) -> None:
    """The two character-sum lemmas and the Gauss-sum sign, for every
    eligible chi over E = F_(q_base^(2n)); raises on any failure."""
    ext = g.f // _log(q_base, g.p, g.f)
    if ext % 2:
        raise ValueError("the lemmas require an even-degree extension")
    n = ext // 2
    big = g.q - 1
    # the shift sum and the Gauss sum share one value
    want = CycNum.rational((-1) ** (n - 1) * q_base**n)
    # degenerate diagnostics: the trivial and quadratic characters
    if lemma_shift_sum(g, 0) != CycNum.rational(g.q - 2):
        raise ConsistencyError("trivial-character shift sum is off")
    if lemma_shift_sum(g, big // 2) != CycNum.rational(-1):
        raise ConsistencyError("quadratic-character shift sum is off")
    psi = AddChar(g.f, g.tower.one)
    for j in eligible_exponents(q_base, ext):
        if lemma_shift_sum(g, j) != want:
            raise ConsistencyError(f"shift sum fails at j = {j}")
        if lemma_nonsquare_sum(g, j) != CycNum.rational(-1 + (-1) ** n * q_base**n):
            raise ConsistencyError(f"nonsquare sum fails at j = {j}")
        if gauss_sum(g.tower, MulChar(big, 2 * j), psi) != want:
            raise ConsistencyError(f"Gauss sign fails at j = {j}")


def norm_map_check(g: PGL2, q_base: int) -> None:
    """tr^2/det of the sigma-norm of a matrix over E lies in F_(q_base),
    for 50 random invertible matrices from a fixed seed."""
    t = g.tower
    f0 = _log(q_base, g.p, g.f)
    ext = g.f // f0
    rng = random.Random(0)
    checked = 0
    while checked < 50:
        mat: Mat = tuple(
            None if rng.randrange(g.q) == 0 else g.sub_exp(rng.randrange(g.q - 1))
            for _ in range(4)
        )
        if mat_det(t, mat) is None:
            continue
        prod = mat
        for k in range(1, ext):
            twisted: Mat = tuple(t.frobenius(x, f0 * k) for x in mat)
            prod = mat_mul(t, prod, twisted)
        tr = t.add(prod[0], prod[3])
        val = None
        if tr is not None:
            val = t.div(t.mul(tr, tr), mat_det(t, prod))
        if val is not None and not t.in_subfield(f0, val):
            raise ConsistencyError("norm of a matrix has unstable invariants")
        checked += 1
