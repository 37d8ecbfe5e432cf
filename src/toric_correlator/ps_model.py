"""The induced model of a principal series, as monomial tables.

The induced representation of chi^j (chi the canonical character of
F_q^*, j any exponent) has the q + 1 basis vectors

    key -2        f       (the function supported at infinity)
    key -1        f_0     (lambda = 0)
    key e >= 0    f_lam   (lambda the e-th power of the F_q generator)

and the generators act by

    diag(a, 1):  f -> chi(a) f,   f_lam -> chi^(-1)(a) f_{a lam}
    u(b):        f -> f,          f_lam -> f_{lam - b}
    w:           f -> f_0,        f_0 -> f,  f_lam -> chi(-lam^2) f_{1/lam}

Each sends a basis vector to a root of unity times a basis vector, so it
is a monomial table key -> (image key, exponent of zeta_(q-1)), and a
general matrix gets its table by composing the tables of its Bruhat
factorization. The standard inner product (orthonormal f-basis) is
invariant.

Scaled by |H| = q - 1 and |K| = q + 1, the H-fixed and K-fixed vectors
are one root of unity per key too, so they are tables key -> exponent:

    (q - 1) v_H       = sum over lam != 0 of chi^(-1)(lam) f_lam
    (q + 1) v_K(a')   = f + sum over lam of chi^(-1)(a' - lam^2) f_lam

for a nonsquare a' (the torus K_a'). Since zeta^a = zeta^b only for
a = b mod q - 1, a vector is fixed exactly when its table is unchanged,
an exact comparison of integers. The inner product of two such vectors
is a counter (exponent -> multiplicity) that one CycNum.from_counter
turns into a number, and (q^2 - 1) <v_H, v_K> collapses to the
character sum

    S = sum over lam != 0 of chi(alpha/lam - lam),

so the normalized squared correlation is |S|^2 / (q^2 - 1).

PsModel is this model for an irreducible Ps(chi^r), with the checks of
these facts; the Shintani operator of shintani.py acts on the same model
for any base-change exponent.
"""

from __future__ import annotations

from .cyclo import CycNum
from .fields import ConsistencyError, FqElem
from .pgl2 import PGL2, Mat, mat_det

INF_KEY = -2
ZERO_KEY = -1

# key -> zeta exponent: one root of unity per key
MVec = dict[int, int]
# key -> (image key, zeta exponent): a monomial matrix, as a group action
MonoMap = dict[int, tuple[int, int]]


class InducedModel:
    """The induced representation of chi^j on PGL2(F_q), for any j."""

    def __init__(self, g: PGL2, j: int):
        self.g = g
        self.kk = g.q - 1
        self.j = j % self.kk

    # -- keys ---------------------------------------------------------------

    def key_of(self, lam: FqElem) -> int:
        return ZERO_KEY if lam is None else self.g.sub_dlog(lam)

    def lam_of(self, key: int) -> FqElem:
        return None if key == ZERO_KEY else self.g.sub_exp(key)

    def finite_keys(self) -> list[int]:
        """The keys of the f_lam, lam = 0 first."""
        return [ZERO_KEY] + list(range(self.kk))

    def basis_keys(self) -> list[int]:
        return [INF_KEY] + self.finite_keys()

    def chi_exp(self, x: FqElem) -> int:
        """Exponent of chi^j at a nonzero element of F_q."""
        return self.j * self.g.sub_dlog(x) % self.kk

    # -- generator tables -----------------------------------------------------

    def diag(self, a: FqElem) -> MonoMap:
        kk = self.kk
        ea = self.chi_exp(a)
        da = self.g.sub_dlog(a)
        out = {INF_KEY: (INF_KEY, ea), ZERO_KEY: (ZERO_KEY, -ea % kk)}
        for key in range(kk):
            out[key] = ((key + da) % kk, -ea % kk)
        return out

    def u(self, b: FqElem) -> MonoMap:
        t = self.g.tower
        out = {INF_KEY: (INF_KEY, 0)}
        for key in self.finite_keys():
            out[key] = (self.key_of(t.sub(self.lam_of(key), b)), 0)
        return out

    def w(self) -> MonoMap:
        t = self.g.tower
        kk = self.kk
        out = {INF_KEY: (ZERO_KEY, 0), ZERO_KEY: (INF_KEY, 0)}
        for key in range(kk):
            lam = self.g.sub_exp(key)
            out[key] = (-key % kk, self.chi_exp(t.neg(t.mul(lam, lam))))
        return out

    def apply(self, mat: Mat) -> MonoMap:
        """The table of a matrix over F_q, from its Bruhat factorization."""
        t = self.g.tower
        kk = self.kk
        a, b, c, d = mat
        if c is None:
            # g = u(b/d) diag(a/d, 1)
            out = self.diag(t.div(a, d))
            if b is not None:
                out = compose(self.u(t.div(b, d)), out, kk)
            return out
        e = t.neg(t.div(mat_det(t, mat), c))
        # g = u(a/c) w u(d/e) diag(c/e, 1), applied rightmost-first
        out = self.diag(t.div(c, e))
        if d is not None:
            out = compose(self.u(t.div(d, e)), out, kk)
        out = compose(self.w(), out, kk)
        if a is not None:
            out = compose(self.u(t.div(a, c)), out, kk)
        return out

    # -- torus-fixed vectors ---------------------------------------------------

    def vector_h(self) -> MVec:
        """(q - 1) v_H, fixed by every diag(a, 1)."""
        return {e: -self.j * e % self.kk for e in range(self.kk)}

    def vector_k(self, alpha: FqElem | None = None) -> MVec:
        """(q + 1) v_K(alpha'), fixed by the torus of the nonsquare
        alpha' (default: the group's alpha)."""
        g = self.g
        t = g.tower
        alpha = g.alpha if alpha is None else alpha
        out = {INF_KEY: 0}
        for lam in g.q_elements():
            arg = t.inv(t.sub(alpha, t.mul(lam, lam)))
            out[self.key_of(lam)] = self.chi_exp(arg)
        return out


class PsModel(InducedModel):
    """Induced model of the irreducible Ps(chi^r) on PGL2(F_q)."""

    def __init__(self, g: PGL2, r: int):
        if not 1 <= r <= (g.q - 3) // 2:
            raise ValueError(f"r = {r} is not an irreducible principal series label")
        super().__init__(g, r)
        self.r = r

    def model_constant(self) -> CycNum:
        """|S|^2 / (q^2 - 1): the normalized squared correlation."""
        return model_sum(self.g, self.r).abs2() / (self.g.q**2 - 1)

    def consistency_check(self) -> None:
        """Invariance of v_H and v_K, the inner-product collapse, and the
        scaling rule for conjugate tori; raises on any failure.

        diag(gamma, 1) generates H, and k_alpha generates K (PGL2 picks
        alpha so that k_alpha has projective order q + 1), so a vector
        fixed by the generator is fixed by the whole torus."""
        g = self.g
        t = g.tower
        kk = self.kk
        vh = self.vector_h()
        vk = self.vector_k()
        if act(self.diag(g.sub_exp(1)), vh, kk) != vh:
            raise ConsistencyError("v_H is not H-fixed")
        if act(self.apply(g.k_alpha), vk, kk) != vk:
            raise ConsistencyError("v_K is not K-fixed")
        # the scaled vectors turn <v_H, v_K> = S / (q^2 - 1) into S
        s = model_sum(g, self.r)
        if CycNum.from_counter(kk, inner_counter(vh, vk, kk)) != s:
            raise ConsistencyError("inner product does not collapse to S")
        # conjugate torus: <v_H, v_K(a^2 alpha)> = chi(a) <v_H, v_K>
        for a in (t.one, g.sub_exp(1), t.power(g.alpha, (g.q - 1) // 2)):
            vka = self.vector_k(t.mul(t.mul(a, a), g.alpha))
            lhs = CycNum.from_counter(kk, inner_counter(vh, vka, kk))
            if lhs != CycNum.zeta(kk, self.chi_exp(a)) * s:
                raise ConsistencyError("conjugate-torus scaling fails")


def model_sum(g: PGL2, j: int) -> CycNum:
    """S = sum over lam != 0 of chi^j(alpha/lam - lam), for any exponent j."""
    t = g.tower
    kk = g.q - 1
    counter: dict[int, int] = {}
    for lam in g.q_units():
        arg = t.sub(t.div(g.alpha, lam), lam)
        e = j * g.sub_dlog(arg) % kk
        counter[e] = counter.get(e, 0) + 1
    return CycNum.from_counter(kk, counter)


# -- monomial tables and vectors -----------------------------------------------


def compose(outer: MonoMap, inner: MonoMap, kk: int) -> MonoMap:
    """The table of the product outer * inner (inner acts first)."""
    out: MonoMap = {}
    for key, (mid, e) in inner.items():
        nk, s = outer[mid]
        out[key] = (nk, (e + s) % kk)
    return out


def act(m: MonoMap, v: MVec, kk: int) -> MVec:
    """The image of a one-root-per-key vector under a monomial table."""
    out: MVec = {}
    for key, e in v.items():
        nk, s = m[key]
        out[nk] = (e + s) % kk
    return out


def inner_counter(v: MVec, w: MVec, kk: int) -> dict[int, int]:
    """<v, w> as a counter: zeta^(v[key] - w[key]) over the common keys."""
    ctr: dict[int, int] = {}
    for key in v.keys() & w.keys():
        e = (v[key] - w[key]) % kk
        ctr[e] = ctr.get(e, 0) + 1
    return ctr
