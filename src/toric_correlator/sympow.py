"""Symmetric-power representations of PGL2(F_q) in characteristic p.

An irreducible mod-p representation is a twisted tensor product

    tensor over i < f of (Sym^(sym_i) tensor det^(det_i)) twisted by Frob^i,

realized on polynomials: factor i has basis x^a y^(sym_i - a), a matrix
[[A, B], [C, D]] substitutes x -> A^(p^i) x + C^(p^i) y and
y -> B^(p^i) x + D^(p^i) y, and the whole thing is scaled by
det(g)^(sum of det_i p^i). Coefficients live in F_q inside the group's
tower.

For a digit vector (r_0, ..., r_(f-1)) the distinguished module is
rho_r = tensor of Sym^(2 r_i) det^(-r_i); it always has the H-fixed
vector v_H = tensor of (x y)^(r_i) and the K-fixed vector
v_K = tensor of (alpha^(p^i) x^2 - y^2)^(r_i). Averaging over H (the
operator X, a diagonal projector onto weight-zero monomials) and over K
(the operator Y) produces the two structure constants

    s = coefficient of v_H in X(v_K)      t = alpha^(-d) [top] Y(v_H)

with d = sum of r_i p^i, whose closed forms are products of central
binomials; both vanish exactly when some digit r_i is odd, and the
composite X Y then annihilates everything. Y(v_H) = t v_K and
X(v_K) = s v_H hold whenever d < q - 1; the single degenerate vector
d = q - 1 keeps the closed forms for s and t but not proportionality.

The same operators applied to the flagged Jordan-Hoelder constituent of
the reduction of a characteristic-zero representation recover the
reduction of its correlation constant at the tower's distinguished prime,
which is the content of the diamond_check below. Every p-regular class
lies in the cyclic torus H or K, so its Brauer checks compare integer
histograms of exponents at the two torus generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .correlation import corr_constant
from .fields import ConsistencyError, FqElem
from .modp import base_digits, distinguished_handle, lucas_binom, rep_conductor
from .pgl2 import PGL2, Label, Mat, mat_det, mat_mul

Vector = dict[tuple[int, ...], FqElem]


@dataclass(frozen=True)
class Constituent:
    """A twisted tensor product of symmetric powers and determinant twists."""

    sym: tuple[int, ...]
    det: tuple[int, ...]

    def dim(self) -> int:
        return math.prod(d + 1 for d in self.sym)

    def avecs(self):
        return itertools.product(*(range(d + 1) for d in self.sym))


def rho_pure(rvec: tuple[int, ...]) -> Constituent:
    return Constituent(tuple(2 * r for r in rvec), tuple(-r for r in rvec))


class SymPowModule:
    """A constituent realized over a specific group's field tower."""

    def __init__(self, g: PGL2, cons: Constituent):
        if len(cons.sym) != g.f:
            raise ValueError("constituent has the wrong number of factors")
        self.g = g
        self.cons = cons
        q = g.q
        # combined determinant weight mod q-1
        self.det_weight = sum(m * g.p**i for i, m in enumerate(cons.det)) % (q - 1)
        self._e0 = g.tower.add(g.tower.one, g.sqrt_alpha)  # dlog of 1 + sqrt(alpha)
        self._histograms: tuple[list[int], list[int]] | None = None

    # -- action -----------------------------------------------------------

    def apply(self, mat: Mat, vec: Vector) -> Vector:
        g = self.g
        t = g.tower
        p = g.p
        a, b, c, d = mat
        scale = t.power(mat_det(t, mat), self.det_weight)
        # per factor i and per exponent a_i, the expansion of
        # (A x + C y)^(a_i) (B x + D y)^(sym_i - a_i) over the new x-degree
        tables: list[list[list[FqElem]]] = []
        for i, di in enumerate(self.cons.sym):
            ai_, bi, ci, di_ = (t.frobenius(z, i) for z in (a, b, c, d))
            first: list[list[FqElem]] = []
            second: list[list[FqElem]] = []
            for n in range(di + 1):
                first.append(_binom_expand(t, p, ai_, ci, n))
                second.append(_binom_expand(t, p, bi, di_, n))
            row = []
            for av in range(di + 1):
                f1, f2 = first[av], second[di - av]
                conv: list[FqElem] = [None] * (di + 1)
                for j1, c1 in enumerate(f1):
                    if c1 is not None:
                        for j2, c2 in enumerate(f2):
                            if c2 is not None:
                                conv[j1 + j2] = t.add(conv[j1 + j2], t.mul(c1, c2))
                row.append(conv)
            tables.append(row)
        out: Vector = {}
        for avec, coeff in vec.items():
            parts = [(tuple(), t.mul(coeff, scale))]
            for i, ai in enumerate(avec):
                conv = tables[i][ai]
                nxt = []
                for key, cc in parts:
                    for j, cj in enumerate(conv):
                        if cj is not None:
                            prod = t.mul(cc, cj)
                            if prod is not None:
                                nxt.append((key + (j,), prod))
                parts = nxt
            for key, cc in parts:
                acc = t.add(out.get(key), cc)
                if acc is None:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return out

    # -- torus averages ---------------------------------------------------

    def weight(self, avec: tuple[int, ...]) -> int:
        """Weight of a monomial under diag(a, 1), as an exponent mod q-1."""
        g = self.g
        return (
            sum((ai + mi) * g.p**i for i, (ai, mi) in enumerate(zip(avec, self.cons.det)))
            % (g.q - 1)
        )

    def x_average(self, vec: Vector) -> Vector:
        """Average over H: the projector onto weight-zero monomials."""
        return {avec: c for avec, c in vec.items() if self.weight(avec) == 0}

    def y_average(self, vec: Vector) -> Vector:
        """Average over K, through the basis of F_(q^2)^2 that diagonalizes K.

        Put s = sqrt(alpha) and M = [[s, -s], [1, 1]]. Each call checks
        that M^-1 k_alpha M = diag(1 + s, 1 - s) and raises
        ConsistencyError otherwise. Every k in K is I + z k_0 or k_0, and
        k_0 = k_alpha - I, so M^-1 k M is diag(1 + z s, 1 - z s) or
        diag(s, -s): diag(l, l^q) in each case, as s^q = -s. These q + 1
        eigenvalues l are one of each coset of F_q^* in F_(q^2)^*.

        apply is a homomorphism on GL2(F_(q^2)), not only on GL2(F_q): each
        factor is Sym^(d_i) composed with Frob^i, a field automorphism, and
        det^w is multiplicative. So the sum over K is
        apply(M, D(apply(M^-1, v))), where D sums diag(l, l^q) over the l.
        That matrix scales a monomial by l^E, E = aa + q bb (see k_fixed).
        Scalars c in F_q^* act by c^E, so on a module where they act
        trivially l -> l^E is a character of F_(q^2)^* / F_q^*. That group
        is cyclic of order q + 1, generated by 1 + s because k_alpha
        generates K, and the average of the character over it is 1 when
        (1 + s)^E = 1 and 0 otherwise. So D / (q + 1) keeps the monomials
        of k_fixed and drops the rest.
        """
        g = self.g
        t = g.tower
        self.torus_histograms()  # ValueError unless scalars act trivially
        m, m_inv = _k_eigenbasis(g)
        s = g.sqrt_alpha
        want = (t.add(t.one, s), None, None, t.sub(t.one, s))
        if mat_mul(t, m_inv, mat_mul(t, g.k_alpha, m)) != want:
            raise ConsistencyError("the change of basis does not diagonalize K")
        fixed = {avec: c for avec, c in self.apply(m_inv, vec).items() if self.k_fixed(avec)}
        return self.apply(m, fixed)

    # -- fixed spaces -----------------------------------------------------

    def h_fixed_count(self) -> int:
        return sum(1 for avec in self.cons.avecs() if self.weight(avec) == 0)

    def k_fixed(self, avec: tuple[int, ...]) -> bool:
        """True iff K fixes the monomial avec in the basis of y_average.

        diag(l, l^q) scales it by l^E with E = aa + q bb, where
        aa = sum (a_i + m_i) p^i and bb = sum (d_i - a_i + m_i) p^i, and
        1 + sqrt(alpha), of dlog e0, generates the eigenvalues of K modulo
        F_q^*, so the test is E e0 = 0 mod q^2 - 1.
        """
        g = self.g
        aa = bb = 0
        for i, (di, ai, mi) in enumerate(zip(self.cons.sym, avec, self.cons.det)):
            aa += (ai + mi) * g.p**i
            bb += (di - ai + mi) * g.p**i
        return (aa + g.q * bb) * self._e0 % (g.q * g.q - 1) == 0

    def k_fixed_count(self) -> int:
        return sum(1 for avec in self.cons.avecs() if self.k_fixed(avec))

    def torus_histograms(self) -> tuple[list[int], list[int]]:
        """(N_H, N_K): the monomials counted by their exponent at the
        generator w = zeta^(q + 1) of H and at v = zeta^(q - 1) of K; built
        once. With aa, bb and E = aa + q bb as in k_fixed, avec has
        eigenvalue w^(e aa) at split class e and zeta^((q + 1 - j) E) =
        v^(-j E / (q - 1)) at elliptic class j, which needs (q - 1) | E:
        scalars must act trivially. E = E_0 - (q - 1) sum a_i p^i, so that is
        one test per module."""
        if self._histograms is None:
            q = self.g.q
            pw = [self.g.p**i for i in range(self.g.f)]
            aa0 = sum(m * w for m, w in zip(self.cons.det, pw))
            bb0 = sum((d + m) * w for d, m, w in zip(self.cons.sym, self.cons.det, pw))
            vv0, rem = divmod(aa0 + q * bb0, q - 1)
            if rem:
                raise ValueError("needs a module on which scalars act trivially")
            n_h, n_k = [0] * (q - 1), [0] * (q + 1)
            for avec in self.cons.avecs():
                a = sum(ai * w for ai, w in zip(avec, pw))
                n_h[(aa0 + a) % (q - 1)] += 1
                n_k[(vv0 - a) % (q + 1)] += 1
            self._histograms = n_h, n_k
        return self._histograms

    def fixed_dims_brauer(self) -> tuple[int, int]:
        """Brauer averages over H and K: (N_H[0], N_K[0]), as the sum over e
        in Z/(q - 1) of w^(e W) is (q - 1) [W = 0], and likewise for K. This
        reads the same exponents as weight and k_fixed, so fixed_dims compares
        two countings of one formula; the cyclotomic average over 2q torus
        elements that it replaces is a test reference."""
        n_h, n_k = self.torus_histograms()
        return n_h[0], n_k[0]

    def fixed_dims(self) -> tuple[int, int]:
        """Fixed-space dimensions, counted two ways which must agree."""
        counted = (self.h_fixed_count(), self.k_fixed_count())
        brauer = self.fixed_dims_brauer()
        if counted != brauer:
            raise ConsistencyError(
                f"fixed dimensions disagree: counted {counted}, Brauer {brauer}"
            )
        return counted


def _binom_expand(t, p: int, u: FqElem, v: FqElem, n: int) -> list[FqElem]:
    """Coefficients of (u x + v y)^n over the x-degree, in the tower."""
    out: list[FqElem] = []
    for j in range(n + 1):
        c = t.from_prime(math.comb(n, j) % p)
        c = t.mul(c, t.power(u, j)) if j else c
        c = t.mul(c, t.power(v, n - j)) if n - j else c
        out.append(c)
    return out


def _k_eigenbasis(g: PGL2) -> tuple[Mat, Mat]:
    """M = [[s, -s], [1, 1]] for s = sqrt(alpha), and its inverse
    [[1, s], [-1, s]] / (2 s); see SymPowModule.y_average."""
    t = g.tower
    s = g.sqrt_alpha
    inv = t.inv(t.add(s, s))
    return (s, t.neg(s), t.one, t.one), (inv, t.mul(s, inv), t.neg(inv), t.mul(s, inv))


# -- the pure modules rho_r and their structure constants -------------------


def vector_h(g: PGL2, rvec: tuple[int, ...]) -> Vector:
    return {tuple(rvec): g.tower.one}


def vector_k(g: PGL2, rvec: tuple[int, ...]) -> Vector:
    t = g.tower
    out: Vector = {tuple(): t.one}
    for i, r in enumerate(rvec):
        ai = t.frobenius(g.alpha, i)
        nxt: Vector = {}
        for avec, c in out.items():
            for j in range(r + 1):
                # binomial term C(r, j) (alpha^(p^i))^j (-1)^(r-j) x^(2j) y^(2r-2j)
                cc = t.from_prime(math.comb(r, j) % g.p)
                cc = t.mul(cc, t.power(ai, j))
                if (r - j) % 2:
                    cc = t.neg(cc)
                prod = t.mul(c, cc)
                if prod is not None:
                    key = avec + (2 * j,)
                    acc = t.add(nxt.get(key), prod)
                    if acc is not None:
                        nxt[key] = acc
                    else:
                        nxt.pop(key, None)
        out = nxt
    return out


def closed_s(g: PGL2, rvec: tuple[int, ...]) -> FqElem:
    """Product closed form for s; None (zero) when some digit is odd."""
    t = g.tower
    if any(r % 2 for r in rvec):
        return None
    out = t.one
    for i, r in enumerate(rvec):
        c = math.comb(r, r // 2) % g.p
        sign = -1 if (r // 2) % 2 else 1
        out = t.mul(out, t.from_prime(sign * c % g.p))
        out = t.mul(out, t.power(t.frobenius(g.alpha, i), r // 2))
    return out


def closed_t(g: PGL2, rvec: tuple[int, ...]) -> FqElem:
    """Closed form for t; None (zero) when some digit is odd."""
    t = g.tower
    if any(r % 2 for r in rvec):
        return None
    q = g.q
    d = sum(r * g.p**i for i, r in enumerate(rvec))
    e = (q - 1 - d) // 2
    c = lucas_binom(q - 1 - d, e, g.p)
    sign = -1 if e % 2 == 0 else 1  # -(-1)^e
    val = t.from_prime(sign * c % g.p)
    return t.mul(val, t.power(g.alpha, e))


@dataclass
class StReport:
    rvec: tuple[int, ...]
    d: int
    degenerate: bool
    s: FqElem
    t: FqElem
    s_matches_closed: bool
    t_matches_closed: bool
    proportional: bool
    xy_rank: int

    def ok(self) -> bool:
        return (
            self.s_matches_closed
            and self.t_matches_closed
            and (self.proportional or self.degenerate)
            and (self.xy_rank == 0) == (any(r % 2 for r in self.rvec))
        )


def st_report(g: PGL2, rvec: tuple[int, ...]) -> StReport:
    """Extract s and t for rho_r and compare with the closed forms.

    Also reports the rank of the composite X Y on the fixed line, which is
    0 exactly when some digit is odd (s t = 0), and whether the average
    identities X(v_K) = s v_H, Y(v_H) = t v_K hold (they must unless
    d = q - 1, the degenerate top vector).
    """
    rvec = tuple(rvec)
    if len(rvec) != g.f or any(not 0 <= r <= g.p - 1 for r in rvec):
        raise ValueError("rvec must be a base-p digit vector of length f")
    t = g.tower
    mod = SymPowModule(g, rho_pure(rvec))
    d = sum(r * g.p**i for i, r in enumerate(rvec))
    degenerate = d == g.q - 1
    vh = vector_h(g, rvec)
    vk = vector_k(g, rvec)
    xvk = mod.x_average(vk)
    s = xvk.get(tuple(rvec))
    yvh = mod.y_average(vh)
    top = tuple(2 * r for r in rvec)
    t_raw = yvh.get(top)
    t_val = t.mul(t_raw, t.power(t.inv(g.alpha), d)) if t_raw is not None else None
    s_ok = s == closed_s(g, rvec)
    t_ok = t_val == closed_t(g, rvec)
    prop_x = _proportional(t, xvk, vh, s)
    prop_y = _proportional(t, yvh, vk, t_val)
    # X Y on the weight-zero line sends v_H to (s t) v_H
    st = t.mul(s, t_val) if s is not None and t_val is not None else None
    return StReport(
        rvec=rvec,
        d=d,
        degenerate=degenerate,
        s=s,
        t=t_val,
        s_matches_closed=s_ok,
        t_matches_closed=t_ok,
        proportional=prop_x and prop_y,
        xy_rank=0 if st is None else 1,
    )


def _proportional(t, vec: Vector, base: Vector, c: FqElem) -> bool:
    want = {k: t.mul(v, c) for k, v in base.items() if t.mul(v, c) is not None}
    have = {k: v for k, v in vec.items() if v is not None}
    return want == have


# -- Jordan-Hoelder constituents of reductions ------------------------------


def jh_constituents(g: PGL2, rep: Label) -> list[tuple[frozenset, Constituent]]:
    """Constituents of the mod-p reduction of a ps or cusp representation,
    indexed by the subsets J of factor positions that survive validity."""
    p, f, q = g.p, g.f, g.q
    kind, r = rep[0], rep[1]
    if kind == "ps":
        base = base_digits(2 * r, p, f)
    elif kind == "cusp":
        base = base_digits(2 * r - 1, p, f)
    else:
        raise ValueError(f"{rep} has no modular reduction data here")
    rdig = base_digits(r, p, f)
    out = []
    for bits in itertools.product((0, 1), repeat=f):
        jset = frozenset(i for i in range(f) if bits[i])
        sym = []
        det = []
        valid = True
        for i in range(f):
            delta = 1 if (i - 1) % f in jset else 0
            if kind == "cusp" and i == 0:
                if 0 in jset:
                    n = base[0] + 1 - delta
                    m = delta
                else:
                    n = p - base[0] - 1 + delta
                    m = base[0] + 1
            else:
                if i in jset:
                    n = base[i] + delta
                    m = 0
                else:
                    n = p - base[i] - delta
                    m = base[i] + delta
            if not 1 <= n <= p:
                valid = False
                break
            sym.append(n - 1)
            det.append(m - rdig[i])
        if valid:
            out.append((jset, Constituent(tuple(sym), tuple(det))))
    total = sum(c.dim() for _, c in out)
    if total != g.dim(rep):
        raise ConsistencyError(
            f"constituent dimensions of {rep} sum to {total}, not {g.dim(rep)}"
        )
    return out


def flagged_subset(g: PGL2, rep: Label) -> frozenset:
    """The J whose constituent carries the torus-fixed vectors."""
    p, f = g.p, g.f
    kind, r = rep[0], rep[1]
    if kind == "ps":
        base = base_digits(2 * r, p, f)
        rdig = base_digits(r, p, f)
        return frozenset(i for i in range(f) if base[i] in (2 * rdig[i], 2 * rdig[i] + 1))
    if kind == "cusp":
        base = base_digits(2 * r - 1, p, f)
        rdig = base_digits(r - 1, p, f)
        out = {i for i in range(1, f) if base[i] in (2 * rdig[i], 2 * rdig[i] + 1)}
        if base[0] == 1 + 2 * rdig[0]:
            out.add(0)
        return frozenset(out)
    raise ValueError(f"{rep} has no flagged constituent")


@dataclass
class DiamondReport:
    rep: Label
    constituents: list[Constituent]
    flagged: Constituent
    brauer_sum_ok: bool
    fixed_dims: list[tuple[int, int]]
    unique_fixed_ok: bool
    shape_ok: bool
    st_value: FqElem
    reduced_constant: FqElem
    st_matches_reduction: bool

    def ok(self) -> bool:
        return (
            self.brauer_sum_ok
            and self.unique_fixed_ok
            and self.shape_ok
            and self.st_matches_reduction
        )


def _form_histograms(g: PGL2, rep: Label) -> tuple[list[int], list[int]]:
    """(M_H, M_K), whose transforms are chi_rep on H and K: per family, with
    m = q - 1 or q + 1 and (c, s) its form (0, 0 if None),
    M(x) = (chi(id) - c) / m + (c / 2) ([x = s] + [x = -s]). c is even or
    2 s = 0 mod m, as char_counter also assumes."""
    chi_id, _, fams = g.form(rep)
    out = []
    for fam, m in (("split", g.q - 1), ("ell", g.q + 1)):
        c, s = fams[fam] or (0, 0)
        base, rem = divmod(chi_id - c, m)
        if rem:
            raise ConsistencyError(f"{rep}: {m} does not divide chi(id) - c = {chi_id - c}")
        hist = [base] * m
        hist[s % m] += c // 2
        hist[-s % m] += c - c // 2
        out.append(hist)
    return out[0], out[1]


def _brauer_sum_ok(g: PGL2, rep: Label, modules: list[SymPowModule]) -> bool:
    """The modules' Brauer characters sum to chi_rep on every p-regular
    class iff their torus_histograms sum to _form_histograms(g, rep)
    (Serre, Linear Representations of Finite Groups, ch. 18).

    On H both sides are transforms e -> sum_W N(W) w^(e W) of integer
    histograms, so the value at -e is the conjugate of the value at e, and
    the classes e = 0 (id), 1, ..., (q - 1)/2 fix all q - 1 values; the
    transform on Z/(q - 1) is invertible. K is the same on Z/(q + 1), with
    j = 0, ..., (q + 1)/2.
    """
    sides = zip(*(m.torus_histograms() for m in modules))
    sums = tuple([sum(col) for col in zip(*side)] for side in sides)
    return sums == _form_histograms(g, rep)


def diamond_check(g: PGL2, rep: Label) -> DiamondReport:
    """Full reduction cross-check for one ps or cusp representation.

    (i) the Brauer characters of the constituents sum to the ordinary
    character on every p-regular class (_brauer_sum_ok); (ii) exactly one
    constituent has torus-fixed vectors (one each, the same constituent,
    the flagged one, counted two ways); (iii) the operator composite X Y on
    the flagged constituent's fixed line reproduces the reduction of the
    correlation constant at the tower's distinguished prime. (i) and (ii)
    read each module's torus histograms, built once.
    """
    t = g.tower
    parts = jh_constituents(g, rep)
    modules = [SymPowModule(g, c) for _, c in parts]
    brauer_ok = _brauer_sum_ok(g, rep, modules)
    dims = [m.fixed_dims() for m in modules]
    flag_j = flagged_subset(g, rep)
    flagged = next(c for j, c in parts if j == flag_j)
    unique_ok = (
        sum(1 for d in dims if d[0] > 0) == 1
        and sum(1 for d in dims if d[1] > 0) == 1
        and all(d in ((0, 0), (1, 1)) for d in dims)
        and dims[[j for j, _ in parts].index(flag_j)] == (1, 1)
    )
    # shape: flagged factors are Sym^(2 rho_i) or Sym^(2p - 2 - 2 rho_i)
    # for the digit vector rho of the distinguished prime's parameter
    handle = distinguished_handle(g, rep_conductor(g, rep))
    d_par = rep[1] if rep[0] == "ps" else rep[1] - 1  # relabeling exponent is 1
    rho = base_digits(d_par, g.p, g.f)
    shape_ok = all(
        sy in (2 * rho[i], 2 * g.p - 2 - 2 * rho[i])
        for i, sy in enumerate(flagged.sym)
    )
    # (iii) X Y on the flagged fixed line vs the reduced constant
    fmod = SymPowModule(g, flagged)
    vh = None
    for avec in flagged.avecs():
        if fmod.weight(avec) == 0:
            vh = avec
            break
    if vh is None:
        raise ConsistencyError("flagged constituent has no weight-zero monomial")
    image = fmod.x_average(fmod.y_average({vh: t.one}))
    st = image.get(vh)
    reduced = handle.reduce(corr_constant(g, rep))
    return DiamondReport(
        rep=rep,
        constituents=[c for _, c in parts],
        flagged=flagged,
        brauer_sum_ok=brauer_ok,
        fixed_dims=dims,
        unique_fixed_ok=unique_ok,
        shape_ok=shape_ok,
        st_value=st,
        reduced_constant=reduced,
        st_matches_reduction=st == reduced,
    )
