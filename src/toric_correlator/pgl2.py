"""PGL2 over F_q: conjugacy classes, character table, and the two tori.

The group is presented through a tower containing F_{q^2}, so eigenvalues
of non-split elements are honest field elements. Conjugacy classes carry
tuple labels:

    ("id",)        the identity, size 1
    ("unip",)      unipotents, size q^2 - 1
    ("split", e)   eigenvalue ratio with subfield dlog +-e, e in 1..(q-1)/2
    ("ell", j)     non-split, angle +-j mod q+1, j in 1..(q+1)/2

and irreducible characters likewise: ("triv",), ("eta",), ("st",),
("steta",), ("ps", r) for r in 1..(q-3)/2, ("cusp", r) for r in
1..(q-1)/2. Character values are kept as exponent counters modulo
q^2 - 1 (dicts exp -> int).

Each character is written once, by form: its integer values on id and
unip and, per torus family, a pair (c, s) with 2 chi(split e) =
c (w^(s e) + w^(-s e)) for w = zeta^(q+1) of order q - 1, and
2 chi(ell j) = c (v^(s j) + v^(-s j)) for v = zeta^(q-1) of order q + 1
(None where chi vanishes on the family). The sign (-1)^e is w^(e (q-1)/2)
and (-1)^j is v^(j (q+1)/2), so the four small reps take s = 0 or a half
period. char_counter evaluates the form class by class.

class_sum is the class-weighted character sum over a class multiset
{cls: n}. For a form with one family (ps, cusp, or a kernel of
orthogonality_check) it is family_sum: on that family's classes the form
is powers of a root of unity of order m = q -+ 1, whose s-th power is
zeta_d^(s/h) for h = gcd(s, m) and d = m/h, so each sum fills one integer
vector at conductor d and reduces it once, with any denominator passed
into that reduction; nothing is built at conductor q^2 - 1. family_terms
splits a multiset once into its raw counts, so every form summed over it
shares the split; torus_sum keeps that split per torus multiset on the
group. The four small reps read the same split: their s is 0 or a half
period, so each term is +-c at exponent 0 or (q^2 - 1)/2, and one
from_counter reduction ends the sum. orthogonality_check sums every row
product from the two forms: the id and unip terms plus, per family,
c1 c2 times two kernel values.

H is the split torus {diag(a, 1)} and K the non-split torus, realized as
multiplication by 1 + z*sqrt(alpha) on the plane with basis {1,
sqrt(alpha)} for the first nonsquare alpha whose torus generator
k_alpha = [[1, alpha], [1, 1]] has projective order exactly q + 1. The
class multisets of H, K, {h k_0} and {h_0 k} are memoized per group by
torus_classes, and their family_terms by torus_sum.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .cyclo import CycNum, PrimeIdealHandle
from .fields import ConsistencyError, FieldTower, FqElem, build_tower

Mat = tuple[FqElem, FqElem, FqElem, FqElem]
Label = tuple


def mat_mul(t: FieldTower, x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (
        t.add(t.mul(a, e), t.mul(b, g)),
        t.add(t.mul(a, f), t.mul(b, h)),
        t.add(t.mul(c, e), t.mul(d, g)),
        t.add(t.mul(c, f), t.mul(d, h)),
    )


def mat_det(t: FieldTower, x: Mat) -> FqElem:
    a, b, c, d = x
    return t.sub(t.mul(a, d), t.mul(b, c))


def mat_trace(t: FieldTower, x: Mat) -> FqElem:
    return t.add(x[0], x[3])


class PGL2:
    """PGL2(F_q) with its class data, character table and tori."""

    def __init__(
        self,
        p: int,
        f: int,
        chi_modulus: list[int] | None = None,
    ):
        if p == 2:
            raise ValueError("q must be odd")
        pin = None if chi_modulus is None else (f, chi_modulus)
        self.p = p
        self.f = f
        self.q = p**f
        self.tower = build_tower(p, 2 * f, subfield_modulus=pin)
        self.cof = self.q + 1  # ambient dlog step of the subfield F_q
        self.order = self.q * (self.q**2 - 1)
        self._init_classes()
        self._init_tori()
        hs, he = (self.q - 1) // 2, (self.q + 1) // 2  # (-1)^e = w^(hs e), (-1)^j = v^(he j)
        self._small_forms = {  # see form
            "triv": (1, 1, {"split": (1, 0), "ell": (1, 0)}),
            "eta": (1, 1, {"split": (1, hs), "ell": (1, he)}),
            "st": (self.q, 0, {"split": (1, 0), "ell": (-1, 0)}),
            "steta": (self.q, 0, {"split": (1, hs), "ell": (-1, he)}),
        }
        # per-group memo state, freed with the group
        self._torus_classes: dict[str, dict[Label, int]] = {}
        self._torus_terms: dict[str, tuple[int, int, dict[str, list]]] = {}
        self._pair_counts: dict[Label, int] | None = None
        self._pair_terms: tuple[int, int, dict[str, list]] | None = None
        self._const_cache: dict[Label, CycNum] = {}
        self._handle_cache: dict[int, list[PrimeIdealHandle]] = {}
        self._digit_cache: dict[int, tuple[list[int], int]] = {}

    # -- classes ----------------------------------------------------------

    def _init_classes(self) -> None:
        q = self.q
        self.classes: list[Label] = [("id",), ("unip",)]
        self.classes += [("split", e) for e in range(1, (q - 1) // 2 + 1)]
        self.classes += [("ell", j) for j in range(1, (q + 1) // 2 + 1)]
        sizes = {("id",): 1, ("unip",): q * q - 1}
        for e in range(1, (q - 1) // 2 + 1):
            sizes[("split", e)] = q * (q + 1) // (2 if e == (q - 1) // 2 else 1)
        for j in range(1, (q + 1) // 2 + 1):
            sizes[("ell", j)] = q * (q - 1) // (2 if j == (q + 1) // 2 else 1)
        if sum(sizes.values()) != self.order:
            raise ConsistencyError("class sizes do not sum to the group order")
        self.class_size = sizes
        self.class_index = {c: i for i, c in enumerate(self.classes)}

    def q_units(self) -> list[FqElem]:
        return [e * self.cof for e in range(self.q - 1)]

    def q_elements(self) -> list[FqElem]:
        return [None] + self.q_units()

    def sub_exp(self, e: int) -> FqElem:
        return self.tower.sub_exp(self.f, e)

    def sub_dlog(self, x: FqElem) -> int:
        return self.tower.sub_dlog(self.f, x)

    def classify_trace_det(self, tr: FqElem, det: FqElem) -> Label:
        """Class of a non-scalar element with this trace and determinant."""
        t = self.tower
        q = self.q
        disc = t.sub(t.mul(tr, tr), t.mul(self._four, det))
        if disc is None:
            return ("unip",)
        sq = t.sqrt(disc)  # disc is in F_q, so its ambient dlog is even
        if (disc // self.cof) % 2 == 0:
            # split: fold the eigenvalue-ratio dlog into 1..(q-1)/2
            x = t.mul(t.add(tr, sq), self._inv2)
            y = t.mul(t.sub(tr, sq), self._inv2)
            e = (x - y) % t.order // self.cof % (q - 1)
            return ("split", min(e, q - 1 - e))
        x = t.mul(t.add(tr, sq), self._inv2)
        j = x % (q + 1)
        return ("ell", min(j, q + 1 - j))

    def classify(self, mat: Mat) -> Label:
        t = self.tower
        a, b, c, d = mat
        det = mat_det(t, mat)
        if det is None:
            raise ValueError("matrix is singular")
        if b is None and c is None:
            if a == d:
                return ("id",)
            e = self.sub_dlog(t.div(a, d))
            return ("split", min(e, self.q - 1 - e))
        return self.classify_trace_det(mat_trace(t, mat), det)

    # -- tori -------------------------------------------------------------

    def _init_tori(self) -> None:
        t = self.tower
        q = self.q
        one = t.one
        self._four = t.from_prime(4)
        self._inv2 = t.inv(t.from_prime(2))
        self.h0: Mat = (t.neg(one), None, None, one)
        self.H: list[Mat] = [(a, None, None, one) for a in self.q_units()]
        # first nonsquare alpha (ascending subfield dlog) whose k_alpha
        # generates the full torus: 1 + sqrt(alpha) must have ambient dlog
        # prime to q + 1
        alpha = None
        for e in range(1, q - 1, 2):
            cand = self.sub_exp(e)
            root = cand // 2 if cand % 2 == 0 else (cand + t.order) // 2
            d = t.add(one, root)
            if d is not None and math.gcd(d, q + 1) == 1:
                alpha = cand
                self.sqrt_alpha = root
                break
        if alpha is None:
            raise ConsistencyError("no torus generator found")
        self.alpha = alpha
        self.k_alpha: Mat = (one, alpha, one, one)
        self.k0: Mat = (None, alpha, one, None)
        self.K: list[Mat] = [
            (one, t.mul(alpha, z), z, one) for z in self.q_elements()
        ] + [self.k0]

    def h_mat(self, a: FqElem) -> Mat:
        return (a, None, None, self.tower.one)

    # -- character table --------------------------------------------------

    def reps(self) -> list[Label]:
        q = self.q
        out: list[Label] = [("triv",), ("eta",), ("st",), ("steta",)]
        out += [("ps", r) for r in range(1, (q - 3) // 2 + 1)]
        out += [("cusp", r) for r in range(1, (q - 1) // 2 + 1)]
        return out

    def check_rep(self, rep: Label) -> None:
        q = self.q
        kind = rep[0]
        if kind in ("triv", "eta", "st", "steta") and len(rep) == 1:
            return
        if kind == "ps" and len(rep) == 2 and 1 <= rep[1] <= (q - 3) // 2:
            return
        if kind == "cusp" and len(rep) == 2 and 1 <= rep[1] <= (q - 1) // 2:
            return
        raise ValueError(f"{rep} does not label an irreducible of PGL2(F_{q})")

    def form(self, rep: Label) -> tuple[int, int, dict[str, tuple[int, int] | None]]:
        """The character of rep as (chi(id), chi(unip), {"split": (c, s),
        "ell": (c, s)}): 2 chi(split e) = c (w^(s e) + w^(-s e)) and
        2 chi(ell j) = c (v^(s j) + v^(-s j)), None where chi vanishes.
        The four small forms are built once per group, so callers must not
        mutate what this returns."""
        self.check_rep(rep)
        q = self.q
        if rep[0] == "ps":
            return q + 1, 1, {"split": (2, rep[1]), "ell": None}
        if rep[0] == "cusp":
            return q - 1, -1, {"split": None, "ell": (-2, rep[1])}
        return self._small_forms[rep[0]]

    def dim(self, rep: Label) -> int:
        return self.form(rep)[0]

    def char_counter(self, rep: Label, cls: Label) -> dict[int, int | Fraction]:
        """chi_rep(cls) as an exponent counter modulo q^2 - 1, evaluated
        from form: c (zeta^x + zeta^-x) / 2, which is c zeta^x when the
        two exponents agree. Counts are half-integers only for an odd c
        off those exponents, which no rep's form has."""
        chi_id, chi_unip, fams = self.form(rep)
        if cls[0] in ("id", "unip"):
            return {0: chi_id if cls[0] == "id" else chi_unip}
        if fams[cls[0]] is None:
            return {}
        c, s = fams[cls[0]]
        q = self.q
        kk = q * q - 1
        x = s * cls[1] * (q + 1 if cls[0] == "split" else q - 1) % kk
        if 2 * x % kk == 0:
            return {x: c}
        half = Fraction(c, 2) if c % 2 else c // 2
        return {x: half, kk - x: half}

    def char_value(self, rep: Label, cls: Label) -> CycNum:
        return CycNum.from_counter(self.q**2 - 1, self.char_counter(rep, cls))

    # -- torus character sums ---------------------------------------------

    def torus_classes(self, which: str) -> dict[Label, int]:
        """Class multiset {class: count} of the torus H or K, or of
        {h k_0 : h in H} ("hk0") or {h_0 k : k in K} ("h0k").

        Built once per group, on first use, by classifying each matrix;
        the memo itself is returned, so callers must not mutate it.
        """
        out = self._torus_classes.get(which)
        if out is None:
            t = self.tower
            if which == "hk0":
                mats = [mat_mul(t, h, self.k0) for h in self.H]
            elif which == "h0k":
                mats = [mat_mul(t, self.h0, k) for k in self.K]
            else:
                mats = {"H": self.H, "K": self.K}[which]
            out = self._torus_classes[which] = Counter(map(self.classify, mats))
        return out

    def family_terms(self, classes: dict[Label, int]) -> tuple[int, int, dict[str, list]]:
        """What family_sum reads of a class multiset, as raw counts:
        (n_id, n_unip, {"split": [(e, n)], "ell": [(j, n)]})."""
        pairs: dict[str, list[tuple[int, int]]] = {"split": [], "ell": []}
        for cls, n in classes.items():
            if n and cls[0] in pairs:
                pairs[cls[0]].append((cls[1], n))
        return classes.get(("id",), 0), classes.get(("unip",), 0), pairs

    def family_sum(self, form: tuple, terms: tuple, den: int = 1) -> CycNum:
        """Sum of n * chi(cls) / den over a multiset, from its family_terms,
        for chi given by a form with one family at any integer s: a ps or
        cusp form, or a kernel (0, 0, {fam: (2, s)}) of orthogonality.

        Cusp j is the pair of an eigenvalue dlog q + 1 - j, and the sign
        of +-s j is immaterial, so both families index by e or j directly.
        The vector holds k times the sum, k = 2 for odd c and 1 for even c
        (every ps, cusp and kernel form), so k c / 2 is an integer.
        """
        chi_id, chi_unip, fams = form
        n_id, n_unip, pairs = terms
        ((fam, (c, s)),) = [(fam, cs) for fam, cs in fams.items() if cs]
        k = 1 + c % 2
        half_c = k * c // 2
        m = self.q - 1 if fam == "split" else self.q + 1
        h = math.gcd(s, m)
        d, step = m // h, s // h
        vec = [0] * d
        vec[0] = k * (chi_id * n_id + chi_unip * n_unip)
        for e, n in pairs[fam]:
            i = e * step % d
            n *= half_c
            vec[i] += n
            vec[-i] += n  # the exponent -i mod d; i = 0 lands twice on vec[0]
        return CycNum._from_vector(d, vec, k * den)

    def class_sum(self, rep: Label, classes: dict[Label, int]) -> CycNum:
        """Sum of n * chi_rep(cls) over a class multiset {cls: n}."""
        return self.terms_sum(rep, self.family_terms(classes))

    def torus_sum(self, rep: Label, which: str) -> CycNum:
        """class_sum of rep over torus_classes(which). The family_terms of
        each multiset are memoized per group on first use, so each torus
        is split once for all reps."""
        terms = self._torus_terms.get(which)
        if terms is None:
            terms = self._torus_terms[which] = self.family_terms(self.torus_classes(which))
        return self.terms_sum(rep, terms)

    def terms_sum(self, rep: Label, terms: tuple) -> CycNum:
        """class_sum of rep over a multiset given by its family_terms.

        ps and cusp go through family_sum. A small rep's s is 0 or half the
        period m of its family, so w^(s e) (or v^(s j)) is +1 when s e = 0
        mod m and -1 otherwise: every term sits at exponent 0 or
        (q^2 - 1)/2, which one pass over the terms fills before a single
        from_counter reduction.
        """
        form = self.form(rep)  # also checks the label
        if rep[0] in ("ps", "cusp"):
            return self.family_sum(form, terms)
        chi_id, chi_unip, fams = form
        n_id, n_unip, pairs = terms
        kk = self.q**2 - 1
        total = {0: chi_id * n_id + chi_unip * n_unip, kk // 2: 0}
        for fam, (c, s) in fams.items():
            m = self.q - 1 if fam == "split" else self.q + 1
            for e, n in pairs[fam]:
                total[kk // 2 if s * e % m else 0] += c * n
        return CycNum.from_counter(kk, total)

    def invariant_dims(self, rep: Label) -> tuple[int, int]:
        """(dim of H-fixed vectors, dim of K-fixed vectors) in rep."""
        dims = []
        for torus in ("H", "K"):
            classes = self.torus_classes(torus)
            val = self.torus_sum(rep, torus).as_rational()
            if val is None:
                raise ConsistencyError("torus character sum is irrational")
            n = sum(classes.values())
            if val.denominator != 1 or val < 0 or val.numerator % n:
                raise ConsistencyError("torus character sum is not a dimension")
            dims.append(val.numerator // n)
        return dims[0], dims[1]

    def orthogonality_check(self) -> None:
        """Orthogonality of the full character table, checked by rows.

        Let X be the table (rows reps, columns classes) and D the diagonal
        matrix of class sizes. Row orthogonality is X D X* = |G| I. For a
        square X this makes D X* / |G| a right inverse of X, hence a
        two-sided inverse, so (D X* / |G|) X = I, that is X* X = |G| D^-1:
        column orthogonality. The check therefore requires the table to be
        square and then runs the row sums only, each four times over as
        _row_products gives them, from the forms and the class sizes.

        Raises ConsistencyError on any failure; a passing run certifies the
        table (and hence every correlation computed from it) as the
        character table of a group of this order.
        """
        for r1, r2, val in self._row_products():
            if val != (4 * self.order if r1 == r2 else 0):
                raise ConsistencyError(f"row orthogonality fails at {r1}, {r2}")

    def _row_products(self):
        """Yield (r1, r2, 4 * sum over classes of |cls| chi_r1 conj chi_r2)
        for every pair of reps r1 <= r2 in reps() order.

        Put B(s) = sum over split e of |split e| (w^(s e) + w^(-s e)), the
        family_sum of the kernel form (0, 0, {"split": (2, s)}) over the
        class sizes, and likewise over the elliptic classes with v for w.
        On split class e the forms (c1, s1) and (c2, s2) give
        4 chi_1 conj chi_2 = c1 c2 (w^(s1 e) + w^(-s1 e)) (w^(-s2 e) + w^(s2 e))
        = c1 c2 (w^((s1 - s2) e) + w^(-(s1 - s2) e) + w^((s1 + s2) e)
        + w^(-(s1 + s2) e)), so summed with the class sizes it is
        c1 c2 (B(s1 - s2) + B(s1 + s2)); the elliptic classes are the same
        with v. Hence

            4 sum |cls| chi_1 conj chi_2 = 4 (|id| chi_1(id) chi_2(id)
                + |unip| chi_1(unip) chi_2(unip))
                + sum over families of c1 c2 (B(s1 - s2) + B(s1 + s2)),

        a family where either form is None adding nothing. The regrouping
        only reorders the exponent multiset of the class-by-class sum, for
        any class sizes and any (c, s), and reduction is additive, so each
        value is exactly four times the class-by-class row sum. The table
        is the forms (char_counter evaluates them), so no precondition is
        left to check, and a wrong class size still shows in the sums.
        Each kernel value is reduced once (B(s) = B(-s)) and kept as an
        int when it is rational, so the products cost O(q^2) integer work
        and O(q) reductions.
        """
        reps = self.reps()
        if len(reps) != len(self.classes):
            raise ConsistencyError("character table is not square")
        forms = {rep: self.form(rep) for rep in reps}
        terms = self.family_terms(self.class_size)
        n_id, n_unip, _ = terms
        kernels: dict[tuple[str, int], CycNum | int] = {}

        def kernel(fam: str, s: int) -> CycNum | int:
            """B(s) of the family, as an int when it is rational (a rational
            sum of roots of unity with integer weights is an integer)."""
            m = self.q - 1 if fam == "split" else self.q + 1
            s = min(s % m, -s % m)
            val = kernels.get((fam, s))
            if val is None:
                val = self.family_sum((0, 0, {fam: (2, s)}), terms)
                rat = val.as_rational()
                val = kernels[(fam, s)] = val if rat is None else rat.numerator
            return val

        for i, r1 in enumerate(reps):
            id1, u1, fams1 = forms[r1]
            for r2 in reps[i:]:
                id2, u2, fams2 = forms[r2]
                val = 4 * (n_id * id1 * id2 + n_unip * u1 * u2)
                for fam, cs1 in fams1.items():
                    if cs1 and fams2[fam]:
                        (c1, s1), (c2, s2) = cs1, fams2[fam]
                        val += c1 * c2 * (kernel(fam, s1 - s2) + kernel(fam, s1 + s2))
                yield r1, r2, val

    def describe(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "q": self.q,
            "field": self.tower.describe(),
            "alpha_dlog": self.sub_dlog(self.alpha),
            "num_classes": len(self.classes),
        }
