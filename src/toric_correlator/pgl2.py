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

class_sum is the class-weighted character sum over a class multiset
{cls: n}. For the two large families it is written once, in family_sum:
ps s reads only the split classes, at the exponents +-s e (q + 1), and
cusp s only the elliptic ones, at -+s j (q - 1), plus integer id and unip
terms. These are powers of a root of unity of order m = q - 1, resp.
q + 1, whose s-th power is zeta_d^(s/h) for h = gcd(s, m) and d = m/h,
so each sum fills one integer vector at conductor d and reduces it once,
with any denominator passed into that reduction; nothing is built at
conductor q^2 - 1. family_terms splits a multiset once, so every rep
summed over it shares the split; torus_sum keeps that split per torus
multiset on the group. The form holds for any integer s, label or not.
The four rational reps keep the char_counter sum and one from_counter
reduction, and the char_counter sum stays the test reference for the
family form. orthogonality_check sums every row product that meets a
large family by the same form: a product of two ps rows (or two cusp
rows) is two family sums over the class sizes plus integer id and unip
terms, and a small row times a family row, the small rep being +-1 or
+-(-1)^x on the torus classes, is one such sum.

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

from .cyclo import CycNum, PrimeIdealHandle
from .fields import ConsistencyError, FieldTower, FqElem, build_tower

Mat = tuple[FqElem, FqElem, FqElem, FqElem]
Label = tuple


def _pm_counter(ex: int, kk: int, sign: int) -> dict[int, int]:
    """sign * (zeta^ex + zeta^-ex) as an exponent counter modulo kk."""
    out: dict[int, int] = {}
    for x in (ex % kk, -ex % kk):
        out[x] = out.get(x, 0) + sign
    return out


def _row_product(kk: int, sizes: list[int], row1: list, row2: list) -> CycNum:
    """sum over classes of |cls| chi_1(cls) conj chi_2(cls), class by
    class, from two rows of char_counter values."""
    total: dict[int, int] = {}
    for sz, c1, c2 in zip(sizes, row1, row2):
        for e1, a in c1.items():
            for e2, b in c2.items():
                ex = (e1 - e2) % kk
                total[ex] = total.get(ex, 0) + sz * a * b
    return CycNum.from_counter(kk, total)


def _sign_form(row: list, at: list[tuple[int, int]], rep: Label, fam: str) -> tuple[int, int]:
    """The (s, t), s = +-1 and t in {0, 1}, with row[i] = {0: s (-1)^(t x)}
    at every (index i, class parameter x) in at; raise if there is none."""
    for t in (0, 1):
        for s in (1, -1):
            if all(row[i] == {0: s * (-1) ** (t * x)} for i, x in at):
                return s, t
    raise ConsistencyError(f"small row {rep} is not +-1 or +-(-1)^x on the {fam} classes")


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
        # per-group memo state, freed with the group
        self._torus_classes: dict[str, dict[Label, int]] = {}
        self._torus_terms: dict[str, dict[str, tuple[int, list]]] = {}
        self._pair_counts: dict[Label, int] | None = None
        self._pair_terms: dict[str, tuple[int, list]] | None = None
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

    def dim(self, rep: Label) -> int:
        self.check_rep(rep)
        q = self.q
        return {"triv": 1, "eta": 1, "st": q, "steta": q, "ps": q + 1, "cusp": q - 1}[
            rep[0]
        ]

    def char_counter(self, rep: Label, cls: Label) -> dict[int, int]:
        """chi_rep(cls) as an exponent counter modulo q^2 - 1."""
        self.check_rep(rep)
        q = self.q
        kind, ckind = rep[0], cls[0]
        if kind == "triv":
            return {0: 1}
        if kind == "eta":
            sign = 1 if ckind in ("id", "unip") else (-1) ** cls[1]
            return {0: sign}
        if kind == "st":
            return {
                "id": {0: q},
                "unip": {},
                "split": {0: 1},
                "ell": {0: -1},
            }[ckind]
        if kind == "steta":
            base = self.char_counter(("st",), cls)
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
        if kind == "cusp":
            if ckind == "id":
                return {0: q - 1}
            if ckind == "unip":
                return {0: -1}
            if ckind == "split":
                return {}
            ee = q + 1 - cls[1]  # an eigenvalue dlog with this angle
            return _pm_counter(r * ee * (q - 1), kk, -1)
        raise ValueError(f"unknown label {rep}")

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

    def family_terms(self, classes: dict[Label, int]) -> dict[str, tuple[int, list]]:
        """What family_sum reads of a class multiset: for "ps" and "cusp",
        the integer id and unip term and the signed (e or j, count) pairs
        of the split, resp. elliptic, classes."""
        q = self.q
        n_id = classes.get(("id",), 0)
        n_unip = classes.get(("unip",), 0)
        ps: list[tuple[int, int]] = []
        cusp: list[tuple[int, int]] = []
        for cls, n in classes.items():
            if n and cls[0] == "split":
                ps.append((cls[1], n))
            elif n and cls[0] == "ell":
                cusp.append((cls[1], -n))
        return {"ps": ((q + 1) * n_id + n_unip, ps), "cusp": ((q - 1) * n_id - n_unip, cusp)}

    def family_sum(self, kind: str, s: int, terms: dict, den: int = 1) -> CycNum:
        """Sum of n * chi(cls) / den over a multiset, for chi the "ps" or
        "cusp" character formula at any integer s, from its family_terms.

        Cusp j is the pair of an eigenvalue dlog q + 1 - j, and the sign
        of +-s j is immaterial, so both families index by e or j directly.
        """
        base, pairs = terms[kind]
        m = self.q - 1 if kind == "ps" else self.q + 1
        h = math.gcd(s, m)
        d, step = m // h, s // h
        vec = [0] * d
        vec[0] = base
        for e, n in pairs:
            i = e * step % d
            vec[i] += n
            vec[-i] += n  # the exponent -i mod d; i = 0 lands twice on vec[0]
        return CycNum._from_vector(d, vec, den)

    def class_sum(self, rep: Label, classes: dict[Label, int]) -> CycNum:
        """Sum of n * chi_rep(cls) over a class multiset {cls: n}."""
        self.check_rep(rep)
        if rep[0] in ("ps", "cusp"):
            return self.family_sum(rep[0], rep[1], self.family_terms(classes))
        total: dict[int, int] = {}
        for cls, n in classes.items():
            if n:
                for e, c in self.char_counter(rep, cls).items():
                    total[e] = total.get(e, 0) + n * c
        return CycNum.from_counter(self.q**2 - 1, total)

    def torus_sum(self, rep: Label, which: str) -> CycNum:
        """class_sum of rep over torus_classes(which). The family_terms of
        each multiset are memoized per group on first use, so each torus
        is split once for all the ps and cusp reps."""
        self.check_rep(rep)
        if rep[0] not in ("ps", "cusp"):
            return self.class_sum(rep, self.torus_classes(which))
        terms = self._torus_terms.get(which)
        if terms is None:
            terms = self._torus_terms[which] = self.family_terms(self.torus_classes(which))
        return self.family_sum(rep[0], rep[1], terms)

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
        square and then runs the row sums only, as _row_products gives
        them.

        Raises ConsistencyError on any failure; a passing run certifies the
        table (and hence every correlation computed from it) as the
        character table of a group of this order.
        """
        for r1, r2, val in self._row_products():
            if val != (self.order if r1 == r2 else 0):
                raise ConsistencyError(f"row orthogonality fails at {r1}, {r2}")

    def _row_products(self):
        """Yield (r1, r2, sum over classes of |cls| chi_r1 conj chi_r2)
        for every pair of reps r1 <= r2 in reps() order, after checking
        the preconditions of the kernel form below.

        Every row product that meets a large family is summed by kernel.
        With zeta a primitive (q^2 - 1)-th root of unity, write w for
        zeta^(q+1), a primitive (q-1)-th root of unity, and put

            B(s) = sum over split e of |split e| (w^(s e) + w^(-s e))

        for s modulo q - 1, and C(s) the same sum over the elliptic classes
        j with v = zeta^(q-1) for w, for s modulo q + 1: B(s) is the
        family_sum of ps s over the split class sizes, and C(s) minus that
        of cusp s over the elliptic ones. On split class e, ps r is
        w^(r e) + w^(-r e), so chi_r1 conj(chi_r2) there is the four terms
        w^(+-(r1 - r2) e) + w^(+-(r1 + r2) e), which summed over e with the
        class sizes give B(r1 - r2) + B(r1 + r2). On elliptic class j, cusp
        r is -(v^(r j) + v^(-r j)); the two minus signs cancel and the same
        regrouping gives C(r1 - r2) + C(r1 + r2). ps vanishes on the
        elliptic classes and cusp on the split ones, so a ps-ps or
        cusp-cusp product is the integer id and unip terms plus two kernel
        values, and a ps-cusp product is the id and unip terms alone.

        The four small reps (triv, eta, st, steta) are s (-1)^(t x) on the
        split classes x = e and on the elliptic classes x = j, for a sign
        s = +-1 and a parity t in {0, 1} per rep and family. Since w has
        order q - 1, (-1)^e = w^(e (q-1)/2), so on split class e the small
        rep times ps r is s (w^((r + t (q-1)/2) e) + w^(-(r + t (q-1)/2) e)),
        and summed with the class sizes that is s B(r + t (q-1)/2); on the
        elliptic classes (-1)^j = v^(j (q+1)/2) likewise gives
        -s C(r + t (q+1)/2) against cusp r. A small-family product is
        therefore the id and unip terms plus one kernel value.

        Each regrouping only reorders the exponent multiset of the
        class-by-class sum, and reduction is additive, so each value is
        exactly the class-by-class row sum, provided the table has these
        forms. So the family values of every ps and cusp entry, the sign
        forms of the four small rows, and integer entries on id and unip
        are all checked first, in O(classes) per row. The kernels read the
        class sizes, so a wrong size still shows in the row sums. Only the
        10 small-small pairs keep the class-by-class _row_product. Each
        kernel value is reduced once (B(s) = B(-s), C(s) = C(-s)), so the
        products cost O(q^2) integer work and O(q) reductions instead of
        one reduction per pair of reps.
        """
        q = self.q
        kk = q * q - 1
        reps = self.reps()
        if len(reps) != len(self.classes):
            raise ConsistencyError("character table is not square")
        rows = {rep: [self.char_counter(rep, cls) for cls in self.classes] for rep in reps}
        sizes = [self.class_size[cls] for cls in self.classes]
        ends = [self.class_index[("id",)], self.class_index[("unip",)]]
        home = {"ps": "split", "cusp": "ell"}
        step = {"split": q + 1, "ell": q - 1}  # dlog of the family's root
        at = {fam: [(i, c[1]) for i, c in enumerate(self.classes) if c[0] == fam] for fam in step}
        # the preconditions of the kernels: integer entries on id and unip,
        # family values of ps and cusp, sign forms of the small rows
        forms: dict[Label, dict[str, tuple[int, int]]] = {}
        for rep in reps:
            row = rows[rep]
            if rep[0] not in home:
                for i in ends:
                    if not row[i].keys() <= {0}:
                        raise ConsistencyError(
                            f"small row {rep} on {self.classes[i]} is not an integer"
                        )
                forms[rep] = {fam: _sign_form(row, at[fam], rep, fam) for fam in step}
                continue
            fam, sign = home[rep[0]], 1 if rep[0] == "ps" else -1
            for i, (cls, got) in enumerate(zip(self.classes, row)):
                if i in ends:
                    ok = got.keys() <= {0}
                elif cls[0] == fam:
                    ok = got == _pm_counter(rep[1] * cls[1] * step[fam], kk, sign)
                else:
                    ok = not got
                if not ok:
                    raise ConsistencyError(f"{rep} on {cls} is not its family value")
        end_sizes = [sizes[j] for j in ends]
        at_ends = {rep: [rows[rep][j].get(0, 0) for j in ends] for rep in reps}
        terms = self.family_terms({c: n for c, n in zip(self.classes, sizes) if c[0] in step})
        kernels: dict[tuple[str, int], CycNum | int] = {}

        def kernel(kind: str, s: int) -> CycNum | int:
            """B(s) for "ps", C(s) for "cusp", as an int when it is rational
            (a rational sum of roots of unity with integer weights is an
            integer, and int sums are far cheaper)."""
            m = q - 1 if kind == "ps" else q + 1
            s = min(s % m, -s % m)  # B(s) = B(-s), C(s) = C(-s)
            val = kernels.get((kind, s))
            if val is None:
                val = self.family_sum(kind, s, terms)
                rat = val.as_rational()
                if rat is not None:
                    val = rat.numerator
                kernels[(kind, s)] = val if kind == "ps" else -val
            return kernels[(kind, s)]

        for i, r1 in enumerate(reps):
            for r2 in reps[i:]:
                small = [r for r in (r1, r2) if r[0] not in home]
                if len(small) == 2:
                    yield r1, r2, _row_product(kk, sizes, rows[r1], rows[r2])
                    continue
                val = sum(n * a * b for n, a, b in zip(end_sizes, at_ends[r1], at_ends[r2]))
                if small:
                    (kind, r), = [x for x in (r1, r2) if x[0] in home]
                    s, t = forms[small[0]][home[kind]]
                    m = q - 1 if kind == "ps" else q + 1
                    val += (s if kind == "ps" else -s) * kernel(kind, r + t * m // 2)
                elif r1[0] == r2[0]:
                    val += kernel(r1[0], r1[1] - r2[1]) + kernel(r1[0], r1[1] + r2[1])
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
