"""Exact arithmetic in cyclotomic fields Q(zeta_k).

A CycNum holds a conductor k and the canonical representative of its
value modulo the k-th cyclotomic polynomial, as integer numerators over
one denominator, so equality, conjugation and rationality tests are
exact and each operation is integer work plus one gcd. Values are pushed
down to the smallest conductor their exponent support allows (gcd
reduction), which keeps the working conductor tiny even when characters
are defined modulo q^2 - 1. Counters (Fraction ones scaled to integers
first), conjugates and the correlation kernels all take the one path
that reduces an int vector, mod Phi_k by division by its nonzero low
terms from the top down, so a ring keeps only that term list and no
table of powers of X. Division of CycNums is by rational values only.

The module also provides the reduction of a CycNum at a prime ideal above
p, presented by a primitive k-th root of unity in a field tower; the
image is a tower element, and the root's minimal polynomial is the
irreducible factor of Phi_k mod p that names the prime. The factors of
Phi_k mod p come from an independent route in F_p[X] alone: one piece
gcd(Phi_k, m(X^(k/r))) of Phi_k, cut through a proper subfield F_{p^j}
of its residue field (r = gcd(k, p^j - 1), m an irreducible factor of
Phi_r mod p), is split by Cantor-Zassenhaus, and the other factors are
the minimal polynomials of the powers X^a, a a unit mod k, modulo the
first factor found, one per Frobenius class of a.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import gfpoly
from .fields import ConsistencyError, FieldTower, FqElem

_FACTOR_CACHE: dict[tuple[int, int], list[list[int]]] = {}
# conductor k -> {e: exp(2 pi i e / k)}, the floats CycNum.to_complex has
# summed so far
_ROOTS: dict[int, dict[int, complex]] = {}

DEFAULT_CONDUCTOR_CAP = 200_000


def cyclotomic_poly(k: int) -> list[int]:
    """Coefficients of Phi_k, low-degree-first.

    Phi_k is the product of (X^d - 1)^mu(k/d) over the d | k with k/d
    squarefree. Each factor is a binomial, so multiplying by one, or
    dividing exactly by one, is a single pass over the coefficients.
    """
    if k < 1:
        raise ValueError("k must be positive")
    primes = list(gfpoly.factorint(k))
    ups: list[int] = []
    downs: list[int] = []
    for n in range(len(primes) + 1):
        for sub in itertools.combinations(primes, n):
            (downs if n % 2 else ups).append(k // math.prod(sub))
    poly = [1]
    for d in ups:
        nxt = [0] * d + poly
        for i, c in enumerate(poly):
            nxt[i] -= c
        poly = nxt
    for d in downs:
        # poly = quo * (X^d - 1) gives quo[j] = poly[j + d] + quo[j + d]
        top = len(poly) - 1 - d
        quo = [0] * (top + 1)
        for j in range(top, -1, -1):
            quo[j] = poly[j + d] + (quo[j + d] if j + d <= top else 0)
        if any(poly[j] != -(quo[j] if j <= top else 0) for j in range(d)):
            raise ArithmeticError("division is not exact")
        poly = quo
    return poly


class CycRing:
    """Reduction mod Phi_k for Q[X]/(Phi_k); one shared instance per k.

    A vector is reduced by division: each entry at or above phi(k), from
    the top down, is cleared by the nonzero low terms of Phi_k. Phi_k is
    sparse at the conductors in use (128 nonzero low terms at k = 193^2 - 1,
    where phi(k) = 12288), so the ring stores that term list and no table.
    """

    _cache: dict[int, "CycRing"] = {}

    def __init__(self, k: int):
        self.k = k
        self.phi_poly = cyclotomic_poly(k)
        self.deg = len(self.phi_poly) - 1
        # Phi_k divides S = 1 + X^m + X^2m + ... + X^((p-1)m) for m = k/p,
        # p the least prime factor of k; reduce_vector folds mod S first
        self._fold_step = k // min(gfpoly.factorint(k)) if k > 1 else None
        # (i, a) for the nonzero a X^i of Phi_k below X^phi(k), which is monic
        self._terms = [(i, a) for i, a in enumerate(self.phi_poly[: self.deg]) if a]

    @classmethod
    def get(cls, k: int, cap: int | None = DEFAULT_CONDUCTOR_CAP) -> "CycRing":
        """The shared ring of conductor k; cap=None for callers that only
        read Phi_k (factoring, prime handles) and never reduce at k."""
        if cap is not None and k > cap:
            raise ValueError(f"conductor {k} exceeds cap {cap}")
        ring = cls._cache.get(k)
        if ring is None:
            ring = cls(k)
            cls._cache[k] = ring
        return ring

    def phi_mod(self, p: int) -> list[int]:
        """Phi_k mod p, a fresh list per call. Phi_k is monic, so the degree
        stays phi(k)."""
        return [c % p for c in self.phi_poly]

    def reduce_vector(self, vec: list[int]) -> tuple[int, ...]:
        """Reduce an int coefficient vector of length <= k to the basis.

        Entries at or above (p-1)m first fold down mod S, where X^((p-1)m)
        = -(1 + X^m + ... + X^((p-2)m)) costs p - 1 updates per entry; the
        rest of the way to degree phi(k) is division by Phi_k from the top
        down: c X^e becomes -c X^(e - phi(k)) times the low terms of Phi_k.
        """
        deg = self.deg
        out = list(vec)
        m = self._fold_step
        if m is not None:
            top = self.k - m
            for e in range(len(out) - 1, top - 1, -1):
                c = out[e]
                if c:
                    for i in range(e - top, e - m + 1, m):
                        out[i] -= c
            del out[top:]
        terms = self._terms
        for e in range(len(out) - 1, deg - 1, -1):
            c = out[e]
            if c:
                s = e - deg
                for i, a in terms:
                    out[s + i] -= c * a
        del out[deg:]
        out += [0] * (deg - len(out))
        return tuple(out)

    def embed(self, k_small: int, nums: tuple[int, ...]) -> tuple[int, ...]:
        vec = [0] * self.k
        vec[:: self.k // k_small] = nums + (0,) * (k_small - len(nums))
        return self.reduce_vector(vec)

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        k = self.k
        vec = [0] * k
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    if cj:
                        t = i + j
                        vec[t if t < k else t - k] += ci * cj
        return self.reduce_vector(vec)


@dataclass(frozen=True, eq=False)
class CycNum:
    """The element sum of nums[i] zeta_k^i, over den, of Q(zeta_k) in
    canonical coordinates mod Phi_k. Construction keeps den > 0 and
    gcd(den, *nums) = 1, so at a given conductor each value has exactly
    one (nums, den)."""

    k: int
    nums: tuple[int, ...]
    den: int = 1

    __hash__ = None  # cross-conductor equality makes hashing unreliable

    def __post_init__(self):
        if self.den == 1:
            return
        if not self.den:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(self.den, *self.nums) * (1 if self.den > 0 else -1)
        if g != 1:
            object.__setattr__(self, "nums", tuple([c // g for c in self.nums]))
            object.__setattr__(self, "den", self.den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    @staticmethod
    def rational(x: int | Fraction) -> "CycNum":
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"not an exact rational: {x!r}")
        return CycNum(1, (x.numerator,), x.denominator)

    @staticmethod
    def zeta(k: int, e: int = 1) -> "CycNum":
        return CycNum.from_counter(k, {e: 1})

    @staticmethod
    def from_counter(k: int, counter: dict) -> "CycNum":
        """Sum of c * zeta_k^e over the counter, conductor-reduced.

        The conductor drops by the gcd of k with the exponent support, so
        sums of a few roots of unity stay in small fields regardless of k.
        Counter values are ints or Fractions; Fractions are scaled by the
        lcm of their denominators, so the reduction runs in integers.
        """
        clean: dict[int, int | Fraction] = {}
        for e, c in counter.items():
            if c:
                e %= k
                clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        fracs = [c.denominator for c in clean.values() if type(c) is not int]
        den = math.lcm(*fracs)
        if fracs:
            clean = {e: int(c * den) for e, c in clean.items()}
        g = math.gcd(k, *clean)
        vec = [0] * (k // g)
        for e, c in clean.items():
            vec[e // g] = c
        return CycNum._reduce(k // g, vec, den)

    @staticmethod
    def _from_vector(k: int, vec: list[int], den: int = 1) -> "CycNum":
        """Sum of vec[e] * zeta_k^e / den over e < k, conductor-reduced.

        conj and PGL2.family_sum, the ps and cusp class-weighted sums,
        start here; the gcd of k with the support picks the conductor.
        """
        g = math.gcd(k, *itertools.compress(range(k), vec))
        return CycNum._reduce(k // g, vec[::g], den)

    @staticmethod
    def _reduce(k: int, vec: list[int], den: int) -> "CycNum":
        """The one reduction path, for a vec of length k whose support has
        gcd 1 with k (from_counter has already taken that gcd). Conductors
        1 and 2 are rational: zeta_2 = -1 needs no ring."""
        if k == 1:
            return CycNum(1, (vec[0],), den)
        if k == 2:
            return CycNum(1, (vec[0] - vec[1],), den)
        return CycNum._make(k, CycRing.get(k).reduce_vector(vec), den)

    @staticmethod
    def _make(k: int, nums: tuple[int, ...], den: int) -> "CycNum":
        # fold values that reduced to a rational down to conductor 1
        if k > 1 and not any(nums[1:]):
            return CycNum(1, nums[:1], den)
        return CycNum(k, nums, den)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _pair(a: "CycNum", b: "CycNum"):
        if a.k == b.k:
            return a.k, a.nums, b.nums
        kk = math.lcm(a.k, b.k)
        ring = CycRing.get(kk)
        va = a.nums if a.k == kk else ring.embed(a.k, a.nums)
        vb = b.nums if b.k == kk else ring.embed(b.k, b.nums)
        return kk, va, vb

    @staticmethod
    def _coerce(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.rational(x)
        return NotImplemented

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "CycNum":
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        kk, va, vb = CycNum._pair(self, other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return CycNum._make(kk, tuple([x * sa + y * sb for x, y in zip(va, vb)]), den)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.k, tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other) -> "CycNum":
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycNum":
        return (-self) + other

    def __mul__(self, other) -> "CycNum":
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = self.den * other.den
        if other.k == 1 or self.k == 1:
            big, c = (self, other.nums[0]) if other.k == 1 else (other, self.nums[0])
            return CycNum._make(big.k, tuple([x * c for x in big.nums]), den)
        kk, va, vb = CycNum._pair(self, other)
        return CycNum._make(kk, CycRing.get(kk).mul(va, vb), den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycNum":
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = other.as_rational()
        if r is None:
            raise ValueError("division by an irrational value is not supported")
        return self * CycNum(1, (r.denominator,), r.numerator)  # den 0 raises

    def __eq__(self, other) -> bool:
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # embedding keeps gcd(den, *nums) = 1, since Z[zeta_n] meets
        # Q(zeta_k) in Z[zeta_k], so equal values have equal denominators
        _, va, vb = CycNum._pair(self, other)
        return self.den == other.den and va == vb

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field structure --------------------------------------------------

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.k == 1:
            return self
        vec = [0] * self.k
        for i, c in enumerate(self.nums):
            vec[-i] = c  # zeta^i -> zeta^(k - i), and zeta^0 stays
        return CycNum._from_vector(self.k, vec, self.den)

    def abs2(self) -> "CycNum":
        """Squared modulus z * conj(z), exact."""
        return self * self.conj()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if self.k == 1 or not any(self.nums[1:]):
            return Fraction(self.nums[0], self.den)
        return None

    def to_complex(self) -> complex:
        roots = _ROOTS.setdefault(self.k, {})
        total = 0j
        for i, c in enumerate(self.nums):
            if c:
                root = roots.get(i)
                if root is None:
                    ang = 2.0 * math.pi * i / self.k
                    root = roots[i] = complex(math.cos(ang), math.sin(ang))
                total += (c / self.den) * root
        return total

    def to_json_dict(self) -> dict:
        z = self.to_complex()
        den = self.den
        gcds = map(math.gcd, self.nums, itertools.repeat(den))
        return {
            "conductor": self.k,
            "coeffs": [[c // g, den // g] for c, g in zip(self.nums, gcds)],
            "approx": {"re": z.real, "im": z.imag},
        }

    def __repr__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return f"CycNum({r})"
        z = self.to_complex()
        return f"CycNum(k={self.k}, ~{z.real:.6g}{z.imag:+.6g}j)"


def _residue_degree(k: int, p: int) -> int:
    """The order of p mod k (1 for k = 1), the degree of every irreducible
    factor of Phi_k mod p when p does not divide k."""
    d = 1
    while pow(p, d, k) != 1 % k:
        d += 1
    return d


def factor_cyclotomic_mod_p(k: int, p: int) -> list[list[int]]:
    """Irreducible factors of Phi_k mod p, sorted by coefficient tuple.

    Requires k >= 1 and p an odd prime that does not divide k (ValueError
    otherwise); then all factors share the degree d = ord of p modulo k
    and the list has phi(k)/d entries. Computed once per (k, p) and
    memoized; callers must not mutate the result.

    One factor f1 comes from Cantor-Zassenhaus on one piece of Phi_k. With
    r = gcd(k, p^j - 1) for the j | d that _split_conductor picks, and m
    the first irreducible factor of Phi_r mod p, the piece is
    gcd(Phi_k, m(X^(k/r))) (_subfield_piece), and f1 is the first output
    of equal_degree_factor on it. For j = 1, m = X - u with u the least
    element of order r in F_p; otherwise m comes from this function at the
    smaller conductor r. The piece is not 1: as zeta runs over the roots of
    Phi_k, the elements of order k, zeta^(k/r) runs over all elements of
    order r, and so over the roots of m.

    Every other factor is the minimal polynomial over F_p of X^a in
    F_p[X]/(f1), one for each class a of (Z/k)^*/<p> (_conjugate_factors),
    and ConsistencyError is raised unless there are phi(k)/d of them, all
    distinct and all of degree d. That makes the list the factorization.
    p does not divide k, so Phi_k is separable mod p, its roots are the
    elements of order k, and each of its irreducible factors has degree d.
    equal_degree_factor splits only by gcd and exact quotient, so f1
    divides the piece, hence Phi_k, and having degree d it is irreducible:
    F_p[X]/(f1) is a field in which X has order k. Then y = X^a has order
    k for a unit a, so its minimal polynomial divides Phi_k and has degree
    d. Its roots are the conjugates y^(p^i) = X^(a p^i), so two classes
    that gave the same polynomial would have X^a' = X^(a p^i) and, X
    being of order k, a' = a p^i mod k. So distinct classes give coprime
    factors, and phi(k)/d of them multiply to a divisor of Phi_k of
    degree phi(k), which is Phi_k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if p == 2 or gfpoly.factorint(p) != {p: 1}:
        raise ValueError("p must be an odd prime")
    if k % p == 0:
        raise ValueError("p must not divide k")
    key = (k, p)
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]
    d = _residue_degree(k, p)
    r = _split_conductor(k, p)
    if (p - 1) % r:
        m = factor_cyclotomic_mod_p(r, p)[0]
    else:
        primes = gfpoly.factorint(r)
        u = next(
            u for u in range(1, p)
            if pow(u, r, p) == 1 and all(pow(u, r // s, p) != 1 for s in primes)
        )
        m = [p - u, 1]
    phi = CycRing.get(k, cap=None).phi_mod(p)
    f1 = gfpoly.equal_degree_factor(_subfield_piece(phi, k // r, m, p), d, p)[0]
    factors = sorted(_conjugate_factors(f1, k, p), key=tuple)
    n = gfpoly.degree(phi)
    if (
        len(factors) != n // d
        or any(len(f) != d + 1 for f in factors)
        or any(f == g for f, g in zip(factors, factors[1:]))
    ):
        raise ConsistencyError(
            f"the conjugates of one factor of Phi_{k} mod {p} are not {n // d} "
            f"distinct polynomials of degree {d}"
        )
    _FACTOR_CACHE[key] = factors
    return factors


def _split_conductor(k: int, p: int) -> int:
    """r = gcd(k, p^j - 1) for the j | d, j < d, d = ord_k(p), that splits
    Phi_k mod p into the most pieces, phi(r)/ord_r(p) of them; the least
    such j on a tie. j = 1 also when d = 1, where r = k.

    j = d is excluded: then r = k, and m would be the factor sought. The
    most pieces make the one piece that is factored the smallest.
    """
    d = _residue_degree(k, p)
    best, most = 0, 0
    for j in range(1, max(d, 2)):
        if d % j == 0:
            r = math.gcd(k, p**j - 1)
            phi_r = math.prod((s - 1) * s ** (e - 1) for s, e in gfpoly.factorint(r).items())
            count = phi_r // _residue_degree(r, p)
            if count > most:
                best, most = r, count
    return best


def _subfield_piece(f: list[int], s: int, m: list[int], p: int) -> list[int]:
    """gcd(f, m(X^s)) for monic f and m over F_p.

    f mod m(X^s) is one fold: with Y = X^s, the coefficient blocks of f of
    length s are the coefficients of a polynomial in Y, which is reduced
    mod m(Y) by Horner from the top block down, a row of s coefficients
    per power of Y. For m = X - u this sums the blocks by Horner in u.

    When f = Phi_k, s = k/r and m is an irreducible factor of Phi_r mod p,
    r | p^j - 1, the piece is the product of the factors of Phi_k whose
    roots zeta have zeta^s a root of m, phi(k) deg(m)/phi(r) of them
    counted by degree: the roots of m are zeta_r^b for deg(m) units b mod
    r, and the units a mod k with a = b mod r number phi(k)/phi(r) for
    each b.
    """
    padded = f + [0] * (-len(f) % s)
    blocks = [padded[i : i + s] for i in range(0, len(padded), s)]
    e = gfpoly.degree(m)
    rem = [[0] * s for _ in range(e)]
    for block in reversed(blocks):
        # rem * Y + block, and Y^e = -(m_0 + m_1 Y + ... + m_(e-1) Y^(e-1))
        top = rem[-1]
        rem = [
            [(x - c * t) % p for x, t in zip(row, top)] if c else row
            for row, c in zip([block] + rem[:-1], m)
        ]
    lifted = [0] * (e * s + 1)
    lifted[::s] = m
    return gfpoly.gcd(lifted, gfpoly.trim([c for row in rem for c in row]), p)


def _conjugate_factors(f1: list[int], k: int, p: int) -> list[list[int]]:
    """The minimal polynomial over F_p of X^a in F_p[X]/(f1), for monic f1,
    at the least member a of each class of (Z/k)^*/<p>.

    X^e mod f1 is tabled for e = 0 .. k - 1 by one shift and reduce per
    step, so the powers y^i = X^(a i mod k) of y = X^a are read from the
    table, and the minimal polynomial of y is a d x (d + 1) linear solve.
    """
    d = gfpoly.degree(f1)
    neg_low = [-c % p for c in f1[:d]]
    table = []
    x = [1] + [0] * (d - 1)
    for _ in range(k):
        table += x
        top = x[-1]
        x = [0] + x[:-1]
        if top:
            x = [(c + top * t) % p for c, t in zip(x, neg_low)]
    done = bytearray(k)
    for s in gfpoly.factorint(k):
        done[::s] = b"\x01" * len(range(0, k, s))
    out = []
    for a in range(k):
        if done[a]:
            continue
        i = a
        while not done[i]:
            done[i] = 1
            i = i * p % k
        cols = [table[e : e + d] for e in (a * i % k * d for i in range(d + 1))]
        out.append(_minimal_polynomial(cols, p))
    return out


def _minimal_polynomial(cols: list[list[int]], p: int) -> list[int]:
    """The monic g of least degree with sum g_i cols[i] = 0 over F_p, for
    d + 1 vectors cols[i] = y^i of length d: the minimal polynomial of y
    in a d-dimensional algebra.

    The d x (d + 1) matrix with these columns is brought to reduced row
    echelon form; its first column c without a pivot is then the
    combination of the pivot columns 0 .. c - 1 read off its rows, and
    row operations keep the linear relations among the columns.
    """
    rows = [list(row) for row in zip(*cols)]
    d = len(rows)
    for c in range(d):
        pivot = next((i for i in range(c, d) if rows[i][c]), None)
        if pivot is None:
            return [-rows[i][c] % p for i in range(c)] + [1]
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        lead = rows[c] = [v * inv % p for v in rows[c]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                t = row[c]
                rows[i] = [(v - t * w) % p for v, w in zip(row, lead)]
    return [-row[d] % p for row in rows] + [1]


class PrimeIdealHandle:
    """A prime of Q(zeta_k) above p, given by a root of unity in a tower.

    The root is the tower element gen^((order/k) * a) for a unit a mod k,
    a primitive k-th root of unity; reduction sends zeta_k to it, so the
    residue field is F_p(root) inside the tower. The root's minimal
    polynomial over F_p, `factor`, is the irreducible factor of Phi_k mod p
    that names the prime.

    The factor is either passed in (prime_handles hands over the minimal
    polynomial root_relabel_map found for this root) or computed with the
    tower's minpoly. A passed factor is checked to be monic of degree
    ord_k(p) with factor(root) = 0, one Horner pass in the tower: the
    minimal polynomial of the root has that degree and divides the
    factor, so the two are equal.

    Either way the constructor then checks that factor divides Phi_k mod
    p, which implies X has order exactly k mod factor. The tower holds the
    root only if k | p^m - 1, so p does not divide k and X^k - 1 is
    separable; the roots of its factor Phi_k are then exactly the elements
    of order k. So factor is squarefree, F_p[X]/(factor) is a product of
    fields, and in each X is a root of Phi_k.

    prime_handles alone skips that division (_listed=True), for factors it
    has already found in the output of factor_cyclotomic_mod_p. Every entry
    of that list divides Phi_k mod p. It is the minimal polynomial over F_p
    of X^a, a a unit mod k, in F_p[X]/(f1), where f1 is an output of
    equal_degree_factor on a piece gcd(Phi_k, m(X^s)). That function
    splits only by gcd and exact quotient, so f1 divides Phi_k; having
    degree ord_k(p), f1 is irreducible, F_p[X]/(f1) is a field, and X has
    order k in it. So X^a has order k, is a root of Phi_k, and its minimal
    polynomial divides Phi_k.
    """

    def __init__(
        self,
        tower: FieldTower,
        k: int,
        a: int,
        factor: list[int] | None = None,
        *,
        _listed: bool = False,
    ):
        if k < 1 or tower.order % k:
            raise ValueError(f"the tower holds no primitive {k}-th root of unity")
        if math.gcd(a, k) != 1:
            raise ValueError("the root exponent must be a unit mod k")
        p = tower.p
        self.tower = tower
        self.k = k
        self.p = p
        self.a = a % k
        self.root = tower.order // k * self.a % tower.order
        if factor is None:
            factor = tower.minpoly(self.root)
        else:
            degree_ok = len(factor) == _residue_degree(k, p) + 1 and factor[-1] == 1
            if not degree_ok or tower.eval_poly(factor, self.root) is not None:
                raise ConsistencyError(
                    f"{factor} is not the minimal polynomial of the residue root"
                )
        self.factor = factor
        self.residue_degree = gfpoly.degree(factor)
        # independent of the tower tables (see the class docstring)
        if not _listed and gfpoly.mod(CycRing.get(k, cap=None).phi_mod(p), factor, p):
            raise ConsistencyError("residue root's minimal polynomial does not divide Phi_k")

    def zeta_image(self, k: int) -> int:
        """The image root^(self.k / k) of zeta_k, for k | self.k, as a tower
        element; reduce depends on the handle only through the image of
        zeta_{z.k}."""
        if self.k % k:
            raise ValueError("value lies outside the handle's cyclotomic field")
        return self.root * (self.k // k) % self.tower.order

    def reduce(self, z: CycNum) -> FqElem:
        """Image of z in the residue field, as an element of the tower.

        zeta_{z.k} goes to zeta_image(z.k), and the power-basis terms are
        summed with Zech additions. Fails if p divides a denominator of z
        (the value is not integral at this prime) or if z does not lie in
        Q(zeta_k).
        """
        step = self.zeta_image(z.k)
        t, p = self.tower, self.p
        # den is the lcm of the coordinates' reduced denominators
        if z.den % p == 0:
            raise ValueError("value is not integral at this prime")
        inv = pow(z.den, p - 2, p)
        acc: FqElem = None
        for i, c in enumerate(z.nums):
            if c:
                acc = t.add(acc, t.mul(t.from_prime(c * inv), step * i))
        return acc

    def __repr__(self) -> str:
        return f"PrimeIdealHandle(k={self.k}, p={self.p}, a={self.a}, factor={self.factor})"
