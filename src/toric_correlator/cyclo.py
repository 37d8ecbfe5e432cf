"""Exact arithmetic in cyclotomic fields Q(zeta_k).

A CycNum holds a conductor k and the coefficient vector of its canonical
representative modulo the k-th cyclotomic polynomial, with Fraction
entries, so equality, conjugation and rationality tests are exact. Values
built from exponent counters are automatically pushed down to the smallest
conductor the counter's support allows (gcd reduction), which keeps the
working conductor tiny even when characters are defined modulo q^2 - 1.
Reduction mod Phi_k divides by its nonzero low terms from the top down,
so a ring keeps only that term list and no table of powers of X.
Division of CycNums is by rational values only.

The module also provides the reduction of a CycNum at a prime ideal above
p, presented by a primitive k-th root of unity in a field tower; the
image is a tower element, and the root's minimal polynomial is the
irreducible factor of Phi_k mod p that names the prime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import gfpoly
from .fields import ConsistencyError, FieldTower, FqElem

_PHI_CACHE: dict[int, list[int]] = {}
_FACTOR_CACHE: dict[tuple[int, int, int], list[list[int]]] = {}

DEFAULT_CONDUCTOR_CAP = 200_000

_ZERO = Fraction(0)  # shared by every zero coefficient; Fractions are immutable


def cyclotomic_poly(k: int) -> list[int]:
    """Coefficients of Phi_k, low-degree-first.

    Phi_k is the product of (X^d - 1)^mu(k/d) over the d | k with k/d
    squarefree. Each factor is a binomial, so multiplying by one, or
    dividing exactly by one, is a single pass over the coefficients.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k in _PHI_CACHE:
        return _PHI_CACHE[k]
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
    _PHI_CACHE[k] = poly
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
    def get(cls, k: int, cap: int = DEFAULT_CONDUCTOR_CAP) -> "CycRing":
        if k > cap:
            raise ValueError(f"conductor {k} exceeds cap {cap}")
        ring = cls._cache.get(k)
        if ring is None:
            ring = cls(k)
            cls._cache[k] = ring
        return ring

    def reduce_vector(self, vec: list) -> tuple[Fraction, ...]:
        """Reduce a coefficient vector of length <= k to the basis.

        The reduction runs in the entries' own type, so an int vector is
        reduced in integers; only the final coefficients become Fractions.
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
        return tuple([Fraction(c) if c else _ZERO for c in out])

    def embed(self, k_small: int, coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        step = self.k // k_small
        vec = [0] * self.k
        for i, c in enumerate(coeffs):
            if c:
                vec[i * step] += c
        return self.reduce_vector(vec)

    def mul(
        self, a: tuple[Fraction, ...], b: tuple[Fraction, ...]
    ) -> tuple[Fraction, ...]:
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
    """An element of Q(zeta_k) in canonical coordinates mod Phi_k."""

    k: int
    coeffs: tuple[Fraction, ...]

    __hash__ = None  # cross-conductor equality makes hashing unreliable

    @staticmethod
    def rational(x) -> "CycNum":
        return CycNum(1, (Fraction(x),))

    @staticmethod
    def zeta(k: int, e: int = 1) -> "CycNum":
        return CycNum.from_counter(k, {e: 1})

    @staticmethod
    def from_counter(k: int, counter: dict) -> "CycNum":
        """Sum of c * zeta_k^e over the counter, conductor-reduced.

        The conductor drops by the gcd of k with the exponent support, so
        sums of a few roots of unity stay in small fields regardless of k.
        Counter values are ints or Fractions; they are summed and reduced
        in the type given, so integer counters stay in integer arithmetic
        until the final coefficients are built.
        """
        clean: dict[int, int | Fraction] = {}
        for e, c in counter.items():
            if c:
                e %= k
                clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            return CycNum.rational(0)
        g = math.gcd(k, *clean.keys())
        k2 = k // g
        if k2 == 1:
            return CycNum.rational(sum(clean.values()))
        if k2 == 2:
            total = 0
            for e, c in clean.items():
                total += c if (e // g) % 2 == 0 else -c
            return CycNum.rational(total)
        ring = CycRing.get(k2)
        vec = [0] * k2
        for e, c in clean.items():
            vec[e // g] += c
        return CycNum._make(k2, ring.reduce_vector(vec))

    @staticmethod
    def _make(k: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        # fold values that reduced to a rational down to conductor 1
        if k > 1 and not any(coeffs[1:]):
            return CycNum(1, (coeffs[0],))
        return CycNum(k, coeffs)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _pair(a: "CycNum", b: "CycNum"):
        if a.k == b.k:
            return a.k, a.coeffs, b.coeffs
        kk = math.lcm(a.k, b.k)
        ring = CycRing.get(kk)
        va = a.coeffs if a.k == kk else ring.embed(a.k, a.coeffs)
        vb = b.coeffs if b.k == kk else ring.embed(b.k, b.coeffs)
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
        return CycNum._make(kk, tuple(x + y for x, y in zip(va, vb)))

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum(self.k, tuple(-c for c in self.coeffs))

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
        if other.k == 1:
            c = other.coeffs[0]
            return CycNum._make(self.k, tuple([x * c if x else x for x in self.coeffs]))
        if self.k == 1:
            c = self.coeffs[0]
            return CycNum._make(other.k, tuple([x * c if x else x for x in other.coeffs]))
        kk, va, vb = CycNum._pair(self, other)
        return CycNum._make(kk, CycRing.get(kk).mul(va, vb))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycNum":
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        r = other.as_rational()
        if r is None:
            raise ValueError("division by an irrational value is not supported")
        if r == 0:
            raise ZeroDivisionError("division by zero")
        return self * (Fraction(1) / r)

    def __eq__(self, other) -> bool:
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _, va, vb = CycNum._pair(self, other)
        return va == vb

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field structure --------------------------------------------------

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.k == 1:
            return self
        return CycNum.from_counter(
            self.k, {(-i) % self.k: c for i, c in enumerate(self.coeffs) if c}
        )

    def abs2(self) -> "CycNum":
        """Squared modulus z * conj(z), exact."""
        return self * self.conj()

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if self.k == 1:
            return self.coeffs[0]
        if not any(self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def to_complex(self) -> complex:
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                ang = 2.0 * math.pi * i / self.k
                total += float(c) * complex(math.cos(ang), math.sin(ang))
        return total

    def to_json_dict(self) -> dict:
        z = self.to_complex()
        return {
            "conductor": self.k,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
            "approx": {"re": z.real, "im": z.imag},
        }

    def __repr__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return f"CycNum({r})"
        z = self.to_complex()
        return f"CycNum(k={self.k}, ~{z.real:.6g}{z.imag:+.6g}j)"


def factor_cyclotomic_mod_p(k: int, p: int, seed: int = 0) -> list[list[int]]:
    """Irreducible factors of Phi_k mod p, sorted by coefficient tuple.

    Requires p odd and coprime to k; then all factors share the degree
    d = ord of p modulo k and the list has phi(k)/d entries. Deterministic
    for a fixed seed.
    """
    if p == 2:
        raise ValueError("p must be odd")
    if math.gcd(k, p) != 1:
        raise ValueError("p must not divide k")
    key = (k, p, seed)
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]
    d = 1  # the order of p mod k; every power is 0 mod 1, so Phi_1 has d = 1
    while k > 1 and pow(p, d, k) != 1:
        d += 1
    f = [c % p for c in cyclotomic_poly(k)]
    while f and f[-1] == 0:
        f.pop()
    if len(f) == d + 1:
        factors = [gfpoly.monic(f, p)]
    else:
        factors = gfpoly.equal_degree_factor(f, d, p, seed)
    _FACTOR_CACHE[key] = factors
    return factors


class PrimeIdealHandle:
    """A prime of Q(zeta_k) above p, given by a root of unity in a tower.

    The root is the tower element gen^((order/k) * a) for a unit a mod k,
    a primitive k-th root of unity; reduction sends zeta_k to it, so the
    residue field is F_p(root) inside the tower. The root's minimal
    polynomial over F_p, `factor`, is the irreducible factor of Phi_k mod p
    that names the prime.

    The constructor checks only that factor divides Phi_k mod p: that
    implies X has order exactly k mod factor. The tower holds the root only
    if k | p^m - 1, so p does not divide k and X^k - 1 is separable; the
    roots of its factor Phi_k are then exactly the elements of order k. So
    factor is squarefree, F_p[X]/(factor) is a product of fields, and in
    each X is a root of Phi_k.
    """

    def __init__(self, tower: FieldTower, k: int, a: int):
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
        self.factor = tower.minpoly(self.root)
        self.residue_degree = gfpoly.degree(self.factor)
        # independent of the tower tables (see the class docstring)
        if gfpoly.mod([c % p for c in cyclotomic_poly(k)], self.factor, p):
            raise ConsistencyError("residue root's minimal polynomial does not divide Phi_k")

    def reduce(self, z: CycNum) -> FqElem:
        """Image of z in the residue field, as an element of the tower.

        zeta_{z.k} goes to root^(k / z.k), and the power-basis terms are
        summed with Zech additions. Fails if p divides a denominator of z
        (the value is not integral at this prime) or if z does not lie in
        Q(zeta_k).
        """
        if self.k % z.k:
            raise ValueError("value lies outside the handle's cyclotomic field")
        t, p = self.tower, self.p
        step = self.root * (self.k // z.k)
        acc: FqElem = None
        for i, c in enumerate(z.coeffs):
            if c:
                if c.denominator % p == 0:
                    raise ValueError("value is not integral at this prime")
                coeff = t.from_prime(c.numerator * pow(c.denominator, p - 2, p))
                acc = t.add(acc, t.mul(coeff, step * i))
        return acc

    def reduce_to_int(self, z: CycNum) -> int:
        """Reduction when the image lies in the prime field."""
        return self.tower.to_prime(self.reduce(z))

    def __repr__(self) -> str:
        return f"PrimeIdealHandle(k={self.k}, p={self.p}, a={self.a}, factor={self.factor})"
