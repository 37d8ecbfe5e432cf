"""Finite fields presented through one discrete-log table.

A tower is the field F_{p^m} realized as F_p[X]/(modulus) for a primitive
modulus, so the class g of X generates the multiplicative group. A nonzero
element is stored as its discrete log base g (an int in range(p^m - 1));
zero is None. Multiplication is then index addition, and addition goes
through a precomputed Zech logarithm table zech[e] = dlog(1 + g^e).

Every subfield F_{p^d} with d | m lives inside the same table as {0} plus
the powers of g^((p^m-1)/(p^d-1)), so norms, traces, membership tests and
subfield discrete logs are all integer arithmetic on exponents.
"""

from __future__ import annotations

import math

from . import gfpoly

# None encodes zero, an int in range(p^m - 1) encodes a power of the
# distinguished generator.
FqElem = int | None

DEFAULT_TABLE_CAP = 1 << 20


class ConsistencyError(RuntimeError):
    """An internal cross-check that must hold by theory failed."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _shift_row(p: int, lead: int, mods: list[int], low: int, start: int) -> list[int]:
    """start + sum over j of ((a_j - lead * mods[j]) mod p) * p^(low + j),
    for every a in range(p^len(mods)) with base-p digits a_j.

    Each digit's term depends on that digit alone, so the row is built as
    one outer sum per digit, from the top digit down: the last digit added
    varies fastest, as a_0 does in a.
    """
    row = [start]
    for j in range(len(mods) - 1, -1, -1):
        w, c = p ** (low + j), lead * mods[j]
        terms = [(a - c) % p * w for a in range(p)]
        row = [x + y for x in row for y in terms]
    return row


class FieldTower:
    """F_{p^m} with exp/dlog/Zech tables and subfield index arithmetic."""

    def __init__(
        self,
        p: int,
        m: int,
        modulus: list[int] | None = None,
        table_cap: int = DEFAULT_TABLE_CAP,
    ):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("m must be positive")
        size = p**m
        if size > table_cap:
            raise ValueError(f"field size {size} exceeds table cap {table_cap}")
        self.p = p
        self.m = m
        self.size = size
        self.order = size - 1
        if modulus is None:
            # the scan proves the modulus primitive, hence irreducible
            modulus = gfpoly.first_primitive_modulus(p, m)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not gfpoly.is_irreducible(modulus, p):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        self._build_tables()
        # exponent of -1; p = 2 never reaches the code that uses it
        self.neg_one_exp = self.order // 2 if p > 2 else 0
        self._prime_exp: list[FqElem] = [None] + [
            self._dlog[c] for c in range(1, p)
        ]
        self._prime_val = {
            e: c for c, e in enumerate(self._prime_exp) if e is not None
        }

    def _build_tables(self) -> None:
        """exp[e] = g^e as its base-p packed coefficients, dlog the reverse map,
        zech[e] = dlog(1 + g^e).

        A packed element is also its dlog index, so the walk through the
        powers of X stays in packed ints: v -> X v shifts the digits up and
        subtracts lead * modulus digitwise mod p. For m = 2 that step is a
        closed formula. Otherwise the low m - 1 digits split into a low
        chunk of h = m // 2 digits and a high chunk of the rest, and
        X v = TA[lead][low] + TB[v // p^h]: TA gives output digits 0..h and
        TB digits h+1..m-1, so the two sums never carry into each other.
        TA and TB have p^(h+1) and p^(m-h) entries, about p^ceil((m+1)/2);
        for m = 2 they would be as large as the field.
        """
        p, m, order, mod = self.p, self.m, self.order, self.modulus
        exp_table = [0] * order
        v = 1
        if m == 2:
            m0, m1 = mod[0], mod[1]
            for e in range(order):
                exp_table[e] = v
                c1, c0 = divmod(v, p)
                v = (c0 - c1 * m1) % p * p + (-c1 * m0) % p
        else:
            h = m // 2
            ph, pb = p**h, p ** (m - 1 - h)
            # digit i of X v is digit i of p v minus lead * mod[i]; TB's
            # index is lead * pb plus the digits it shifts
            ta = [_shift_row(p, lead, mod[1 : h + 1], 1, -lead * mod[0] % p) for lead in range(p)]
            tb = [x for lead in range(p) for x in _shift_row(p, lead, mod[h + 1 : m], h + 1, 0)]
            for e in range(order):
                exp_table[e] = v
                hi = v // ph
                v = ta[hi // pb][v - hi * ph] + tb[hi]
        # X^order = 1 and X^(order/r) != 1 for every prime r | order say X
        # has order exactly p^m - 1, so its powers are distinct
        if v != 1 or any(exp_table[order // r] == 1 for r in gfpoly.factorint(order)):
            raise ValueError("modulus is not primitive")
        dlog: list[int | None] = [None] * self.size
        for e, v in enumerate(exp_table):
            dlog[v] = e
        # 1 + v adds one to the constant digit, and a constant digit p - 1
        # wraps back to 0: it rotates each block of p consecutive packed
        # values. Rotating dlog's blocks in place makes it read dlog(1 + v)
        # at v; zech is read through exp, and dlog is rotated back. No
        # field-sized copy is made, so peak memory stays that of the tables.
        first = dlog[::p]
        for c in range(p - 1):
            dlog[c::p] = dlog[c + 1 :: p]
        dlog[p - 1 :: p] = first
        self._zech = list(map(dlog.__getitem__, exp_table))
        last = dlog[p - 1 :: p]
        for c in range(p - 1, 0, -1):
            dlog[c::p] = dlog[c - 1 :: p]
        dlog[::p] = last
        self._exp = exp_table
        self._dlog = dlog

    # -- encoding ---------------------------------------------------------

    def pack(self, coeffs: list[int]) -> int:
        pk = 0
        for c in reversed(coeffs):
            pk = pk * self.p + c % self.p
        return pk

    def from_coeffs(self, coeffs: list[int]) -> FqElem:
        pk = self.pack(coeffs)
        if pk == 0:
            return None
        e = self._dlog[pk]
        assert e is not None
        return e

    def to_coeffs(self, a: FqElem) -> list[int]:
        pk = 0 if a is None else self._exp[a]
        out = []
        for _ in range(self.m):
            out.append(pk % self.p)
            pk //= self.p
        return out

    def from_prime(self, c: int) -> FqElem:
        return self._prime_exp[c % self.p]

    def to_prime(self, a: FqElem) -> int:
        """Inverse of from_prime; raises on elements outside F_p."""
        if a is None:
            return 0
        try:
            return self._prime_val[a]
        except KeyError:
            raise ValueError("element does not lie in the prime field") from None

    # -- arithmetic -------------------------------------------------------

    @property
    def zero(self) -> FqElem:
        return None

    @property
    def one(self) -> FqElem:
        return 0

    @property
    def gen(self) -> FqElem:
        return 1 if self.order > 1 else 0

    def mul(self, a: FqElem, b: FqElem) -> FqElem:
        if a is None or b is None:
            return None
        return (a + b) % self.order

    def inv(self, a: FqElem) -> FqElem:
        if a is None:
            raise ZeroDivisionError("zero is not invertible")
        return -a % self.order

    def div(self, a: FqElem, b: FqElem) -> FqElem:
        return self.mul(a, self.inv(b))

    def neg(self, a: FqElem) -> FqElem:
        if a is None or self.p == 2:
            return a
        return (a + self.neg_one_exp) % self.order

    def add(self, a: FqElem, b: FqElem) -> FqElem:
        if a is None:
            return b
        if b is None:
            return a
        z = self._zech[(b - a) % self.order]
        if z is None:
            return None
        return (a + z) % self.order

    def sub(self, a: FqElem, b: FqElem) -> FqElem:
        return self.add(a, self.neg(b))

    def power(self, a: FqElem, k: int) -> FqElem:
        if a is None:
            if k > 0:
                return None
            if k == 0:
                return 0
            raise ZeroDivisionError("negative power of zero")
        return a * k % self.order

    def frobenius(self, a: FqElem, i: int = 1) -> FqElem:
        return self.power(a, self.p**i)

    def sqrt(self, a: FqElem) -> FqElem:
        """One of the two square roots; raises if a is not a square."""
        if a is None:
            return None
        if a % 2:
            raise ValueError("element is not a square")
        return a // 2

    # -- subfields --------------------------------------------------------

    def _cofactor(self, d: int) -> int:
        if self.m % d:
            raise ValueError(f"F_{self.p}^{d} is not a subfield")
        return self.order // (self.p**d - 1)

    def subgen(self, d: int) -> FqElem:
        """Generator of the multiplicative group of F_{p^d}."""
        return self._cofactor(d) % self.order

    def in_subfield(self, d: int, a: FqElem) -> bool:
        return a is None or a % self._cofactor(d) == 0

    def sub_dlog(self, d: int, a: FqElem) -> int:
        """Discrete log of a nonzero subfield element base subgen(d)."""
        if a is None:
            raise ValueError("zero has no discrete log")
        n = self._cofactor(d)
        if a % n:
            raise ValueError("element does not lie in the subfield")
        return (a // n) % (self.p**d - 1)

    def sub_exp(self, d: int, e: int) -> FqElem:
        return e % (self.p**d - 1) * self._cofactor(d) % self.order

    def subfield_trace(self, d: int, a: FqElem) -> int:
        """Absolute trace F_{p^d} -> F_p of an element of the subfield,
        returned as an int in range(p)."""
        if not self.in_subfield(d, a):
            raise ValueError("element does not lie in the subfield")
        acc: FqElem = None
        for i in range(d):
            acc = self.add(acc, self.frobenius(a, i))
        return self.to_prime(acc)

    # -- polynomials ------------------------------------------------------

    def eval_poly(self, coeffs: list[int], a: FqElem) -> FqElem:
        """Evaluate a prime-field polynomial (low-degree-first) at a."""
        acc: FqElem = None
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, a), self.from_prime(c))
        return acc

    def minpoly(self, a: FqElem) -> list[int]:
        """Minimal polynomial of a over F_p, low-degree-first, monic."""
        if a is None:
            return [0, 1]
        orbit = [a]
        e = a * self.p % self.order
        while e != a:
            orbit.append(e)
            e = e * self.p % self.order
        coeffs: list[FqElem] = [self.one]
        for c in orbit:
            nxt: list[FqElem] = [None] * (len(coeffs) + 1)
            mc = self.neg(c)
            for i, co in enumerate(coeffs):
                nxt[i + 1] = self.add(nxt[i + 1], co)
                nxt[i] = self.add(nxt[i], self.mul(co, mc))
            coeffs = nxt
        return [self.to_prime(c) for c in coeffs]

    def describe(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def build_tower(
    p: int,
    m: int,
    subfield_modulus: tuple[int, list[int]] | None = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> FieldTower:
    """Build F_{p^m}, optionally pinning a subfield generator's min-poly.

    With subfield_modulus = (d, pin), the ambient modulus is chosen so that
    the distinguished generator g^((p^m-1)/(p^d-1)) of F_{p^d} has minimal
    polynomial pin. The pin must be monic irreducible of degree d whose
    roots generate the subfield's multiplicative group; results computed in
    a pinned tower are then literal, not just Galois-conjugate, matches.
    """
    tower = FieldTower(p, m, table_cap=table_cap)
    if subfield_modulus is None:
        return tower
    d, pin = subfield_modulus
    if m % d:
        raise ValueError("pinned degree does not divide m")
    pin = [c % p for c in pin]
    if len(pin) != d + 1 or pin[-1] != 1:
        raise ValueError("pin must be monic of degree d")
    if tower.minpoly(tower.subgen(d)) == pin:
        return tower
    sub_order = p**d - 1
    cof = tower.order // sub_order
    root_exp = None
    for j in range(1, sub_order):
        if math.gcd(j, sub_order) != 1:
            continue
        if tower.eval_poly(pin, j * cof % tower.order) is None:
            root_exp = j
            break
    if root_exp is None:
        raise ValueError("pin polynomial has no primitive root in the subfield")
    # lift to a primitive exponent congruent to root_exp mod sub_order, so
    # the new ambient generator restricts to the pinned subfield generator
    e = root_exp
    while math.gcd(e, tower.order) != 1:
        e += sub_order
    pinned = FieldTower(p, m, modulus=tower.minpoly(e), table_cap=table_cap)
    if pinned.minpoly(pinned.subgen(d)) != pin:
        raise ConsistencyError("subfield pinning failed")
    return pinned
