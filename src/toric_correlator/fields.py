"""Finite fields presented through discrete logs and Zech logarithms.

A tower is the field F_{p^m} realized as F_p[X]/(modulus) for a primitive
modulus, so the class g of X generates the multiplicative group. A nonzero
element is stored as its discrete log base g (an int in range(p^m - 1));
zero is None. Multiplication is then index addition, and addition goes
through the Zech logarithm zech(e) = dlog(1 + g^e).

A tower has even degree m = 2f: it is F_{q^2} over F_q, q = p^f, and
n = g^(q+1) generates F_q^*. It keeps tables of about q entries (the logs
base n of F_q, the coordinates over F_q of g^b for b <= q, and the logs of
the lines n^t + g) and derives each Zech log from them on first use, in a
memo list. Odd degrees are rejected: PGL2(F_q) needs F_{q^2}, and every
subfield it uses is read from that tower.

Every subfield F_{p^d} with d | m is {0} plus the powers of
g^((p^m-1)/(p^d-1)), so norms, traces, membership tests and subfield
discrete logs are all integer arithmetic on exponents.
"""

from __future__ import annotations

import math
from operator import mul

from . import gfpoly

# None encodes zero, an int in range(p^m - 1) encodes a power of the
# distinguished generator.
FqElem = int | None

TABLE_CAP = 1 << 20


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


class FieldTower:
    """F_{p^m} with Zech-log addition and subfield index arithmetic."""

    def __init__(
        self,
        p: int,
        m: int,
        modulus: list[int] | None = None,
    ):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1 or m % 2:
            raise ValueError(f"m = {m}: a tower has positive even degree")
        size = p**m
        if size > TABLE_CAP:
            raise ValueError(f"field size {size} exceeds table cap {TABLE_CAP}")
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
            # X of order p^m - 1 proves the modulus irreducible, as above
            if not gfpoly.element_order_check([0, 1], modulus, p, self.order):
                raise ValueError("modulus is not primitive")
        self.modulus = modulus
        # exponent of -1; p = 2 never reaches the code that uses it
        self.neg_one_exp = self.order // 2 if p > 2 else 0
        self._build_tables()
        # F_p lies in F_q, and log_g c = (q + 1) log_n c
        self._prime_exp = [None] + [(self._q + 1) * self._flog[c] for c in range(1, p)]
        self._prime_val = {
            e: c for c, e in enumerate(self._prime_exp) if e is not None
        }

    def _build_tables(self) -> None:
        """Tables of about q entries for m = 2f, q = p^f, from which zech(d)
        is derived on first use.

        With n = g^(q+1), every element is x + y g for x, y in F_q, and the
        tables are:

        - _fexp[i] = the coefficients of n^i, _flog the map from n^i
          packed in base p to i, and _zq[i] = log_n(1 + n^i), None where
          1 + n^i = 0;
        - the coordinates g^b = n^_xs[b] + n^_ys[b] g for 0 <= b <= q (None
          for a zero coordinate), from g^(b+1) = -n y_b + (x_b + s y_b) g,
          since g^2 = s g - n with s = g + g^q; the F_q sums go through _zq;
        - _pd[t] = dlog(n^t + g): for 2 <= b <= q both coordinates of g^b
          are nonzero and g^b = n^y (n^(x - y) + g), so _pd[x - y] =
          b - (q + 1) y. The q - 1 powers g^2, ..., g^q lie in distinct
          cosets of F_q^*, so every t is hit once.

        Every coordinate pair is checked against a walk through the first
        q + 1 powers of X; a mismatch raises ConsistencyError. _zech is the
        memo list, filled by add.
        """
        p, m = self.p, self.m
        q = self._q = p ** (m // 2)
        walk = [[1] + [0] * (m - 1)]
        for _ in range(q + 1):
            walk.append(self._times_x(walk[-1]))
        # n v is the F_p-combination of the products n X^k, k < m, with
        # v's coefficients; cols[j] holds digit j of each of them
        rows = [walk[q + 1]]
        for _ in range(m - 1):
            rows.append(self._times_x(rows[-1]))
        cols = list(zip(*rows))
        fexp = [walk[0]]
        for _ in range(q - 1):
            fexp.append([sum(map(mul, fexp[-1], col)) % p for col in cols])
        flog = {self.pack(v): i for i, v in enumerate(fexp[:-1])}
        if fexp.pop() != walk[0] or len(flog) != q - 1:
            raise ConsistencyError("g^(q+1) does not generate F_q^*")
        zq: list[int | None] = [None] * (q - 1)
        for pk, i in flog.items():
            # 1 + v adds one to the constant digit, which wraps at p
            pk1 = pk + 1 if pk % p != p - 1 else pk - p + 1
            if pk1:
                zq[i] = flog[pk1]
        log_s = flog.get(self.pack([a + b for a, b in zip(walk[q], walk[1])]))
        if log_s is None:
            raise ConsistencyError("g + g^q is not in F_q^*")

        def fq_add(u: int | None, w: int | None) -> int | None:
            if u is None or w is None:
                return w if u is None else u
            z = zq[(w - u) % (q - 1)]
            return None if z is None else (u + z) % (q - 1)

        # log_n(-1) is (q - 1)/2, or 0 in characteristic 2
        log_neg_n = self.neg_one_exp // (q + 1) + 1
        xs: list[int | None] = [0]
        ys: list[int | None] = [None]
        for b in range(q):
            y = ys[b]
            xs.append(None if y is None else (log_neg_n + y) % (q - 1))
            ys.append(fq_add(xs[b], None if y is None else (log_s + y) % (q - 1)))
        self._fexp, self._flog, self._zq, self._xs, self._ys = fexp, flog, zq, xs, ys
        for b in range(q + 1):
            if self._point(b) != walk[b]:
                raise ConsistencyError(f"coordinates of g^{b} disagree with X^{b}")
        pd = [0] * (q - 1)
        for b in range(2, q + 1):
            pd[(xs[b] - ys[b]) % (q - 1)] = (b - (q + 1) * ys[b]) % self.order
        self._pd = pd
        self._zech: list[int | None] = [None] * self.order

    def _zech_of(self, d: int) -> int | None:
        """zech(d) = dlog(1 + g^d) from the F_q-sized tables.

        Write d = (q + 1) a + b with 0 <= b <= q. Then g^d = n^a g^b =
        n^(a + x_b) + n^(a + y_b) g, so 1 + g^d has coordinates
        1 + n^(a + x_b), whose log is _zq[a + x_b] (0 when x_b is None, as
        for b = 1), and n^(a + y_b) (zero when y_b is None, as for b = 0).
        """
        q = self._q
        a, b = divmod(d, q + 1)
        xb, yb = self._xs[b], self._ys[b]
        x = 0 if xb is None else self._zq[(a + xb) % (q - 1)]
        return self._join(x, None if yb is None else a + yb)

    def _join(self, x: int | None, y: int | None) -> int | None:
        """dlog(n^x + n^y g), with None for a zero coordinate: n^y g has log
        (q + 1) y + 1, and n^x + n^y g = n^y (n^(x - y) + g)."""
        q = self._q
        if y is None:
            return None if x is None else (q + 1) * x
        if x is None:
            return ((q + 1) * y + 1) % self.order
        return ((q + 1) * y + self._pd[(x - y) % (q - 1)]) % self.order

    # -- encoding ---------------------------------------------------------

    def pack(self, coeffs: list[int]) -> int:
        pk = 0
        for c in reversed(coeffs):
            pk = pk * self.p + c % self.p
        return pk

    def _times_x(self, v: list[int]) -> list[int]:
        """X v for a coefficient list v of length m."""
        lead = v[-1]
        out = [0] + v[:-1]
        if lead:
            out = [(c - lead * r) % self.p for c, r in zip(out, self.modulus)]
        return out

    def _point(self, b: int, j: int = 0) -> list[int]:
        """The coefficients of n^j g^b, 0 <= b <= q, from the coordinates
        of g^b."""
        q1 = self._q - 1
        x, y = self._xs[b], self._ys[b]
        out = [0] * self.m if x is None else list(self._fexp[(x + j) % q1])
        if y is not None:
            yg = self._times_x(self._fexp[(y + j) % q1])
            out = [(u + w) % self.p for u, w in zip(out, yg)]
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
        d = (b - a) % self.order
        z = self._zech[d]
        if z is None:
            # 1 + g^d = 0; otherwise a memo miss
            if d == self.neg_one_exp:
                return None
            z = self._zech[d] = self._zech_of(d)
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
) -> FieldTower:
    """Build F_{p^m}, optionally pinning a subfield generator's min-poly.

    With subfield_modulus = (d, pin), the ambient modulus is chosen so that
    the distinguished generator g^((p^m-1)/(p^d-1)) of F_{p^d} has minimal
    polynomial pin. The pin must be monic irreducible of degree d whose
    roots generate the subfield's multiplicative group; results computed in
    a pinned tower are then literal, not just Galois-conjugate, matches.
    """
    tower = FieldTower(p, m)
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
    pinned = FieldTower(p, m, modulus=tower.minpoly(e))
    if pinned.minpoly(pinned.subgen(d)) != pin:
        raise ConsistencyError("subfield pinning failed")
    return pinned
