"""Polynomial arithmetic over the prime field F_p.

Polynomials are lists of int coefficients in low-degree-first order,
reduced mod p, with no trailing zeros (the zero polynomial is []).
Everything here is plain list manipulation; no classes, so the field
tower can juggle thousands of these cheaply.

Long products are packed: each operand becomes one big integer with a
64-bit lane per coefficient, a single integer product (Karatsuba inside
CPython) does the convolution, and the lanes are read back and reduced
mod p. Short products stay schoolbook, where packing costs more than it
saves.
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array

# powmod reduces by a Barrett step at modulus degree n >= PACKED_DEGREE,
# and mul packs when both operands have at least PACKED_DEGREE - 1
# coefficients, so every product of such a step is packed (mu has n - 1).
# Measured per modular product inside powmod, CPython 3.11 on x86-64,
# p = 3, 7, 31, 193: at degree 9-10 neither way wins consistently
# (16-43 us), at degree 11-12 packing is 1.0-1.6x faster, at 16 1.5-2.5x
# and at 32 2.4-4.2x; at degree 4-6 it would be 1.3-2.3x slower.
PACKED_DEGREE = 11

_LANE_BYTES = 8
assert array("Q").itemsize == _LANE_BYTES
_BIG_ENDIAN = sys.byteorder == "big"


def lane_convolve(a: list[int], b: list[int], bound: int) -> array:
    """The convolution of two sequences of ints in range(bound + 1), as
    len(a) + len(b) - 1 unsigned 64-bit lanes.

    Each sequence is packed into one big integer with a lane per entry, and
    one integer product (Karatsuba inside CPython) does the convolution. A
    lane collects at most min(len(a), len(b)) products of two entries; a
    ValueError is raised unless that sum fits in its 64 bits, so no lane
    ever carries into the next.
    """
    if min(len(a), len(b)) * bound * bound >> 8 * _LANE_BYTES:
        raise ValueError("coefficient sums would overflow a 64-bit lane")
    pa = _pack(a)
    prod = pa * pa if a is b else pa * _pack(b)
    lanes = array("Q", prod.to_bytes((len(a) + len(b) - 1) * _LANE_BYTES, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes


def _pack(a: list[int]) -> int:
    lanes = array("Q", a)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: list[int]) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(a) - 1


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    if min(len(a), len(b)) >= PACKED_DEGREE - 1:
        return trim([c % p for c in lane_convolve(a, b, p - 1)])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return trim(out)


def scale(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    if c == 0:
        return []
    return trim([x * c % p for x in a])


def divmod_poly(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    if len(a) <= n:
        return [], trim(list(a))
    a = list(a)
    q = [0] * (len(a) - n)
    inv_lead = pow(b[-1], p - 2, p)
    low = b[:-1]
    # clear the coefficients of a from the top down to degree n; the
    # cleared ones are never read again and are cut off at the end
    for top in range(len(a) - 1, n - 1, -1):
        c = a[top] * inv_lead % p
        if c:
            q[top - n] = c
            for i, cb in enumerate(low, top - n):
                a[i] = (a[i] - c * cb) % p
    return trim(q), trim(a[:n])


def mod(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_poly(a, b, p)[1]


def monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    return scale(a, pow(a[-1], p - 2, p), p)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def barrett_reducer(m: list[int], p: int):
    """A function giving the remainder mod m of any polynomial of degree at
    most 2 deg(m) - 2.

    With n = deg m and mu = X^(2n-2) div m, the quotient of A = A1 X^n + A0
    (deg A0 < n) is exactly (A1 * mu) div X^(n-2), so a remainder costs two
    products and no division. mu is the reversal of 1/rev(m) mod X^(n-1),
    found by Newton iteration; m need not be monic. Requires n >= 2.
    """
    n = degree(m)
    if n < 2:
        raise ValueError("the Barrett reducer needs a modulus of degree >= 2")
    prec = n - 1
    rev = m[::-1]
    inv = [pow(rev[0], p - 2, p)]
    k = 1
    while k < prec:
        # g <- g (2 - rev g) doubles the number of correct coefficients
        k = min(2 * k, prec)
        inv = mul(inv, sub([2], mul(rev[:k], inv, p)[:k], p), p)[:k]
    mu = (inv + [0] * prec)[prec - 1 :: -1]

    def reduce(a: list[int]) -> list[int]:
        if len(a) <= n:
            return a
        q = mul(a[n:], mu, p)[n - 2 :]
        return sub(a[:n], mul(q, m, p)[:n], p)

    return reduce


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by square and multiply.

    At modulus degree PACKED_DEGREE and above the products are packed and
    each remainder is a Barrett step; below it, schoolbook products and
    long division.
    """
    barrett = barrett_reducer(m, p) if degree(m) >= PACKED_DEGREE else None
    result = [1]
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mul(result, base, p)
            result = barrett(result) if barrett else mod(result, m, p)
        base = mul(base, base, p)
        base = barrett(base) if barrett else mod(base, m, p)
        e >>= 1
    return result


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the sizes used here."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def element_order_check(a: list[int], m: list[int], p: int, n: int) -> bool:
    """True iff a has multiplicative order exactly n mod m (n must be a
    multiple of the true order for the factored test to make sense; callers
    pass n = size of the unit group)."""
    if powmod(a, n, m, p) != [1]:
        return False
    for r in factorint(n):
        if powmod(a, n // r, m, p) == [1]:
            return False
    return True


# (p, m) -> the first primitive modulus, for the whole process
_MODULUS_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def first_primitive_modulus(p: int, m: int) -> list[int]:
    """Lexicographically first monic primitive polynomial of degree m over F_p,
    as a new list on each call.

    Candidates c0 + c1 X + ... + X^m are scanned with (c0, ..., c_{m-1}) in
    lexicographic order, so ties break toward small low-degree coefficients
    and moduli are deterministic across runs. Two filters decide:

    - (-1)^m c0 is the norm of a root, and the norm of a generator of
      F_{p^m}^* generates F_p^*, so (-1)^m c0 must be a primitive root mod p;
    - X must have order exactly p^m - 1 modulo f. Its powers are then
      p^m - 1 distinct units of F_p[X]/(f), so that ring is a field and f
      is irreducible without a separate test.

    The result depends on (p, m) alone, so it is kept per process in
    _MODULUS_CACHE, as cyclo keeps its factorizations, and not per group:
    every group over the same field would scan to the same modulus. Towers
    ask only for p^m <= fields.TABLE_CAP, about two hundred (p, m) in all,
    so the memo stays at a few kilobytes.
    """
    cached = _MODULUS_CACHE.get((p, m))
    if cached is None:
        cached = _MODULUS_CACHE[(p, m)] = tuple(_scan_primitive_modulus(p, m))
    return list(cached)


def _scan_primitive_modulus(p: int, m: int) -> list[int]:
    order = p**m - 1
    sign = (-1) ** m
    unit_primes = factorint(p - 1)
    for c0 in range(1, p):
        norm = sign * c0 % p
        if any(pow(norm, (p - 1) // r, p) == 1 for r in unit_primes):
            continue
        for tail in itertools.product(range(p), repeat=m - 1):
            f = [c0, *tail, 1]
            if element_order_check([0, 1], f, p, order):
                return f
    raise ValueError(f"no primitive polynomial of degree {m} over F_{p}")


def equal_degree_split(f: list[int], d: int, p: int, rng: random.Random) -> list[int]:
    """One Cantor-Zassenhaus splitting attempt: returns a proper monic factor
    of f, or f itself if the attempt failed. All irreducible factors of f
    must have degree d; p must be odd."""
    n = degree(f)
    a = [rng.randrange(p) for _ in range(n)]
    trim(a)
    if degree(a) < 1:
        return f
    t = powmod(a, (p**d - 1) // 2, f, p)
    g = gcd(sub(t, [1], p), f, p)
    if 0 < degree(g) < n:
        return g
    return f


def equal_degree_factor(f: list[int], d: int, p: int, seed: int = 0) -> list[list[int]]:
    """Full factorization of squarefree f whose irreducible factors all
    have degree d, made monic. Deterministic for a fixed seed; output
    sorted by coefficient tuple (low-degree first).

    Raises ValueError unless p is odd and the precondition holds, without
    which the splitting loop need not end: d divides deg f >= 1, f divides
    X^(p^d) - X (so f is squarefree and its factors have degrees dividing
    d), and gcd(X^(p^(d/l)) - X, f) = 1 for each prime l | d (so none has
    a degree that properly divides d). The powers X^(p^j) mod f come from
    d powmods with exponent p.
    """
    f = monic(f, p)
    n = degree(f)
    if p % 2 == 0 or d < 1 or n < 1 or n % d:
        raise ValueError(f"f of degree {n} has no factors of degree {d} to split over F_{p}")
    x = [0, 1]
    t = x
    proper = {d // l for l in factorint(d)}
    for j in range(1, d + 1):
        t = powmod(t, p, f, p)
        if j in proper and degree(gcd(sub(t, x, p), f, p)) > 0:
            raise ValueError(f"f has an irreducible factor of degree dividing {j} < {d}")
    if mod(sub(t, x, p), f, p):
        raise ValueError(f"f does not divide X^({p}^{d}) - X")
    rng = random.Random(seed)
    work = [f]
    done: list[list[int]] = []
    while work:
        g = work.pop()
        if degree(g) == d:
            done.append(g)
            continue
        h = equal_degree_split(g, d, p, rng)
        while h == g:
            h = equal_degree_split(g, d, p, rng)
        work.append(h)
        work.append(divmod_poly(g, h, p)[0])
    done.sort(key=tuple)
    return done

