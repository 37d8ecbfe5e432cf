"""Polynomial arithmetic over the prime field F_p.

Polynomials are lists of int coefficients in low-degree-first order,
reduced mod p, with no trailing zeros (the zero polynomial is []).
Everything here is plain list manipulation; no classes, so the field
tower can juggle thousands of these cheaply.
"""

from __future__ import annotations

import itertools
import random


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: list[int]) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(a) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


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
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        c = a[-1] * inv_lead % p
        q[shift] = c
        for i, cb in enumerate(b):
            a[shift + i] = (a[shift + i] - c * cb) % p
        trim(a)
    return trim(q), a


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


def xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1, p), p)
        v0, v1 = v1, sub(v0, mul(q, v1, p), p)
    if r0 and r0[-1] != 1:
        c = pow(r0[-1], p - 2, p)
        r0, u0, v0 = scale(r0, c, p), scale(u0, c, p), scale(v0, c, p)
    return r0, u0, v0


def powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by square and multiply."""
    result = [1]
    base = mod(a, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
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


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: f (monic emitted by callers, degree n >= 1) is irreducible
    over F_p iff X^(p^n) = X mod f and gcd(X^(p^(n/r)) - X, f) = 1 for all
    prime divisors r of n."""
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = [0, 1]
    for r in factorint(n):
        t = powmod(x, p ** (n // r), f, p)
        if degree(gcd(sub(t, x, p), f, p)) != 0:
            return False
    t = powmod(x, p**n, f, p)
    return sub(t, x, p) == []


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


def first_primitive_modulus(p: int, m: int) -> list[int]:
    """Lexicographically first monic primitive polynomial of degree m over F_p.

    Candidates c0 + c1 X + ... + X^m are scanned with (c0, ..., c_{m-1}) in
    lexicographic order, so ties break toward small low-degree coefficients
    and moduli are deterministic across runs. Two filters decide:

    - (-1)^m c0 is the norm of a root, and the norm of a generator of
      F_{p^m}^* generates F_p^*, so (-1)^m c0 must be a primitive root mod p;
    - X must have order exactly p^m - 1 modulo f. Its powers are then
      p^m - 1 distinct units of F_p[X]/(f), so that ring is a field and f
      is irreducible without a separate test.
    """
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
    """Full factorization of monic squarefree f whose irreducible factors all
    have degree d. Deterministic for a fixed seed; output sorted by
    coefficient tuple (low-degree first)."""
    rng = random.Random(seed)
    work = [monic(f, p)]
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


def eval_poly(a: list[int], x: int, p: int) -> int:
    """Evaluate at a prime-field point by Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc
