"""Reference polynomial helpers over F_p that only the tests use: sum,
evaluation at a prime-field point, and Rabin's irreducibility test. They
rest on the library's gfpoly primitives but never on its factoring, so the
tests can check factors and moduli against them."""

from toric_correlator.gfpoly import degree, factorint, gcd, powmod, sub, trim


def add(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def eval_poly(a: list[int], x: int, p: int) -> int:
    """Evaluate at a prime-field point by Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test: f (monic, degree n >= 1) is irreducible over F_p iff
    X^(p^n) = X mod f and gcd(X^(p^(n/r)) - X, f) = 1 for all prime
    divisors r of n."""
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
