"""Reduction of correlation constants at primes above p, and the digit
criterion that controls them.

A correlation constant c(pi) lives in a cyclotomic field of conductor
dividing q - 1 (principal series) or q^2 - 1 (cuspidal). Each prime of
that field above p is a PrimeIdealHandle; reducing at it lands in a
finite field of characteristic p.

At such a prime, the representation label gets relabeled: if the handle's
root corresponds to the a-th power of the distinguished generator (a the
least unit exponent with factor(g^a) = 0), the parameter r moves to
r * a, folded back into the standard range. Writing d for the digit
parameter of the relabeled representation (d = r' for principal series,
d = r' - 1 for cuspidal, d = (q-1)/2 for the twisted Steinberg, d = 0 for
the trivial), the reduction of c(pi) is

    (-1)^((q-1)/2) * C(d, d/2) * C(q-1-d, (q-1-d)/2)   mod p

when every base-p digit of d is even, and 0 otherwise; binomials are
evaluated with Lucas' theorem. The parity of d matches the sign: d is odd
precisely when epsilon(pi) = -1.

A nonzero predicted residue at some prime forces c(pi) != 0, since a zero
constant reduces to 0 everywhere. The converse fails: ps 38 at q = 343 has
c(pi) = 588/(342 * 344), and its residue is 0 at every prime above 7, as
predicted. A report flags such a constant with vanishing_consistent =
False; the residues still all match.

The primes above p are read from the group's tower: the residue field of
Q(zeta_k) at a prime above p is F_{p^o}, o the order of p mod k, a
subfield of F_{q^2} when k divides q^2 - 1, and each prime's root of
unity is a power of the tower generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .correlation import corr_constant, epsilon_closed
from .cyclo import CycNum, PrimeIdealHandle, factor_cyclotomic_mod_p
from .fields import ConsistencyError
from .pgl2 import PGL2, Label


def lucas_binom(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem."""
    if k < 0 or k > n:
        return 0
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * math.comb(nd, kd) % p
        n //= p
        k //= p
    return out


def base_digits(n: int, p: int, width: int) -> list[int]:
    return [n // p**i % p for i in range(width)]


def fraction_mod_p(x: Fraction, p: int) -> int:
    if x.denominator % p == 0:
        raise ValueError("denominator is divisible by p")
    return x.numerator * pow(x.denominator, p - 2, p) % p


def prime_handles(g: PGL2, conductor: int) -> list[PrimeIdealHandle]:
    """All primes above p in Q(zeta_conductor), sorted by factor.

    The primes come from the group's tower: one handle per key of
    root_relabel_map, with that key's root exponent and the key itself as
    its minimal polynomial, which the handle checks with one evaluation.
    The factors of Phi_conductor mod p from factor_cyclotomic_mod_p are an
    independent source, computed in F_p[X] without the tower, and the
    sorted keys must equal them before any handle is built. Each of those
    factors divides Phi_conductor mod p by construction, as the minimal
    polynomial of a root of Phi_conductor in a field F_p[X]/(f1) (see
    PrimeIdealHandle), so the handles skip their own division. The list
    is built and checked once per group and conductor, so
    root_relabel_map runs once per conductor too; each call returns a
    fresh copy.
    """
    handles = g._handle_cache.get(conductor)
    if handles is None:
        relabel = root_relabel_map(g, conductor)
        keys = sorted(relabel)
        factors = [list(key) for key in keys]
        if factors != factor_cyclotomic_mod_p(conductor, g.p):
            raise ConsistencyError(
                f"the primes above {g.p} of Q(zeta_{conductor}) read from the tower "
                "differ from the factors of the cyclotomic polynomial"
            )
        handles = [
            PrimeIdealHandle(g.tower, conductor, relabel[key], f, _listed=True)
            for key, f in zip(keys, factors)
        ]
        g._handle_cache[conductor] = handles
    return list(handles)


def distinguished_handle(g: PGL2, conductor: int) -> PrimeIdealHandle:
    """The prime whose residue root is the tower's own order-`conductor`
    generator; its relabeling exponent is a = 1."""
    return PrimeIdealHandle(g.tower, conductor, 1)


def root_relabel_map(g: PGL2, conductor: int) -> dict[tuple[int, ...], int]:
    """factor -> least unit exponent a with factor(gen^a) = 0 in the tower.

    The units j whose roots gen^(base * j) share a minimal polynomial are
    one Frobenius orbit {j p^i mod conductor}, so the walk takes the units
    in ascending order and computes one minimal polynomial per orbit, at
    its least member. Not memoized: prime_handles, its caller, keeps the
    handles it builds from the map.
    """
    t = g.tower
    base = t.order // conductor
    out = {}
    seen: set[int] = set()
    for j in range(1, conductor):
        if j in seen or math.gcd(j, conductor) != 1:
            continue
        i = j
        while i not in seen:
            seen.add(i)
            i = i * g.p % conductor
        out.setdefault(tuple(t.minpoly(base * j % t.order)), j)
    return out


def rep_conductor(g: PGL2, rep: Label) -> int:
    """Conductor of the cyclotomic field housing c(rep) and its primes."""
    if rep[0] in ("triv", "steta"):
        return 1
    if rep[0] == "ps":
        return g.q - 1
    if rep[0] == "cusp":
        return g.q**2 - 1
    raise ValueError(f"{rep} is not multiplicity-one")


def relabeled_r(g: PGL2, rep: Label, handle: PrimeIdealHandle) -> int:
    """The representation label as seen through the given prime."""
    if handle.tower is not g.tower:
        raise ValueError("the prime belongs to another group's tower")
    a = handle.a
    q = g.q
    if rep[0] == "ps":
        r = rep[1] * a % (q - 1)
        return min(r, q - 1 - r)
    if rep[0] == "cusp":
        r = rep[1] * a % (q + 1)
        return min(r, q + 1 - r)
    raise ValueError(f"{rep} does not relabel")


def digit_parameter(g: PGL2, rep: Label, handle: PrimeIdealHandle | None) -> int:
    kind = rep[0]
    if kind == "triv":
        return 0
    if kind == "steta":
        return (g.q - 1) // 2
    if kind in ("ps", "cusp"):
        return _relabeled_digit(rep, relabeled_r(g, rep, handle))
    raise ValueError(f"{rep} has no digit parameter")


def _relabeled_digit(rep: Label, rr: int) -> int:
    """The digit parameter of a ps or cusp rep from its relabeled r."""
    return rr - 1 if rep[0] == "cusp" else rr


def _digit_prediction(g: PGL2, d: int) -> tuple[list[int], int]:
    """(base-p digits of d, predicted residue), computed once per group and
    d < q; callers copy the digits list before handing it out."""
    out = g._digit_cache.get(d)
    if out is None:
        out = g._digit_cache[d] = (base_digits(d, g.p, g.f), predicted_residue(g, d))
    return out


def predicted_residue(g: PGL2, d: int) -> int:
    """The closed-form residue of c(pi) for digit parameter d."""
    p, q = g.p, g.q
    if any(dig % 2 for dig in base_digits(d, p, g.f)):
        return 0
    sign = -1 if (q - 1) // 2 % 2 else 1
    val = lucas_binom(d, d // 2, p) * lucas_binom(q - 1 - d, (q - 1 - d) // 2, p)
    return sign * val % p


@dataclass
class PrimeEntry:
    factor: list[int] | None  # None for rational constants
    a: int
    r_relabeled: int | None
    d: int
    digits: list[int]
    predicted: int
    actual: int | None
    match: bool

    def to_json_dict(self) -> dict:
        return {
            "factor": self.factor,
            "a": self.a,
            "r_relabeled": self.r_relabeled,
            "d": self.d,
            "digits": self.digits,
            "predicted": self.predicted,
            "actual": self.actual,
            "match": self.match,
        }


@dataclass
class ModpReport:
    rep: Label
    q: int
    conductor: int
    value: CycNum
    vanishes: bool
    entries: list[PrimeEntry]
    all_predicted_zero: bool
    vanishing_consistent: bool

    def all_match(self) -> bool:
        return all(e.match for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "rep": list(self.rep),
            "q": self.q,
            "conductor": self.conductor,
            "value": self.value.to_json_dict(),
            "vanishes": self.vanishes,
            "entries": [e.to_json_dict() for e in self.entries],
            "all_predicted_zero": self.all_predicted_zero,
            "vanishing_consistent": self.vanishing_consistent,
            "all_match": self.all_match(),
        }


def rep_report(g: PGL2, rep: Label) -> ModpReport:
    """Residues of c(rep) at every prime above p, against the prediction.

    Also enforces the parity bridge d odd <-> epsilon = -1, which is a
    structural property of the relabeling.
    """
    value = corr_constant(g, rep)
    eps = epsilon_closed(g, rep)
    if eps is None:
        raise ValueError(f"{rep} is not multiplicity-one")
    conductor = rep_conductor(g, rep)
    entries = []
    if conductor == 1:
        d = digit_parameter(g, rep, None)
        digits, pred = _digit_prediction(g, d)
        rat = value.as_rational()
        actual = None if rat is None else fraction_mod_p(rat, g.p)
        entries.append(PrimeEntry(None, 1, None, d, list(digits), pred, actual, actual == pred))
    else:
        t = g.tower
        # handles that send zeta_{value.k} to the same element reduce the
        # value alike, so each image is reduced once
        residues: dict[int, int | None] = {}
        for handle in prime_handles(g, conductor):
            rr = relabeled_r(g, rep, handle)
            d = _relabeled_digit(rep, rr)
            digits, pred = _digit_prediction(g, d)
            image = handle.zeta_image(value.k)
            if image not in residues:
                red = handle.reduce(value)
                residues[image] = t.to_prime(red) if t.in_subfield(1, red) else None
            actual = residues[image]
            entries.append(
                PrimeEntry(
                    list(handle.factor),
                    handle.a,
                    rr,
                    d,
                    list(digits),
                    pred,
                    actual,
                    actual == pred,
                )
            )
    for e in entries:
        if (e.d % 2 == 1) != (eps == -1):
            raise ConsistencyError(
                f"digit parity of {rep} at {e.factor} disagrees with epsilon"
            )
    vanishes = value.is_zero()
    all_zero = all(e.predicted == 0 for e in entries)
    return ModpReport(
        rep=rep,
        q=g.q,
        conductor=conductor,
        value=value,
        vanishes=vanishes,
        entries=entries,
        all_predicted_zero=all_zero,
        vanishing_consistent=vanishes == all_zero,
    )


def sweep(g: PGL2) -> list[ModpReport]:
    """Reports for every multiplicity-one representation."""
    out = []
    for rep in g.reps():
        if rep[0] in ("eta", "st"):
            continue
        out.append(rep_report(g, rep))
    return out
