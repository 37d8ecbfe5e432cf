"""Multiplicative and additive characters of subfields of a tower.

A MulChar(k, j) is the character x -> zeta_k^(j * dlog(x)) of the cyclic
subgroup of order k generated by g^((p^m-1)/k), where g is the tower's
distinguished generator. With k = p^d - 1 this is a character of the unit
group of the subfield F_{p^d}, and the canonical choice j = 1 in the top
field restricts to the canonical choice on every subfield: restriction is
just reduction of j.

An AddChar(d, shift) is x -> zeta_p^(Tr(shift * x)) on F_{p^d}, with the
absolute trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclo import CycNum
from .fields import FieldTower, FqElem


@dataclass(frozen=True)
class MulChar:
    k: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % self.k)

    def order(self) -> int:
        return self.k // math.gcd(self.j, self.k)

    def conj(self) -> "MulChar":
        return MulChar(self.k, -self.j)

    def __mul__(self, other: "MulChar") -> "MulChar":
        if self.k != other.k:
            raise ValueError("characters live on different groups")
        return MulChar(self.k, self.j + other.j)

    def power(self, n: int) -> "MulChar":
        return MulChar(self.k, self.j * n)

    def restrict(self, k2: int) -> "MulChar":
        """Restriction to the subgroup of order k2."""
        if self.k % k2:
            raise ValueError("k2 must divide k")
        return MulChar(k2, self.j % k2)

    def exponent_at(self, tower: FieldTower, x: FqElem) -> int:
        """e with chi(x) = zeta_k^e; x must be a nonzero group element."""
        if x is None:
            raise ValueError("characters are evaluated on nonzero elements")
        cof = tower.order // self.k
        if x % cof:
            raise ValueError("element is not in the subgroup of order k")
        return self.j * (x // cof) % self.k

    def value(self, tower: FieldTower, x: FqElem) -> CycNum:
        return CycNum.zeta(self.k, self.exponent_at(tower, x))


def canonical_mul_char(tower: FieldTower, d: int) -> MulChar:
    """The character sending the subfield generator to zeta_{p^d - 1}."""
    tower.subgen(d)  # validates d | m
    return MulChar(tower.p**d - 1, 1)


@dataclass(frozen=True)
class AddChar:
    d: int
    shift: FqElem = 0

    def exponent_at(self, tower: FieldTower, x: FqElem) -> int:
        """t with psi(x) = zeta_p^t."""
        return tower.subfield_trace(self.d, tower.mul(self.shift, x))

    def value(self, tower: FieldTower, x: FqElem) -> CycNum:
        return CycNum.zeta(tower.p, self.exponent_at(tower, x))


def gauss_sum(tower: FieldTower, chi: MulChar, psi: AddChar) -> CycNum:
    """Gauss sum over F_{p^d}: sum of chi(x) psi(x) for x nonzero.

    chi must be a character of the full unit group of psi's subfield.
    """
    p = tower.p
    sub_order = p**psi.d - 1
    if chi.k != sub_order:
        raise ValueError("chi is not a character of the unit group of psi's field")
    cof = tower.order // sub_order
    kk = math.lcm(chi.k, p)
    counter: dict[int, int] = {}
    for e in range(sub_order):
        x = e * cof % tower.order
        ex = kk // chi.k * (chi.j * e % chi.k) + kk // p * psi.exponent_at(tower, x)
        ex %= kk
        counter[ex] = counter.get(ex, 0) + 1
    return CycNum.from_counter(kk, counter)
