"""Correlation constants of PGL2(F_q) representations for the torus pair.

For the split torus H and non-split torus K, the correlation constant of
an irreducible representation pi is

    c(pi) = (1/(|H||K|)) * sum over pairs (h, k) of chi_pi(h k),

computed here from the class counts of all |H|*|K| = q^2 - 1 products.
For multiplicity-one pi (everything except eta and the Steinberg) this
equals |<v_H, v_K>|^2 for unit torus-fixed vectors, so it is a totally
nonnegative cyclotomic number, and it must vanish whenever the sign
epsilon(pi) is -1. The converse holds over prime fields but not in
general: for f > 1 there are representations with epsilon = +1 whose
constant still vanishes, which is what the mod-p digit analysis explains.
The sign itself is computed three independent ways (closed form, an
average over h k_0, an average over h_0 k) which must agree.

Everything that depends only on the group is computed once per group and
memoized on the PGL2 object: the pair classification (q^2 - 1 products,
folded through the invariant tr^2/det, whose multiplicities come from
one packed convolution of two histograms over subfield discrete logs,
so that only O(q) of them are classified one by one), and
PGL2.torus_classes, the class multisets of the trace-zero products
h k_0 and h_0 k. Per representation only the character values are
summed against these class counts, by PGL2.terms_sum on the family_terms
of the pair counts (also memoized), and the constant itself is memoized
on the group too, so correlate_all, regular_identity, the mod-p reports,
the base-change reports and the CLI all share one value per
representation. The regular identity embeds every memoized
constant, times q^2 - 1, at conductor q^2 - 1 into one integer counter
and reduces it once, so it checks exactly the values that correlate_all
reports.

The memos replace repeated work, not any of the three sign routes: each
average is still taken over its own torus and compared with the closed
form, so a wrong character value, torus or class still shows up as a
disagreement. Folding them into a shared value would leave nothing to
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gfpoly
from .cyclo import CycNum
from .fields import ConsistencyError, FqElem
from .pgl2 import PGL2, Label, Mat, mat_det, mat_mul


def pair_class_counts(g: PGL2) -> dict[Label, int]:
    """How many products h*k land in each conjugacy class.

    Computed once per group and memoized on it; each call returns a fresh
    copy, so callers may mutate the result.
    """
    if g._pair_counts is None:
        g._pair_counts = _classify_pairs(g)
    return dict(g._pair_counts)


def _classify_pairs(g: PGL2) -> dict[Label, int]:
    t = g.tower
    q = g.q
    counts = {c: 0 for c in g.classes}
    # k = identity: the product is h itself
    counts[("id",)] += 1
    for e in range(1, q - 1):
        counts[("split", min(e, q - 1 - e))] += 1
    # all other k have lower-left entry nonzero, so h*k is never scalar.
    # Its class is then decided by x = tr^2/det alone (rescaling h*k keeps
    # x and the class), except at trace zero, where x = 0 fits both a split
    # and an elliptic class and the determinant decides. For h = diag(a, 1)
    # the trace a*k00 + k11 depends only on a and the diagonal of k, so the
    # pairs fold into multiplicities of u = tr^2/a and of 1/det k per
    # diagonal. x = u * (1/det k) multiplies subfield elements, which adds
    # their subfield discrete logs mod q - 1: the multiplicities of x are
    # the convolution of the two histograms over those logs, folded mod
    # q - 1, and only the x that occur are classified.
    groups: dict[tuple[FqElem, FqElem], dict[FqElem, int]] = {}
    for k in g.K:
        if k[2] is None:
            continue  # identity, handled above
        dets = groups.setdefault((k[0], k[3]), {})
        detk = mat_det(t, k)
        dets[detk] = dets.get(detk, 0) + 1
    cof = g.cof
    by_x = [0] * (q - 1)  # by subfield discrete log
    for (k00, k11), dets in groups.items():
        by_u = [0] * (q - 1)
        for a in g.q_units():
            tr = t.add(t.mul(a, k00), k11)
            if tr is None:
                for d, n in dets.items():
                    counts[g.classify_trace_det(None, t.mul(a, d))] += n
            else:
                by_u[t.div(t.mul(tr, tr), a) // cof] += 1
        by_inv_det = [0] * (q - 1)
        for d, n in dets.items():
            by_inv_det[t.inv(d) // cof] += n
        lanes = gfpoly.lane_convolve(by_u, by_inv_det, max(*by_u, *by_inv_det))
        for i, n in enumerate(lanes):
            by_x[i % (q - 1)] += n
    one = t.one
    for i, n in enumerate(by_x):
        if n:
            counts[g.classify_trace_det(one, t.inv(i * cof))] += n
    if sum(counts.values()) != q * q - 1:
        raise ConsistencyError("pair classification lost mass")
    return counts


def corr_constant(g: PGL2, rep: Label) -> CycNum:
    """The correlation constant c(rep), exact.

    Memoized on the group, with the family_terms of the pair counts.
    """
    g.check_rep(rep)
    val = g._const_cache.get(rep)
    if val is None:
        if g._pair_terms is None:
            g._pair_terms = g.family_terms(pair_class_counts(g))
        kk = g.q**2 - 1
        if rep[0] in ("ps", "cusp"):
            val = g.family_sum(g.form(rep), g._pair_terms, den=kk)
        else:
            val = g.terms_sum(rep, g._pair_terms) / kk
        g._const_cache[rep] = val
    return val


def epsilon_closed(g: PGL2, rep: Label) -> int | None:
    """The sign epsilon(rep) in closed form; None when the pair is not
    multiplicity-one for this representation. A bad label raises ValueError."""
    g.check_rep(rep)
    kind = rep[0]
    if kind == "triv":
        return 1
    if kind == "steta":
        return -1 if (g.q - 1) // 2 % 2 else 1
    if kind == "ps":
        return -1 if rep[1] % 2 else 1
    if kind == "cusp":
        return -1 if (rep[1] - 1) % 2 else 1
    return None


def _sign_average(g: PGL2, rep: Label, which: str) -> int:
    """Average of chi_rep over the class multiset g.torus_classes(which).

    The sum itself must be exactly +-n for the n matrices of the multiset,
    so no division is needed.
    """
    classes = g.torus_classes(which)
    total = g.torus_sum(rep, which).as_rational()
    n = sum(classes.values())
    if total is None or total not in (n, -n):
        avg = None if total is None else total / n
        raise ConsistencyError(f"sign average for {rep} is not a sign: {avg}")
    return 1 if total == n else -1


def epsilon_h_average(g: PGL2, rep: Label) -> int:
    """epsilon via (1/|H|) sum over h of chi(h k_0)."""
    return _sign_average(g, rep, "hk0")


def epsilon_k_average(g: PGL2, rep: Label) -> int:
    """epsilon via (1/|K|) sum over k of chi(h_0 k)."""
    return _sign_average(g, rep, "h0k")


def epsilon(g: PGL2, rep: Label) -> int | None:
    """The sign of the pair at rep, cross-checked three ways."""
    closed = epsilon_closed(g, rep)
    if closed is None:
        return None
    ha = epsilon_h_average(g, rep)
    ka = epsilon_k_average(g, rep)
    if not closed == ha == ka:
        raise ConsistencyError(
            f"epsilon disagreement for {rep}: closed {closed}, "
            f"h-average {ha}, k-average {ka}"
        )
    return closed


def regular_identity(g: PGL2) -> None:
    """sum over pi of dim(pi) * c(pi) must equal q exactly.

    Equivalent to H and K meeting only in the identity; raises on failure.
    Every c(pi) is a sum over H x K divided by |H| |K| = q^2 - 1, so its
    coordinates lie in (1/(q^2 - 1)) Z: its denominator divides q^2 - 1.
    Each constant's numerators, times q^2 - 1 over that denominator, are
    embedded at conductor q^2 - 1 into one integer counter, which is
    reduced once and compared with q (q^2 - 1).
    """
    kk = g.q**2 - 1
    total: dict[int, int] = {}
    for rep in g.reps():
        val = corr_constant(g, rep)
        if kk % val.k:
            raise ConsistencyError(f"c({rep}) has conductor {val.k}, not a divisor of {kk}")
        if kk % val.den:
            raise ConsistencyError(f"c({rep}) has denominator {val.den}, outside (1/{kk}) Z")
        step = kk // val.k
        scale = g.dim(rep) * (kk // val.den)
        for i, c in enumerate(val.nums):
            if c:
                e = i * step
                total[e] = total.get(e, 0) + scale * c
    got = CycNum.from_counter(kk, total)
    if got != g.q * kk:
        raise ConsistencyError(f"regular identity fails: {got * Fraction(1, kk)} != {g.q}")


def enumerate_group(g: PGL2) -> list[Mat]:
    """All q^3 - q elements of PGL2(F_q), one matrix per class mod scalars."""
    t = g.tower
    one = t.one
    out: list[Mat] = []
    for b in g.q_elements():
        for c in g.q_elements():
            for d in g.q_elements():
                if t.sub(d, t.mul(b, c)) is not None:
                    out.append((one, b, c, d))
    for c in g.q_units():
        for d in g.q_elements():
            out.append((None, one, c, d))
    if len(out) != g.order:
        raise ConsistencyError("group enumeration has the wrong size")
    return out


def tensor_identity(g: PGL2, rep: Label) -> None:
    """sum over group elements of |sum over h of chi(hg)|^2 must equal
    |H|^2 |G| m / dim, with m the H-fixed multiplicity. Full enumeration;
    keep q small."""
    t = g.tower
    kk = g.q**2 - 1
    total = CycNum.rational(0)
    for mat in enumerate_group(g):
        inner: dict[int, int] = {}
        for a in g.q_units():
            prod = mat_mul(t, g.h_mat(a), mat)
            for e, c in g.char_counter(rep, g.classify(prod)).items():
                inner[e] = inner.get(e, 0) + c
        total = total + CycNum.from_counter(kk, inner).abs2()
    m = g.invariant_dims(rep)[0]
    want = Fraction((g.q - 1) ** 2 * g.order * m, g.dim(rep))
    if total != want:
        raise ConsistencyError(f"tensor identity fails for {rep}")


def unipotent_pair_report(g: PGL2) -> dict:
    """Measured count of unipotent products h*k against two predictions.

    The count depends on q mod 4 (it is q - 2 + eta(-1)); a prediction
    keyed to p mod 4 instead agrees with it exactly when f is odd.
    """
    measured = pair_class_counts(g)[("unip",)]
    eta_m1 = 1 if (g.q - 1) // 2 % 2 == 0 else -1
    by_q = g.q - 2 + eta_m1
    by_p = g.q - 1 if g.p % 4 == 1 else g.q - 3
    return {
        "measured": measured,
        "predicted_from_q_mod_4": by_q,
        "predicted_from_p_mod_4": by_p,
        "agrees_with_q_rule": measured == by_q,
        "agrees_with_p_rule": measured == by_p,
    }


@dataclass
class RepRecord:
    rep: Label
    dim: int
    value: CycNum
    epsilon: int | None
    vanishes: bool
    sign_criterion_ok: bool | None

    def to_json_dict(self) -> dict:
        return {
            "rep": list(self.rep),
            "dim": self.dim,
            "value": self.value.to_json_dict(),
            "epsilon": self.epsilon,
            "vanishes": self.vanishes,
            "sign_criterion_ok": self.sign_criterion_ok,
        }


def rep_record(g: PGL2, rep: Label) -> RepRecord:
    """Correlation constant, sign and sign-criterion verdict of one rep.

    For multiplicity-one reps the criterion is one-directional: epsilon =
    -1 forces the constant to vanish. A False is a genuine failure;
    epsilon = +1 with a vanishing constant is legal (and occurs only over
    non-prime fields).
    """
    val = corr_constant(g, rep)
    eps = epsilon(g, rep)
    vanishes = val.is_zero()
    ok = None if eps is None else (eps == 1 or vanishes)
    return RepRecord(rep, g.dim(rep), val, eps, vanishes, ok)


def correlate_all(g: PGL2) -> list[RepRecord]:
    """The rep_record of every irreducible representation, in g.reps() order."""
    return [rep_record(g, rep) for rep in g.reps()]
