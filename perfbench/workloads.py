"""Seeded item lists for the three workloads, and the code that runs one item.

An item is a JSON-friendly list ``[kind, *args]`` holding only the inputs
the library receives: field characteristic and degree, representation
label, digit vector, base-field size, exponent. The library is imported by
the item runners, never by the list generator, so generating a list costs
nothing and the list depends on the seed alone.

Each workload is a list of strata. A lap takes one item from every
stratum, in a shuffled order, and each stratum is walked through its own
shuffled order. A run is a whole number of laps; at the benchmark's run
length every stratum's size divides the lap count, so every seed runs the
same multiset of items and the seed fixes their order and the lap each
falls in. The item count, the percentile the tail rule picks and the exact
counts therefore repeat for a seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random


def _prime_power(q: int) -> tuple[int, int]:
    p = 2
    while q % p:
        p += 1
    f = 0
    while q > 1:
        if q % p:
            raise ValueError(f"{q} is not a prime power")
        q //= p
        f += 1
    return p, f


def _fields(*qs: int) -> list[tuple[int, int]]:
    return [_prime_power(q) for q in qs]


# Laps at --seconds 30: 6 (constants), 4 (residues), 2 (certify); each
# stratum's size divides its workload's lap count.

# constants: correlate_all + regular_identity per field, q^2 within a band
CONSTANTS = [
    [["const", p, f] for p, f in _fields(121, 125, 127)],
    [["const", p, f] for p, f in _fields(131, 137, 139)],
    [["const", p, f] for p, f in _fields(149, 151, 163, 167, 169, 173)],
    [["const", p, f] for p, f in _fields(157, 179)],
    [["const", p, f] for p, f in _fields(181, 191, 193)],
]

# principal-series reports at large f, including the boundary labels of the
# acceptance tests: ps 24 at q = 289 vanishes with epsilon = +1, and ps 38
# at q = 343 has every residue zero but a nonzero constant
_REP_LABELS = {289: (1, 24, 77, 143), 343: (11, 38, 101, 170), 361: (4, 47, 105, 179)}

# Sweeps of q = 27, 29 and 31 and the reports at q = 343, 361 (0.8-1.7 s)
# fill the upper 20 of a run's 28 items, so the median and the tail rank
# fall inside one dense band.
RESIDUES = [
    [["sweep", p, f] for p, f in _fields(23, 25)],
    [["sweep", p, f] for p, f in _fields(27)],
    [["sweep", p, f] for p, f in _fields(29)],
    [["sweep", p, f] for p, f in _fields(31)],
] + [
    [["rep", p, f, r] for r in _REP_LABELS[q]]
    for q in (289, 343, 361)
    for p, f in _fields(q)
]


def _shintani(q_base: int, ext: int, *js: int) -> list[list]:
    (p, f), = _fields(q_base**ext)
    return [["shintani", q_base, p, f, j] for j in js]


def _lemma(q_base: int, ext: int) -> list:
    (p, f), = _fields(q_base**ext)
    return ["lemma", q_base, p, f]


def _diamond(q: int, *reps: tuple[str, int]) -> list[list]:
    (p, f), = _fields(q)
    return [["diamond", p, f, kind, r] for kind, r in reps]


def _st(q: int, *rvecs: list[int]) -> list[list]:
    (p, f), = _fields(q)
    return [["st", p, f, list(v)] for v in rvecs]


# certify: one verification call per item. Base-change items cover every
# eligible exponent of 3->9, 5->25, 7->49, 3->81 and 9->81 (j = 12 of 7->49
# shares its stratum with a character table); the lemma items cover all
# five extension pairs. Ten strata of checks under 0.1 s sit below four
# strata of 0.1-0.2 s items (q = 25 models and base change), and ten
# strata above them, so the median lands in the middle of that band and
# the tail rank among the 0.8-1.6 s items.
CERTIFY = [
    _diamond(9, ("ps", 1), ("cusp", 2)),
    _diamond(25, ("ps", 5), ("cusp", 7)),
    _diamond(27, ("ps", 4), ("cusp", 9)),
    _diamond(49, ("ps", 10), ("cusp", 17)),
    _st(25, (0, 2), (4, 4)),
    _st(27, (2, 0, 2), (1, 1, 0)),
    _st(49, (2, 4), (6, 6)),
    _shintani(3, 2, 2) + [_lemma(3, 2)],
    [_lemma(5, 2), _lemma(7, 2)],
    [_lemma(3, 4), _lemma(9, 2)],
    _shintani(5, 2, 4, 8),
    [["psmodel", 5, 2, r] for r in (3, 8)],
    [["psmodel", 5, 2, r] for r in (4, 9)],
    [["psmodel", 5, 2, r] for r in (2, 10)],
    [["psmodel", 3, 3, r] for r in (4, 11)],
    [["chartable", p, f] for p, f in _fields(29, 31)],
    _shintani(7, 2, 6, 18),
    _shintani(7, 2, 12) + [["chartable", 37, 1]],
    [["chartable", p, f] for p, f in _fields(41, 43)],
    [["chartable", p, f] for p, f in _fields(47, 53)],
    [["chartable", p, f] for p, f in _fields(59, 61)],
    _shintani(9, 2, 8, 16),
    _shintani(9, 2, 24, 32),
    _shintani(3, 4, 20) + [["chartable", 79, 1]],
]

WORKLOADS = {"constants": CONSTANTS, "residues": RESIDUES, "certify": CERTIFY}

# one small item per workload, outside its strata, run once after import
WARMUP = {
    "constants": ["const", 31, 1],
    "residues": ["sweep", 13, 1],
    "certify": ["chartable", 23, 1],
}

# nominal lap duration on the reference machine at the commit that defined
# the benchmark; a run is round(seconds / LAP_SECONDS) laps, at least one
LAP_SECONDS = {"constants": 5.0, "residues": 7.5, "certify": 16.0}


def laps_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / LAP_SECONDS[workload]))


def item_list(workload: str, seed: int, laps: int) -> list[list]:
    """The items of one run: `laps` laps over the workload's strata."""
    rng = random.Random(f"{workload}/{seed}")
    orders = [rng.sample(stratum, len(stratum)) for stratum in WORKLOADS[workload]]
    out = []
    for lap in range(laps):
        items = [order[lap % len(order)] for order in orders]
        rng.shuffle(items)
        out += items
    return out


def all_items() -> list[list]:
    """Every item any seed can draw, plus the warm-up items."""
    out = [item for strata in WORKLOADS.values() for s in strata for item in s]
    return out + list(WARMUP.values())


def item_key(item: list) -> str:
    return json.dumps(item, separators=(",", ":"))


# -- running one item -----------------------------------------------------


def _strip_approx(obj):
    """Drop the float `approx` fields: only exact data enters the digest."""
    if isinstance(obj, dict):
        return {k: _strip_approx(v) for k, v in obj.items() if k != "approx"}
    if isinstance(obj, (list, tuple)):
        return [_strip_approx(v) for v in obj]
    return obj


def digest(payload) -> str:
    text = json.dumps(_strip_approx(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _const(p, f):
    from toric_correlator import PGL2, correlate_all, regular_identity

    g = PGL2(p, f)
    records = correlate_all(g)
    regular_identity(g)
    checks = [rec.sign_criterion_ok is not False for rec in records]
    return {"records": [rec.to_json_dict() for rec in records], "regular": "ok"}, checks


def _sweep(p, f):
    from toric_correlator import PGL2, sweep

    reports = sweep(PGL2(p, f))
    return {"reports": [r.to_json_dict() for r in reports]}, [r.all_match() for r in reports]


def _rep(p, f, r):
    from toric_correlator import PGL2, rep_report

    # vanishing_consistent is False at some labels of q = 343, the documented
    # boundary of the residue test; it enters the digest, not the checks
    report = rep_report(PGL2(p, f), ("ps", r))
    return report.to_json_dict(), [report.all_match()]


def _diamond(p, f, kind, r):
    from toric_correlator import PGL2, diamond_check

    report = diamond_check(PGL2(p, f), (kind, r))
    return dataclasses.asdict(report), [report.ok()]


def _st(p, f, rvec):
    from toric_correlator import PGL2, st_report

    report = st_report(PGL2(p, f), tuple(rvec))
    return dataclasses.asdict(report), [report.ok()]


def _psmodel(p, f, r):
    from toric_correlator import PGL2, PsModel

    PsModel(PGL2(p, f), r).consistency_check()
    return {"consistency_check": "ok"}, []


_FIXED_DIMS = {
    "triv": (1, 1), "eta": (0, 0), "st": (2, 0),
    "steta": (1, 1), "ps": (1, 1), "cusp": (1, 1),
}


def _chartable(p, f):
    from toric_correlator import PGL2, epsilon

    g = PGL2(p, f)
    g.orthogonality_check()
    rows = [[list(rep), list(g.invariant_dims(rep)), epsilon(g, rep)] for rep in g.reps()]
    checks = [tuple(dims) == _FIXED_DIMS[rep[0]] for rep, dims, _ in rows]
    return {"orthogonality": "ok", "reps": rows}, checks


def _shintani(q_base, p, f, j):
    from toric_correlator import PGL2, ShintaniOperator, theorem_report

    g = PGL2(p, f)
    ShintaniOperator(g, q_base, j).check_all()
    report = theorem_report(g, q_base, j)
    return {"check_all": "ok", "theorem": report.to_json_dict()}, [report.sign_rule_ok]


def _lemma(q_base, p, f):
    from toric_correlator.pgl2 import PGL2
    from toric_correlator.shintani import lemma_checks

    lemma_checks(PGL2(p, f), q_base)
    return {"lemma_checks": "ok"}, []


RUNNERS = {
    "const": _const,
    "sweep": _sweep,
    "rep": _rep,
    "diamond": _diamond,
    "st": _st,
    "psmodel": _psmodel,
    "chartable": _chartable,
    "shintani": _shintani,
    "lemma": _lemma,
}


def run_item(item: list):
    """(payload, checks) of one item; raises whatever the library raises."""
    return RUNNERS[item[0]](*item[1:])


def check_item(item: list, payload, checks, reference: dict[str, str]) -> str | None:
    """None when the item passes the gate, else why it fails."""
    if not all(checks):
        return "a built-in identity failed"
    want = reference.get(item_key(item))
    if want is None:
        return "no reference digest for this item"
    if digest(payload) != want:
        return "digest differs from the reference"
    return None
