"""Command-line interface.

Subcommands:

    correlate   exact correlation constants for every irreducible
    modp        residues at the primes above p against the closed form
    chartable   conjugacy classes, character values, orthogonality
    shintani    base-change classification and the descent sign rule
    verify      named self-check suites, one PASS/FAIL line per check

Exit codes: 0 all checks passed / output produced, 1 a check failed,
2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .correlation import (
    correlate_all,
    corr_constant,
    regular_identity,
    rep_record,
    tensor_identity,
    unipotent_pair_report,
)
from .fields import ConsistencyError
from .pgl2 import PGL2, Label
from .ps_model import PsModel

REP_KINDS = ("triv", "eta", "st", "steta", "ps", "cusp")


def build_group(p: int, f: int, modulus: str | None) -> PGL2:
    chi_modulus = None
    if modulus:
        chi_modulus = [int(x) for x in modulus.split(",")]
    return PGL2(p, f, chi_modulus=chi_modulus)


def parse_rep(text: str) -> Label:
    kind, _, num = text.partition(":")
    if kind not in REP_KINDS:
        raise ValueError(f"unknown representation kind {kind!r}")
    if kind in ("ps", "cusp"):
        if not num:
            raise ValueError(f"{kind} needs a label, e.g. {kind}:2")
        return (kind, int(num))
    return (kind,)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rep_name(rep: Label) -> str:
    return rep[0] if len(rep) == 1 else f"{rep[0]}:{rep[1]}"


# -- correlate ----------------------------------------------------------------


def cmd_correlate(args) -> int:
    g = build_group(args.p, args.f, args.modulus)
    if args.rep:
        records = [rep_record(g, parse_rep(args.rep))]
    else:
        records = correlate_all(g)
    if args.format == "json":
        payload = {
            "group": g.describe(),
            "records": [r.to_json_dict() for r in records],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        rows = [["rep", "dim", "value", "approx", "epsilon", "vanishes", "sign_ok"]]
        for r in records:
            rows.append(
                [
                    _rep_name(r.rep),
                    r.dim,
                    repr(r.value),
                    f"{r.value.to_complex().real:.12g}",
                    r.epsilon,
                    r.vanishes,
                    r.sign_criterion_ok,
                ]
            )
        _emit(_csv_text(rows), args.out)
    else:
        lines = [f"PGL2(F_{g.q})  correlation constants"]
        for r in records:
            mark = "" if r.sign_criterion_ok in (True, None) else "  <- sign rule violated"
            lines.append(
                f"  {_rep_name(r.rep):>9}  dim {r.dim:>3}  eps {str(r.epsilon):>4}  "
                f"c = {r.value!r}{mark}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- modp ---------------------------------------------------------------------


def cmd_modp(args) -> int:
    from .modp import rep_report, sweep

    g = build_group(args.p, args.f, args.modulus)
    if args.rep:
        reports = [rep_report(g, parse_rep(args.rep))]
    else:
        reports = sweep(g)
    if args.format == "json":
        payload = {
            "group": g.describe(),
            "reports": [r.to_json_dict() for r in reports],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = []
    bad = 0
    for r in reports:
        if not r.all_match():
            status = "MISMATCH"
            bad += 1
        elif r.vanishing_consistent:
            status = "ok"
        else:
            # a nonzero constant whose residues are all 0, as predicted
            status = "ok (nonzero, all residues 0)"
        lines.append(
            f"  {_rep_name(r.rep):>9}  conductor {r.conductor:>5}  "
            f"primes {len(r.entries):>3}  {status}"
        )
    lines.insert(0, f"PGL2(F_{g.q})  residues at primes above {g.p}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if bad else 0


# -- chartable ------------------------------------------------------------------


def cmd_chartable(args) -> int:
    g = build_group(args.p, args.f, args.modulus)
    if args.check:
        g.orthogonality_check()
    classes = g.classes
    reps = g.reps()
    if args.format == "json":
        payload = {
            "group": g.describe(),
            "classes": [
                {"label": list(c), "size": g.class_size[c]} for c in classes
            ],
            "reps": [
                {
                    "label": list(r),
                    "dim": g.dim(r),
                    "values": [g.char_value(r, c).to_json_dict() for c in classes],
                }
                for r in reps
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        head = ["rep"] + ["|".join(str(x) for x in c) for c in classes]
        rows = [head]
        for r in reps:
            rows.append(
                [_rep_name(r)] + [repr(g.char_value(r, c)) for c in classes]
            )
        _emit(_csv_text(rows), args.out)
    else:
        lines = [
            f"PGL2(F_{g.q})  {len(classes)} classes, {len(reps)} irreducibles"
            + ("  (orthogonality verified)" if args.check else "")
        ]
        for r in reps:
            vals = "  ".join(repr(g.char_value(r, c)) for c in classes[:6])
            more = "  ..." if len(classes) > 6 else ""
            lines.append(f"  {_rep_name(r):>9}  dim {g.dim(r):>3}  {vals}{more}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- shintani -------------------------------------------------------------------


def cmd_shintani(args) -> int:
    from .shintani import (
        ShintaniOperator,
        eligible_exponents,
        theorem_report,
    )

    q_base = args.p**args.f_base
    g = PGL2(args.p, args.f_base * args.ext)
    if args.j is not None:
        js = [args.j]
    else:
        js = eligible_exponents(q_base, args.ext)
        if not js:
            print(f"no regular twisted characters for F_{q_base} -> F_{g.q}")
            return 0
    reports = []
    failed = 0
    for j in js:
        rpt = theorem_report(g, q_base, j)
        checked = False
        if args.check_operator:
            ShintaniOperator(g, q_base, j).check_all()
            checked = True
        reports.append((rpt, checked))
        failed += not rpt.sign_rule_ok
    if args.format == "json":
        payload = {
            "q_base": q_base,
            "ext": args.ext,
            "reports": [
                dict(r.to_json_dict(), operator_checked=c) for r, c in reports
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"base change F_{q_base} -> F_{g.q}"]
        for r, c in reports:
            desc = (
                f"j0 = {r.bc.base_exponent}"
                if r.bc.kind == "split"
                else f"r_tau = {r.bc.base_label[1]}"
            )
            lines.append(
                f"  j = {r.bc.j:>3}  {r.bc.kind:>5}  {desc:>10}  "
                f"eps_tau = {r.epsilon_tau:+d}  S {'=' if r.sum_vanishes else '!='} 0"
                f"{'  [operator verified]' if c else ''}"
                f"{'' if r.sign_rule_ok else '  <- sign rule violated'}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# -- verify ---------------------------------------------------------------------


def _sel_fields(sel, default) -> list[tuple[int, int]]:
    """Restrict a suite's field list to --p/--f when given."""
    if sel is not None and getattr(sel, "p", None):
        return [(sel.p, getattr(sel, "f", None) or 1)]
    return list(default)


def _check_field_options(args) -> None:
    """Refuse the field options the chosen suite would ignore."""
    given = {o for o in ("p", "f", "f_base", "ext") if getattr(args, o) is not None}
    if args.suite == "all":
        ignored = given
    elif args.suite == "shintani":
        # --p and --f-base only with --ext, and never --f
        ignored = given & {"f"} if "ext" in given else given
    else:
        # --p and --f, and --f only with --p
        ignored = given - {"p", "f"} if "p" in given else given
    if ignored:
        opts = ", ".join("--" + o.replace("_", "-") for o in sorted(ignored))
        raise ValueError(f"verify --suite {args.suite} would ignore {opts}")


def _suite_regular(sel=None):
    fields = _sel_fields(sel, ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)))
    for p, f in fields:
        g = PGL2(p, f)
        regular_identity(g)
        rpt = unipotent_pair_report(g)
        if not rpt["agrees_with_q_rule"]:
            raise ConsistencyError(f"unipotent count rule fails for q = {g.q}")
        yield f"regular identity and unipotent count, q = {g.q}"
    if len(fields) > 1:
        for rep in (("st",), ("ps", 1), ("cusp", 2)):
            tensor_identity(PGL2(5, 1), rep)
            yield f"tensor identity, q = 5, rep = {_rep_name(rep)}"


def _suite_epsilon(sel=None):
    for p, f in _sel_fields(sel, ((5, 1), (7, 1), (3, 2))):
        g = PGL2(p, f)
        records = correlate_all(g)
        bad = [r.rep for r in records if r.sign_criterion_ok is False]
        if bad:
            raise ConsistencyError(f"sign rule fails for {bad} at q = {g.q}")
        yield f"three-way epsilon and sign rule, q = {g.q}"


def _suite_ps_model(sel=None):
    for p, f in _sel_fields(sel, ((5, 1), (7, 1), (3, 2))):
        g = PGL2(p, f)
        for r in range(1, (g.q - 1) // 2):
            model = PsModel(g, r)
            model.consistency_check()
            if model.model_constant() != corr_constant(g, ("ps", r)):
                raise ConsistencyError(f"model constant differs at r = {r}")
        yield f"induced-model invariance and constants, q = {g.q}"


def _suite_chartable(sel=None):
    for p, f in _sel_fields(sel, ((3, 1), (5, 1), (7, 1), (3, 2))):
        g = PGL2(p, f)
        g.orthogonality_check()
        for rep in g.reps():
            dims = g.invariant_dims(rep)
            want = {
                "triv": (1, 1), "eta": (0, 0), "st": (2, 0),
                "steta": (1, 1), "ps": (1, 1), "cusp": (1, 1),
            }[rep[0]]
            if dims != want:
                raise ConsistencyError(f"invariant dims of {rep} are {dims}")
        yield f"orthogonality and torus-invariant dimensions, q = {g.q}"


def _suite_diamond(sel=None):
    from .sympow import diamond_check

    for p, f in _sel_fields(sel, ((5, 1), (7, 1), (3, 2))):
        g = PGL2(p, f)
        for rep in g.reps():
            if rep[0] not in ("ps", "cusp"):
                continue
            rpt = diamond_check(g, rep)
            if not rpt.ok():
                raise ConsistencyError(f"reduction cross-check fails for {rep}")
        yield f"constituent reduction cross-checks, q = {g.q}"


def _suite_shintani(sel=None):
    from .shintani import (
        ShintaniOperator,
        eligible_exponents,
        lemma_checks,
        norm_map_check,
        theorem_report,
    )

    if sel is not None and getattr(sel, "ext", None):
        # one extension pair chosen on the command line
        p = getattr(sel, "p", None)
        if not p:
            raise ValueError("--ext needs --p (and optionally --f-base)")
        f_base = getattr(sel, "f_base", None) or 1
        q_base = p**f_base
        g = PGL2(p, f_base * sel.ext)
        js = eligible_exponents(q_base, sel.ext)
        if not js:
            yield f"no regular twisted characters, F_{q_base} -> F_{g.q}"
            return
        small = g.q <= 361
        for j in js:
            if small:
                ShintaniOperator(g, q_base, j).check_all()
            if not theorem_report(g, q_base, j).sign_rule_ok:
                raise ConsistencyError(f"descent sign rule fails at j = {j}")
        ops = "operator and descent sign rule" if small else "descent sign rule"
        yield f"{ops}, F_{q_base} -> F_{g.q} ({len(js)} characters)"
        if sel.ext % 2 == 0:
            lemma_checks(g, q_base)
            yield f"character-sum lemmas, F_{q_base} -> F_{g.q}"
        return
    g = PGL2(3, 2)
    for j in (2, 4):
        ShintaniOperator(g, 3, j).check_all()
    yield "twisted intertwiner, F_3 -> F_9"
    for j in (2, 4):
        if not theorem_report(g, 3, j).sign_rule_ok:
            raise ConsistencyError(f"descent sign rule fails at j = {j}")
    yield "descent sign rule, F_3 -> F_9"
    lemma_checks(g, 3)
    norm_map_check(g, 3)
    yield "character-sum lemmas and norm stability, F_3 -> F_9"
    g25 = PGL2(5, 2)
    for j in (4, 6, 8):
        if not theorem_report(g25, 5, j).sign_rule_ok:
            raise ConsistencyError(f"descent sign rule fails at j = {j}")
    yield "descent sign rule, F_5 -> F_25"


SCAN_FIELDS = (
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
    (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1),
    (47, 1), (7, 2),
)


def _suite_corollary_scan(sel=None):
    """Exploratory: where does vanishing part ways with the sign? Over a
    prime field the equivalence (constant = 0 iff sign -1) is a theorem and
    is asserted; over proper extensions the scan only reports the sign +1
    representations with vanishing constant."""
    for p, f in _sel_fields(sel, SCAN_FIELDS):
        g = PGL2(p, f)
        candidates = []
        for rec in correlate_all(g):
            if rec.epsilon is None:
                continue
            if g.f == 1 and rec.vanishes != (rec.epsilon == -1):
                raise ConsistencyError(
                    f"q = {g.q}: vanishing and sign disagree at "
                    f"{_rep_name(rec.rep)}"
                )
            if g.f > 1 and rec.epsilon == 1 and rec.vanishes:
                candidates.append(_rep_name(rec.rep))
        if g.f == 1:
            yield f"vanishing matches sign -1 exactly, q = {g.q}"
        elif candidates:
            yield f"sign +1 vanishing at q = {g.q}: " + ", ".join(candidates)
        else:
            yield f"no sign +1 vanishing, q = {g.q}"


SUITES = {
    "regular": _suite_regular,
    "epsilon": _suite_epsilon,
    "ps-model": _suite_ps_model,
    "chartable": _suite_chartable,
    "diamond": _suite_diamond,
    "shintani": _suite_shintani,
    "corollary-scan": _suite_corollary_scan,
}


def cmd_verify(args) -> int:
    _check_field_options(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        gen = SUITES[name](args)
        while True:
            try:
                label = next(gen)
            except StopIteration:
                break
            except ValueError:
                raise  # configuration problem, not an identity failure
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures += 1
                print(f"FAIL [{name}] {exc}")
                break
            print(f"PASS [{name}] {label}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _csv_text(rows: list[list]) -> str:
    import io

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="toric-correlator",
        description="exact torus-pair correlation constants for PGL2(F_q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_args(sp, with_rep=True):
        sp.add_argument("--p", type=int, required=True, help="odd prime")
        sp.add_argument("--f", type=int, default=1, help="extension degree")
        sp.add_argument(
            "--modulus",
            help="comma-separated subfield modulus coefficients, low degree first",
        )
        if with_rep:
            sp.add_argument("--rep", help="one representation, e.g. ps:2 or cusp:1")
        sp.add_argument("--out", help="write output to this file")

    sp = sub.add_parser("correlate", help="correlation constants")
    field_args(sp)
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(fn=cmd_correlate)

    sp = sub.add_parser("modp", help="residues at the primes above p")
    field_args(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=cmd_modp)

    sp = sub.add_parser("chartable", help="character table")
    field_args(sp, with_rep=False)
    sp.add_argument("--check", action="store_true", help="verify orthogonality")
    sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sp.set_defaults(fn=cmd_chartable)

    sp = sub.add_parser("shintani", help="base-change sign rule")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--f-base", type=int, default=1, help="base field degree over p")
    sp.add_argument("--ext", type=int, required=True, help="extension degree")
    sp.add_argument("--j", type=int, help="character exponent (default: all eligible)")
    sp.add_argument(
        "--check-operator",
        action="store_true",
        help="also verify the twisted intertwiner (slow for large fields)",
    )
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", help="write output to this file")
    sp.set_defaults(fn=cmd_shintani)

    sp = sub.add_parser("verify", help="run a named self-check suite")
    sp.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        required=True,
    )
    sp.add_argument("--p", type=int, help="restrict to one field: its prime")
    sp.add_argument("--f", type=int, help="restrict to one field: its degree")
    sp.add_argument(
        "--f-base", type=int, help="shintani only: base field degree over p"
    )
    sp.add_argument(
        "--ext", type=int, help="shintani only: extension degree over the base"
    )
    sp.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
