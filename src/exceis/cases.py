"""Assembly of verification reports for the configured cases.

Every row of a constant-term table is recomputed from scratch (census
membership, associated simple roots, lambda trace, convergence margins,
c-function, archimedean multiplier) and compared against the expected
values carried by the config.  A row's status is

* ``Verified``           -- every machine check passed, no cited inputs;
* ``UnverifiedExternal`` -- machine checks passed but the row's conclusion
                            also rests on a cited input (functional
                            equations, unprinted archimedean recipes, ...);
* ``Mismatch``           -- some recomputed value disagrees.
"""

from __future__ import annotations

from typing import NamedTuple

from .archmult import vanishing_order
from .config import CaseSpec, Config, RowSpec, TableSpec, UnprintedArch, check_forms
from .eiscalc import (CoordVector, apply_word, convergence, intertwiner_verdict,
                      order_report, rational_cfunction, shifted_exponent, shifted_label)
from .exactnum import AffineForm
from .rootsys import ParabolicSpec, RootSystem, Word


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _worst(statuses) -> str:
    """The status of a report read off those of its parts: Mismatch over
    UnverifiedExternal over Verified; any other status does not count."""
    seen = set(statuses)
    return next((s for s in ("Mismatch", "UnverifiedExternal") if s in seen), "Verified")


def _verified(ok: bool) -> str:
    return "Verified" if ok else "Mismatch"


def _census(system: RootSystem, rows: list[RowSpec], reps: list[Word]):
    """The census rule: a row names the representative whose group element
    its word is, and the word must be as long as that representative
    (reduced); the rows name the representatives one to one.  Returns each
    row's (representative or None, census check), the representatives no
    row names, and whether the rule holds."""
    by_element = {system.element(w): w for w in reps}
    matches = []
    for row in rows:
        rep = by_element.get(system.element(row.word))
        ok = rep is not None and len(rep) == len(row.word)
        detail = f"= representative {list(rep)}" if ok else "is not in the computed census"
        matches.append((rep if ok else None, Check("census", ok, f"word {list(row.word)} {detail}")))
    used = {rep for rep, _ in matches}
    unmatched = [list(w) for w in reps if w not in used]
    return matches, unmatched, not unmatched and len(rows) == len(reps)


def _action_check(system: RootSystem, rep: Word, action: dict[int, tuple[int, int]]) -> Check:
    """The row's stated images r_i -> +-r_j of the coordinate forms against
    those of its representative, each read off the lambda trace of a
    coordinate unit vector."""
    units = [tuple(int(d == i) for d in range(system.dim)) for i in range(system.dim)]
    zero = (0,) * system.dim
    wrong = [f"r{i}" for i, (sign, j) in action.items()
             if apply_word(system, CoordVector(units[i - 1], zero), rep).final.slope
             != tuple(sign * x for x in units[j - 1])]
    stated = ", ".join(f"r{i}: {'-' * (sign < 0)}r{j}" for i, (sign, j) in action.items())
    return Check("action", not wrong, f"{{{stated}}} "
                 + (f"differs at {', '.join(wrong)}" if wrong else "matches"))


def _lambda(system: RootSystem, case: CaseSpec) -> CoordVector:
    """lambda = s*nu - rho on the case's system; a stated lambda_printed
    must be it."""
    lam = CoordVector.lambda_s(system)
    check_forms(f"cases.{case.name}.lambda_printed", lam, case.lambda_printed)
    return lam


def build_table_report(cfg: Config, case: CaseSpec, table: TableSpec) -> dict:
    system = cfg.system(case.system)
    source = system.parabolic(case.source)
    target = system.parabolic(table.target)
    s0 = case.s0
    lam = _lambda(system, case)
    reps = system.double_coset_reps(target, source)
    matches, unmatched, census_ok = _census(system, table.rows, reps)

    def recompute(row: RowSpec, rep: Word, rec: dict, checks: list[Check]) -> bool:
        """Recompute a matched row into rec and checks; True when the row
        also rests on an archimedean claim stated without a recipe."""
        # associated simple roots
        assoc = system.associated_simple_roots(rep, target, source)
        rec["assoc_simples"] = list(assoc)
        if row.assoc is not None:
            checks.append(Check("assoc", tuple(assoc) == tuple(row.assoc),
                                f"computed {list(assoc)}, expected {list(row.assoc)}"))
        if row.action is not None:
            checks.append(_action_check(system, rep, row.action))

        # lambda trace, the row's only one: lambda', the intertwiner verdict
        # and the c-function are all read off it
        trace = apply_word(system, lam, row.word)
        rec["trace"] = [{"letter": st.letter, "pairing": str(st.printed)}
                        for st in trace.steps]
        if row.trace is not None:
            got = [(st.letter, st.printed) for st in trace.steps]
            ok = got == [(l, p) for l, p in row.trace]
            checks.append(Check("trace", ok,
                                "step pairings "
                                + ("match" if ok else
                                   f"differ: {[(l, str(p)) for l, p in got]}")))

        lam_prime = shifted_exponent(system, trace)
        rec["lambda_prime"] = [str(e) for e in lam_prime.entries()]
        if row.lambda_prime is not None:
            ok = list(lam_prime.entries()) == row.lambda_prime
            checks.append(Check("lambda_prime", ok,
                                f"w(lambda)+rho = {lam_prime}"))

        # printed pairings of lambda' with Levi roots
        pairs = []
        for pc in row.pairings:
            val = shifted_label(system, trace, pc.root)
            ok = val == pc.expect
            pairs.append({"root": pc.root, "value": str(val),
                          "expected": str(pc.expect), "ok": ok})
            checks.append(Check(f"pairing[{pc.root}]", ok,
                                f"<lambda', a{pc.root}> = {val}"))
        rec["pairings"] = pairs

        # Eisenstein convergence margins
        eis_rows = []
        for ec in row.eis:
            if ec.functional is not None:
                forms = lam_prime.entries()
                form = AffineForm(0, 0)
                for c, f in zip(ec.functional, forms):
                    form = form + f.scale(c)
            else:
                form = shifted_label(system, trace, ec.root)
            value = form.eval(s0)
            margin = value - ec.threshold
            status = convergence(margin)
            ok = status == ec.status
            eis_rows.append({"value": str(value), "threshold": str(ec.threshold),
                             "margin": str(margin), "status": status,
                             "expected": ec.status, "ok": ok,
                             "printed": ec.printed})
            checks.append(Check("eisenstein", ok,
                                f"value {value} vs threshold {ec.threshold}: {status}"))
        rec["eis"] = eis_rows

        # intertwining operator
        iv = intertwiner_verdict(system, case.rules, trace, s0)
        rec["intertwiner"] = {
            "local": iv.local_status,
            "global": iv.global_status,
            "order": iv.global_order,
            "min_pairing": None if iv.min_pairing is None else str(iv.min_pairing),
        }
        if row.intertwiner_local is not None:
            checks.append(Check("intertwiner_local",
                                iv.local_status == row.intertwiner_local,
                                f"{iv.local_status} (expected {row.intertwiner_local})"))
        if row.intertwiner_global is not None:
            checks.append(Check("intertwiner_global",
                                iv.global_status == row.intertwiner_global,
                                f"{iv.global_status} (expected {row.intertwiner_global})"))

        # c-function
        if row.cfunction is not None:
            full = row.cfunction
            checks.append(Check("cfunction", iv.expanded == full.expanded(),
                                f"computed {iv.cfunction}"))
            if row.cfunction_arch is not None:
                full = full * row.cfunction_arch
            rec["cfunction_printed"] = str(full)
            if row.order_total is not None:
                rep_ord = order_report(full, s0, row.order_symbols)
                rec["order_report"] = {
                    "total": rep_ord.total,
                    "classification": rep_ord.classification,
                    "ledger": [{"factor": str(e.factor), "exponent": e.exponent,
                                "order": e.own_order} for e in rep_ord.entries],
                }
                checks.append(Check("order", rep_ord.total == row.order_total,
                                    f"order {rep_ord.total} at s0={s0}"))
        rec["cfunction"] = str(iv.expanded)

        # archimedean multiplier: the arch section's claim on this word of the
        # case, a recipe's own verdict (at the recipe's checks.s0) and its
        # vanishing order at the case's s0, or a claim stated without a recipe
        claim = cfg.arch_claims.get((case.name, row.word))
        if claim is None:
            return False
        if isinstance(claim, UnprintedArch):
            rec["arch"] = {"stated": claim.claim, "status": "unverified: recipe not printed"}
            return True
        vec, pc = cfg.catalog.verdict(claim)
        rec["arch"] = {"recipe": claim.name, "ok": pc.ok, "ledger": pc.ledger}
        checks.append(Check("arch_pattern", pc.ok, f"{claim.name}: " + "; ".join(pc.ledger)))
        if claim.min_vanishing_order is not None:
            vo = vanishing_order(vec, s0)
            rec["arch"]["vanishing_order"] = vo
            checks.append(Check("arch_order", vo >= claim.min_vanishing_order,
                                f"vanishing order {vo} >= {claim.min_vanishing_order}"))
            if iv.global_order is not None:
                rec["arch"]["net_order"] = iv.global_order + vo
        return False

    rows = []
    for row, (rep, census_check) in zip(table.rows, matches):
        checks = [census_check]
        rec: dict = {
            "word": list(row.word),
            "canonical_word": list(rep) if rep is not None else None,
            "length": len(rep) if rep is not None else None,
            "classification": row.conclusion,
            "external": list(row.external),
            "note": row.note,
        }
        unverified = rep is not None and (recompute(row, rep, rec, checks) or bool(row.external))
        rec["checks"] = [c.as_dict() for c in checks]
        rec["status"] = ("Mismatch" if not all(c.ok for c in checks)
                         else "UnverifiedExternal" if unverified else "Verified")
        rows.append(rec)

    return {
        "kind": "constant-term",
        "case": case.name,
        "system": case.system,
        "source": case.source,
        "target": table.target,
        "s0": str(s0),
        "census_size": len(reps),
        "census_expected": len(table.rows),
        "census_unmatched": unmatched,
        "census_ok": census_ok,
        "rows": rows,
        "status": _worst([_verified(census_ok)] + [r["status"] for r in rows]),
    }


def _find_table(system: RootSystem, cases, left: ParabolicSpec,
                right: ParabolicSpec):
    """The first (case, table) among the given cases of this system that is
    induced from right's radical down to left's, or None."""
    for case in cases:
        if (case.system == system.name
                and system.parabolic(case.source).radical == right.radical):
            for table in case.tables:
                if system.parabolic(table.target).radical == left.radical:
                    return case, table
    return None


def constant_term_report(cfg: Config, case_name: str, source: str, target: str) -> dict:
    case = cfg.case(case_name)
    system = cfg.system(case.system)
    if system.parabolic(source).radical != system.parabolic(case.source).radical:
        raise ValueError(f"case {case.name} is induced from {case.source}, not {source}")
    found = _find_table(system, [case], system.parabolic(target),
                        system.parabolic(source))
    if found is None:
        raise ValueError(f"case {case.name} has no configured table for target {target}")
    return build_table_report(cfg, *found)


def cosets_report(cfg: Config, system_name: str, left: str, right: str) -> dict:
    system = cfg.system(system_name)
    lp, rp = system.parabolic(left), system.parabolic(right)
    reps = system.double_coset_reps(lp, rp)
    expected = _find_table(system, cfg.cases.values(), lp, rp)
    if expected is None:
        status = "Computed"
        rows = [{"word": list(w), "canonical_word": list(w), "length": len(w),
                 "ok": True, "detail": ""} for w in reps]
    else:
        table_rows = expected[1].rows
        matches, _, census_ok = _census(system, table_rows, reps)
        status = _verified(census_ok)
        rows = [{"word": list(row.word),
                 "canonical_word": list(rep) if rep is not None else None,
                 "length": len(rep) if rep is not None else None,
                 "ok": check.ok, "detail": check.detail}
                for row, (rep, check) in zip(table_rows, matches)]
    return {
        "kind": "cosets",
        "system": system.name,
        "left": left,
        "right": right,
        "count": len(reps),
        "words": [list(w) for w in reps],
        "rows": rows,
        "status": status,
    }


def modulus_report(cfg: Config) -> dict:
    rows = []
    for mc in cfg.modulus_checks:
        system = cfg.system(mc.system)
        got = system.modulus_exponent(system.parabolic(mc.parabolic))
        rows.append({"system": mc.system, "parabolic": mc.parabolic,
                     "computed": str(got), "expected": str(mc.expect),
                     "ok": got == mc.expect})
    return {"kind": "modulus", "rows": rows,
            "status": _verified(all(r["ok"] for r in rows))}


def arch_report(cfg: Config, case_name: str | None = None) -> dict:
    rows = []
    wanted = cfg.case(case_name).name if case_name else None
    for recipe in cfg.catalog.recipes.values():
        if wanted and recipe.case != wanted:
            continue
        _, pc = cfg.catalog.verdict(recipe)
        rows.append({"name": recipe.name, "case": recipe.case,
                     "word": list(recipe.word), "tokens": recipe.text,
                     "ok": pc.ok, "ledger": pc.ledger, "status": _verified(pc.ok)})
    for u in cfg.unprinted_arch:
        if wanted and u.case != wanted:
            continue
        rows.append({"name": u.name, "case": u.case, "word": list(u.word),
                     "claim": u.claim, "status": "unverified: recipe not printed"})
    # the unprinted claims are listed, not checked: they leave the status be
    return {"kind": "arch", "case": case_name, "rows": rows,
            "status": _worst(r["status"] for r in rows)}


def oracle_report(cfg: Config) -> dict:
    """GK oracle equivalence: the rational-rule c-function of each configured
    word equals the absolute-system computation after restriction.  A word
    that is not reduced has no c-function: its row says so and fails."""
    rows = []
    for case_name in sorted(cfg.cases):
        case = cfg.cases[case_name]
        if not case.oracle:
            continue
        system = cfg.system(case.system)
        oracle = cfg.oracle(case_name)
        lam = _lambda(system, case)
        words = {tuple(r.word) for t in case.tables for r in t.rows}
        for w in sorted(words, key=lambda w: (len(w), w)):
            if not system.is_reduced(w):
                rows.append({"case": case_name, "word": list(w),
                             "detail": f"word {list(w)} is not reduced", "ok": False})
                continue
            rat = rational_cfunction(system, case.rules, apply_word(system, lam, w))
            absc = oracle.gk_restricted(w)
            rows.append({"case": case_name, "word": list(w),
                         "rational": str(rat), "absolute": str(absc),
                         "ok": rat.same_function(absc)})
    return {"kind": "gk-oracle", "rows": rows,
            "status": _verified(all(r["ok"] for r in rows))}


def algebra_report(cfg: Config, suite: str = "all", seed: int | None = None,
                   count: int | None = None) -> dict:
    """The seeded algebra suites, all or the one named, in report order.

    `suites.suite_results` runs them in forked children: one job per suite,
    and one per field (Q, then each configured prime) for triality, whose
    jobs start first.  The triality fields share the stream
    ``{seed}:triality``; the parent walks it field by field and hands each
    field's job the stream's state at that field's start.  At most
    ``len(os.sched_getaffinity(0))`` children run at once."""
    seed = cfg.claims.seed if seed is None else seed
    count = cfg.claims.count if count is None else count
    if count < 1:
        raise ValueError(f"algebra sample count must be at least 1, got {count}")
    from .suites import SUITES, suite_results   # a table query never loads them
    names = [name for name, _ in SUITES if suite in ("all", name)]
    if not names:
        raise ValueError(f"unknown algebra suite {suite!r}")
    suites = []
    for name, res in zip(names, suite_results(cfg, names, seed, count)):
        ok = res["failures"] == 0 and res.get("dims_ok") is not False
        suites.append({"name": name, **res, "status": _verified(ok)})
    return {"kind": "algebra", "suite": suite, "seed": seed, "count": count,
            "suites": suites, "status": _worst(s["status"] for s in suites)}


def run_all(cfg: Config, seed: int | None = None, count: int | None = None) -> dict:
    algebra = algebra_report(cfg, "all", seed=seed, count=count)  # rejects a bad count early
    sections = []
    for case_name in sorted(cfg.cases):
        case = cfg.cases[case_name]
        for table in case.tables:
            sections.append(build_table_report(cfg, case, table))
    sections.append(modulus_report(cfg))
    sections.append(oracle_report(cfg))
    sections.append(arch_report(cfg))
    sections.append(algebra)
    return {"kind": "all", "seed": cfg.claims.seed if seed is None else seed,
            "sections": sections, "status": _worst(s["status"] for s in sections)}
