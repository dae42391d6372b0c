"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are exact throughout (integer, rational, or factor-multiset
equality).
"""

import hashlib
from fractions import Fraction

import pytest

from exceis import cases
from exceis.config import load_config
from exceis.eiscalc import (CoordVector, ZetaProduct, apply_word, order_report,
                            rational_cfunction, shifted_exponent, shifted_label)
from exceis.report import to_json
from weyl_reference import longest_rep, normalized_sign


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def algebra_full(cfg):
    # one full-count run shared by the algebra and triality criteria
    return cases.algebra_report(cfg, "all", seed=cfg.claims.seed, count=1000)


# sha256 of to_json(algebra_report(cfg, "all", seed=7, count=1000)), recorded
# before the suites moved to cleared-denominator integer representatives
ALGEBRA_SHA256 = "a7d7136046b64febc4949208b739f7bdda0c057b940dde2b0d7e5bd596186b1f"


def _announce(tag, ok):
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _table(cfg, case_name, target):
    case = cfg.case(case_name)
    table = next(t for t in case.tables
                 if cfg.system(case.system).parabolic(t.target).radical
                 == cfg.system(case.system).parabolic(target).radical)
    return cases.build_table_report(cfg, case, table)


def test_ac1_coset_censuses(cfg):
    expected = {
        ("GE-field", "P0"): 6, ("GE-field", "P1"): 4, ("GE-field", "P2"): 3,
        ("GE-split", "P2"): 7, ("GE-split", "P1"): 3,
        ("GE-QxF", "P2"): 5, ("GE-QxF", "P1"): 3, ("GE-QxF", "P3"): 3,
        ("F4-heis", "P4"): 3, ("F4-heis", "P1"): 5, ("F4-heis", "P2"): 7,
        ("F4-heis", "P3"): 5,
        ("E7-siegel", "P3"): 4, ("E7-siegel", "P2"): 3, ("E7-siegel", "P1"): 2,
        ("D6-min", "P2"): 2, ("D6-min", "P1"): 3,
        ("D7-min", "P1"): 3, ("D7-min", "P2"): 3, ("D7-min", "P3"): 2,
        ("E6-line", "P1"): 2,
    }
    ok = True
    for (case_name, target), size in expected.items():
        doc = _table(cfg, case_name, target)
        if doc["census_size"] != size or not doc["census_ok"]:
            ok = False
            print(f"  census {case_name}/{target}: got {doc['census_size']}, "
                  f"want {size}, matched={doc['census_ok']}")
        for row in doc["rows"]:
            census = next(c for c in row["checks"] if c["name"] == "census")
            if not census["ok"]:
                ok = False
                print(f"  element mismatch {case_name}/{target}: {row['word']}")
    _announce("AC1 coset censuses (element lists, exact)", ok)


def test_ac2_lambda_traces(cfg):
    ok = True
    c3 = cfg.system("C3")
    lam = CoordVector.lambda_s(c3)
    tr = apply_word(c3, lam, (3, 2, 1, 3, 2, 3))
    ok &= [str(st.printed) for st in tr.steps] == \
        ["s-1", "2s-10", "s-9", "2s-18", "2s-26", "s-17"]
    shifted = shifted_exponent(c3, tr)
    ok &= [str(e) for e in shifted.entries()] == ["-s+18"] * 3

    g2 = cfg.system("G2")
    trg = apply_word(g2, CoordVector.lambda_s(g2), (2, 1, 2, 1, 2))
    ok &= [str(st.printed) for st in trg.steps] == \
        ["s-1", "s-2", "2s-5", "s-3", "s-4"]

    # every stated F4 pairing, collected from the four tables (sign-normalized:
    # pairings of flipped roots appear with the opposite sign)
    f4 = cfg.system("F4")
    lamf = CoordVector.lambda_s(f4)
    seen = set()
    for target in ("P4", "P1", "P2", "P3"):
        case = cfg.case("F4-heis")
        table = next(t for t in case.tables if t.target == target)
        for row in table.rows:
            tr = apply_word(f4, lamf, row.word)
            for j in range(1, 5):
                form = normalized_sign(shifted_label(f4, tr, j))
                if form.slope != 0:
                    seen.add(str(form))
    for want in ("s-9", "s-17", "s-6", "s-11", "s-15", "s-10", "s-3", "s-1"):
        if want not in seen:
            ok = False
            print(f"  missing F4 pairing form {want}")
    _announce("AC2 lambda-trace reproduction (exact affine forms)", ok)


def test_ac3_cfunctions(cfg):
    ok = True
    checks = [
        ("D5-line", (1,), ["zeta(s-4)", "zeta(s-7)", "zeta(s)^-1", "zeta(s-3)^-1"]),
        ("E7-siegel", (3,), ["zeta(s-1)", "zeta(s)^-1"]),
        ("E7-siegel", (3, 2, 3), ["zeta(s-5)", "zeta(s-9)",
                                  "zeta(s)^-1", "zeta(s-4)^-1"]),
        ("E7-siegel", (3, 2, 1, 3, 2, 3),
         ["zeta(s-9)", "zeta(s-13)", "zeta(s-17)",
          "zeta(s)^-1", "zeta(s-4)^-1", "zeta(s-8)^-1"]),
        ("D6-min", (1,), ["zeta(s-1)", "zeta(s)^-1"]),
        ("D6-min", (2, 1), ["zeta(s-5)", "zeta(s-8)", "zeta(s)^-1", "zeta(s-4)^-1"]),
        ("D6-min", (1, 2, 1), ["zeta(s-5)", "zeta(s-9)",
                               "zeta(s)^-1", "zeta(s-4)^-1"]),
        ("D7-min", (1, 2, 3, 2, 1), ["zeta(s-6)", "zeta(s-11)",
                                     "zeta(s)^-1", "zeta(s-5)^-1"]),
    ]
    for case_name, word, want in checks:
        case = cfg.case(case_name)
        system = cfg.system(case.system)
        got = rational_cfunction(system, case.rules,
                                 apply_word(system, CoordVector.lambda_s(system), word))
        if not got.same_function(ZetaProduct.parse(want)):
            ok = False
            print(f"  {case_name} {word}: {got.expanded()}")
    # the D7 long-intertwiner product including its Pochhammer/Gamma factors
    row = next(r for t in cfg.case("D7-min").tables for r in t.rows
               if r.word == (1, 2, 3, 2, 1))
    full = row.cfunction * row.cfunction_arch
    ok &= len(full.factors) == 10
    _announce("AC3 c-function reproduction (factor multisets)", ok)


def test_ac4_order_ledgers(cfg):
    ok = True
    d5 = ZetaProduct.parse(["zeta(s-4)", "zeta(s-7)", "zeta(s)^-1", "zeta(s-3)^-1"])
    ok &= order_report(d5, 5).total == 0

    e7 = ZetaProduct.parse(["zeta(s-9)", "zeta(s-13)", "zeta(s-17)",
                            "zeta(s)^-1", "zeta(s-4)^-1", "zeta(s-8)^-1"])
    ok &= order_report(e7, 14).total == -1

    d7row = next(r for t in cfg.case("D7-min").tables for r in t.rows
                 if r.word == (1, 2, 3, 2, 1))
    full = d7row.cfunction * d7row.cfunction_arch
    rep = order_report(full, 7)
    ok &= rep.total == -1
    ledger = {str(e.factor): e.contribution for e in rep.entries}
    ok &= ledger["zeta(s-6)"] == -1
    ok &= ledger["zeta(s-11)"] == 1
    ok &= ledger["poch(s/2-11/2;3)"] == -1

    # the four rank-2 minimal-case terms, weight symbols bound to zero
    p0 = next(t for t in cfg.case("D6-min").tables if t.target == "P0")
    for row in p0.rows:
        prod = row.cfunction or ZetaProduct()
        if row.cfunction_arch is not None:
            prod = prod * row.cfunction_arch
        rep = order_report(prod, 6, row.order_symbols)
        if rep.total != 0:
            ok = False
            print(f"  D6 term {row.word}: order {rep.total}")
    _announce("AC4 order ledgers (exact integers)", ok)


def test_ac5_gk_oracle(cfg):
    doc = cases.oracle_report(cfg)
    ok = doc["status"] == "Verified"
    # the orthogonal-family long intertwiners telescope to exactly 4 factors
    for name in ("D5", "D6", "D7"):
        oracle = cfg.oracle(name)
        w0 = longest_rep(oracle.rational, oracle.rational.parabolic("P1"))
        prod = oracle.gk_restricted(w0)
        if len(prod.expanded().factors) != 4:
            ok = False
            print(f"  {name} long intertwiner: {prod}")
    # E7: rational rule vs absolute restriction, all four words
    e7case = cfg.case("E7-siegel")
    system = cfg.system(e7case.system)
    rules = e7case.rules
    oracle = cfg.oracle("E7")
    lam = CoordVector.lambda_s(system)
    for word in ((), (3,), (3, 2, 3), (3, 2, 1, 3, 2, 3)):
        if not rational_cfunction(system, rules, apply_word(system, lam, word)).same_function(
                oracle.gk_restricted(word)):
            ok = False
            print(f"  E7 {word} disagrees with the absolute computation")
    _announce("AC5 GK oracle equivalence (absolute vs rational)", ok)


def test_ac6_arch_patterns(cfg):
    doc = cases.arch_report(cfg)
    ok = doc["status"] == "Verified"
    names = {row["name"] for row in doc["rows"] if row.get("ok")}
    ok &= {"v212", "v21212", "v1212", "v12-g2", "v12-d4", "v12432",
           "v32312"} <= names
    # intermediate witness of the split-case v12 computation
    from exceis.archmult import A1, A1_DEN, A1_INV, diag_factors
    from exceis.exactnum import AffineForm
    col = [A1[i][2] for i in range(3)]
    factors, den = diag_factors(AffineForm(1, -1))
    d4 = [Fraction(f.eval(5), den.eval(5)) for f in factors]
    vals = [d * c for d, c in zip(d4, col)]
    ok &= vals == [12, 12, 6]
    back = [Fraction(sum(A1_INV[i][k] * vals[k] for k in range(3)), A1_DEN) for i in range(3)]
    ok &= back == [6, 0, 0]
    _announce("AC6 archimedean multiplier patterns at s=5 (exact)", ok)


def test_ac7_modulus_exponents(cfg):
    doc = cases.modulus_report(cfg)
    ok = doc["status"] == "Verified"
    got = {(r["system"], r["parabolic"]): r["computed"] for r in doc["rows"]}
    ok &= got[("D5abs", "P1")] == "8" and got[("D5rel", "P1")] == "8"
    ok &= got[("D6abs", "P1")] == "10" and got[("D7abs", "P1")] == "12"
    ok &= got[("C3-E7rational", "P3")] == "18"
    ok &= got[("F4-GJrational", "P1")] == "29"
    ok &= all(got[(s, p)] == "5" for s, p in
              (("G2-GEfield", "P1"), ("D4-GEsplit", "P2"), ("B3-GEQxF", "P2")))
    _announce("AC7 modulus-character exponents (2n-2 / 18 / 29 / 5)", ok)


def test_ac8_algebra_property_suites(cfg, algebra_full):
    wanted = ("composition", "sharp", "trace-identity", "positivity",
              "rank-one", "ve-claims", "rank-one-c1", "rank-one-orth-f",
              "freudenthal")
    by_name = {s["name"]: s for s in algebra_full["suites"]}
    ok = True
    for name in wanted:
        s = by_name[name]
        if s["status"] != "Verified" or s["failures"] != 0 or s["cases"] < 1000:
            ok = False
            print(f"  suite {name}: {s}")
    _announce("AC8 algebra property suite (seeded, 1000 cases, exact)", ok)


def test_ac9_triality_suite(cfg, algebra_full):
    s = next(x for x in algebra_full["suites"] if x["name"] == "triality")
    ok = (s["status"] == "Verified" and s["failures"] == 0
          and s["cases"] == 3000
          and s["fields"] == ["Q", "GF(11)", "GF(13)"])
    _announce("AC9 triality suite over Q and two odd prime fields", ok)


def test_algebra_section_digest(cfg, algebra_full):
    assert algebra_full["seed"] == 7
    digest = hashlib.sha256(to_json(algebra_full).encode()).hexdigest()
    assert digest == ALGEBRA_SHA256


def test_ac10_determinism(cfg):
    doc1 = cases.run_all(cfg, seed=5, count=10)
    doc2 = cases.run_all(cfg, seed=5, count=10)
    ok = to_json(doc1) == to_json(doc2)
    ok &= doc1["status"] != "Mismatch"
    _announce("AC10 byte-identical reports for fixed seed and config", ok)
