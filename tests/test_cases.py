import dataclasses
from collections import Counter

import pytest

from exceis import cases, compalg, eiscalc
from exceis.config import Config, RowSpec, TableSpec, load_config
from exceis.eiscalc import ZetaProduct
from exceis.report import to_json, to_markdown


@pytest.fixture(scope="module")
def cfg():
    return load_config()


class TestTableReports:
    def test_all_tables_clean(self, cfg):
        for case_name in cfg.cases:
            case = cfg.cases[case_name]
            for table in case.tables:
                doc = cases.build_table_report(cfg, case, table)
                assert doc["status"] != "Mismatch", (case_name, table.target, [
                    (r["word"], c) for r in doc["rows"]
                    for c in r.get("checks", []) if not c["ok"]])
                assert doc["census_ok"]

    def test_ge_field_classifications(self, cfg):
        doc = cases.constant_term_report(cfg, "GE-field", "P1", "P1")
        got = {tuple(r["word"]): r["classification"] for r in doc["rows"]}
        assert got[()] == "Contributes"
        assert got[(2,)] == "Contributes"
        assert got[(2, 1, 2)] == "DoesNotContribute"
        assert got[(2, 1, 2, 1, 2)] == "DoesNotContribute"
        w0 = next(r for r in doc["rows"] if r["word"] == [2, 1, 2, 1, 2])
        assert w0["arch"]["vanishing_order"] >= 2
        assert w0["arch"]["net_order"] >= 1
        assert w0["intertwiner"]["global"] == "PoleOrder(1)"

    def test_f4_langlands_row_needs_external(self, cfg):
        doc = cases.constant_term_report(cfg, "F4-heis", "P1", "P2")
        row = next(r for r in doc["rows"]
                   if r["word"] == [2, 3, 4, 2, 3, 1, 2, 3, 4, 1, 2, 3, 2, 1])
        assert row["classification"] == "NeedsExternalInput"
        assert row["status"] == "UnverifiedExternal"

    def test_trivial_full_parabolic_table(self, cfg):
        case = cfg.case("GE-field")
        table = TableSpec(target="full", rows=[RowSpec(word=())])
        doc = cases.build_table_report(cfg, case, table)
        assert doc["census_size"] == 1
        assert doc["rows"][0]["canonical_word"] == []

    def test_boundary_margins_reported(self, cfg):
        doc = cases.constant_term_report(cfg, "GE-split", "P2", "P1")
        row = next(r for r in doc["rows"] if r["word"] == [1, 2, 4, 3, 2])
        eis = row["eis"][0]
        assert eis["status"] == "Boundary" and eis["margin"] == "0"

    def test_mismatch_detected(self, cfg):
        # a wrong expected word must surface as a Mismatch
        case = cfg.case("D5-line")
        table = TableSpec(target="P1", rows=[RowSpec(word=()), RowSpec(word=(1, 1))])
        doc = cases.build_table_report(cfg, case, table)
        assert doc["status"] == "Mismatch"

    def test_wrong_pairing_detected(self, cfg):
        from exceis.config import PairingCheck
        from exceis.exactnum import AffineForm
        case = cfg.case("F4-heis")
        bad = RowSpec(word=(4, 3, 2, 1),
                      pairings=[PairingCheck(2, AffineForm.parse("s-8"))])
        table = TableSpec(target="P4", rows=[
            RowSpec(word=()), bad,
            RowSpec(word=(4, 3, 2, 3, 4, 1, 2, 3, 2, 1))])
        doc = cases.build_table_report(cfg, case, table)
        row = next(r for r in doc["rows"] if r["word"] == [4, 3, 2, 1])
        assert row["status"] == "Mismatch"
        assert doc["status"] == "Mismatch"

    def test_wrong_trace_detected(self, cfg):
        from exceis.exactnum import AffineForm
        case = cfg.case("GE-field")
        bad = RowSpec(word=(2,), trace=[(2, AffineForm.parse("s-2"))])
        table = TableSpec(target="P1", rows=[
            RowSpec(word=()), bad, RowSpec(word=(2, 1, 2)),
            RowSpec(word=(2, 1, 2, 1, 2))])
        doc = cases.build_table_report(cfg, case, table)
        row = next(r for r in doc["rows"] if r["word"] == [2])
        assert row["status"] == "Mismatch"

    def test_census_extra_elements_flagged(self, cfg):
        case = cfg.case("D5-line")
        table = TableSpec(target="P1", rows=[RowSpec(word=())])
        doc = cases.build_table_report(cfg, case, table)
        assert not doc["census_ok"]
        assert doc["census_unmatched"] == [[1]]

    def test_wrong_source_raises(self, cfg):
        with pytest.raises(ValueError):
            cases.constant_term_report(cfg, "E7-siegel", "P2", "P3")

    def test_unknown_case_raises(self, cfg):
        from exceis.config import ConfigError
        with pytest.raises(ConfigError):
            cfg.case("nonsense")


def test_tables_pass_expands_each_computed_cfunction_once(monkeypatch):
    """A fresh tables pass expands each row's computed c-function once: the
    intertwiner verdict carries the expanded product, which the global
    verdict reads and the row compares and prints."""
    computed, expanded = [], []
    build, expand = eiscalc.rational_cfunction, ZetaProduct.expanded
    monkeypatch.setattr(eiscalc, "rational_cfunction",
                        lambda *args: computed.append(build(*args)) or computed[-1])
    monkeypatch.setattr(ZetaProduct, "expanded",
                        lambda self: expanded.append(self) or expand(self))
    cfg = Config(load_config().raw)
    for case in cfg.cases.values():
        for table in case.tables:
            cases.build_table_report(cfg, case, table)
    times = Counter(map(id, expanded))
    assert len(computed) > 80
    assert [times[id(c)] for c in computed] == [1] * len(computed)


def _cosets_unmatched(doc: dict) -> list:
    matched = {tuple(r["canonical_word"]) for r in doc["rows"]
               if r["canonical_word"] is not None}
    return [w for w in doc["words"] if tuple(w) not in matched]


class TestArchClaims:
    """Every row takes the arch section's claim on its (case, word), in
    every table of the case."""

    def test_ge_field_p0_rows_take_their_word_claims(self, cfg):
        doc = cases.constant_term_report(cfg, "GE-field", "P1", "P0")
        assert doc["kind"] == "constant-term"
        recipes = {tuple(r["word"]): r["arch"]["recipe"] for r in doc["rows"] if "arch" in r}
        assert recipes == {(2, 1, 2): "v212", (2, 1, 2, 1, 2): "v21212",
                           (1, 2, 1, 2): "v1212", (1, 2): "v12-g2"}
        names = [c["name"] for r in doc["rows"] for c in r["checks"]]
        assert names.count("arch_pattern") == 4 and names.count("arch_order") == 1
        assert {r["status"] for r in doc["rows"]} == {"Verified"}

    def test_every_claim_reaches_a_row(self, cfg):
        seen = set()
        for case in cfg.cases.values():
            for table in case.tables:
                for r in cases.build_table_report(cfg, case, table)["rows"]:
                    if "arch" in r:
                        claim = cfg.arch_claims[case.name, tuple(r["word"])]
                        assert r["arch"].get("recipe", claim.name) == claim.name
                        assert r["arch"].get("stated", getattr(claim, "claim", None)) \
                            == getattr(claim, "claim", None)
                        seen.add((case.name, tuple(r["word"])))
        assert seen == set(cfg.arch_claims)


class TestCensusRule:
    """The table and cosets reports apply one census rule: the configured
    rows and the computed representatives correspond one to one."""

    @pytest.mark.parametrize("target", ["P0", "P1"])   # rows of words only, and full rows
    @pytest.mark.parametrize("edit", ["drop", "non-representative", "duplicate"])
    def test_broken_census_mismatches_in_both_reports(self, cfg, monkeypatch, target, edit):
        case = cfg.case("GE-field")
        table = next(t for t in case.tables if t.target == target)
        before = cases.build_table_report(cfg, case, table)
        rows = list(table.rows)
        if edit == "drop":
            lost = before["rows"][-1]["canonical_word"]
            rows.pop()
        else:
            # s1 lies in the source Levi, so (1,) is no representative;
            # a duplicate names the identity a second time
            lost = before["rows"][1]["canonical_word"]
            word = (1,) if edit == "non-representative" else rows[0].word
            rows[1] = dataclasses.replace(rows[1], word=word)
        monkeypatch.setattr(table, "rows", rows)

        doc = cases.build_table_report(cfg, case, table)
        cos = cases.cosets_report(cfg, case.system, target, case.source)
        assert doc["status"] == cos["status"] == "Mismatch"
        assert not doc["census_ok"]
        assert doc["census_unmatched"] == _cosets_unmatched(cos) == [lost]


class TestActionIsAnExpectation:
    """A row's action is checked against its representative; the census
    matches every row by its word alone."""

    def test_wrong_action_mismatches_its_row(self, cfg, monkeypatch):
        case = cfg.case("D6-min")
        table = next(t for t in case.tables if t.target == "P1")
        k = next(i for i, r in enumerate(table.rows) if r.word == (1,))
        rows = list(table.rows)
        rows[k] = dataclasses.replace(rows[k], action={1: (-1, 2), 2: (1, 1)})
        monkeypatch.setattr(table, "rows", rows)
        doc = cases.build_table_report(cfg, case, table)
        checks = {c["name"]: c for c in doc["rows"][k]["checks"]}
        assert checks["census"]["ok"] and doc["census_ok"]
        assert checks["action"] == {"name": "action", "ok": False,
                                    "detail": "{r1: -r2, r2: r1} differs at r1"}
        assert doc["rows"][k]["status"] == doc["status"] == "Mismatch"

    def test_every_stated_action_is_checked(self, cfg):
        stated = checked = 0
        for case in cfg.cases.values():
            for table in case.tables:
                stated += sum(r.action is not None for r in table.rows)
                checked += sum(c["name"] == "action" and c["ok"]
                               for r in cases.build_table_report(cfg, case, table)["rows"]
                               for c in r["checks"])
        assert stated == checked == 8


class TestCosetsReport:
    def test_without_expectation_is_computed(self, cfg):
        doc = cases.cosets_report(cfg, "F4", "M4", "M2")
        assert doc["status"] == "Computed"
        assert doc["count"] == len(doc["rows"])

    def test_with_expectation(self, cfg):
        doc = cases.cosets_report(cfg, "D4", "M1", "M2")
        assert doc["status"] == "Verified" and doc["count"] == 3


class TestRendering:
    def test_markdown_constant_term(self, cfg):
        doc = cases.constant_term_report(cfg, "E7-siegel", "P3", "P3")
        md = to_markdown(doc)
        assert "s-17" in md and "DoesNotContribute" in md

    def test_markdown_all_kinds(self, cfg):
        for doc in (cases.modulus_report(cfg), cases.oracle_report(cfg),
                    cases.arch_report(cfg),
                    cases.algebra_report(cfg, "composition", seed=1, count=5)):
            md = to_markdown(doc)
            assert md.startswith("##")

    def test_json_sorted_and_stable(self, cfg):
        doc = cases.modulus_report(cfg)
        assert to_json(doc) == to_json(dict(reversed(list(doc.items()))))


class TestRunAll:
    def test_no_mismatch_and_all_sections(self, cfg):
        doc = cases.run_all(cfg, seed=1, count=10)
        assert doc["status"] != "Mismatch"
        kinds = [s["kind"] for s in doc["sections"]]
        # 23 constant-term tables + modulus, oracle, arch, algebra
        assert kinds.count("constant-term") == 23
        assert {"modulus", "gk-oracle", "arch", "algebra"} <= set(kinds)


class TestPlantedAlgebraFailures:
    """A one-unit defect in the layer a suite checks must turn the suite into
    a Mismatch with failures, whatever arithmetic the suite runs on."""

    def _suite(self, cfg, name):
        doc = cases.algebra_report(cfg, name, seed=7, count=6)
        (suite,) = doc["suites"]
        assert suite["failures"] > 0
        assert suite["status"] == doc["status"] == "Mismatch"

    def test_composition_sees_octonion_norm_off_by_one(self, cfg, monkeypatch):
        norm = compalg.OctonionAlgebra.norm
        monkeypatch.setattr(compalg.OctonionAlgebra, "norm",
                            lambda self, x: norm(self, x) + 1)
        self._suite(cfg, "composition")

    def test_positivity_sees_negated_trace_pairing(self, cfg, monkeypatch):
        pairing = compalg.JordanAlgebra.trace_pairing
        monkeypatch.setattr(compalg.JordanAlgebra, "trace_pairing",
                            lambda self, a, b: -pairing(self, a, b))
        self._suite(cfg, "positivity")

    def test_rank_one_c1_sees_rank_off_by_minus_one(self, cfg, monkeypatch):
        # a rank counted one low lets rank-two elements with x2 or x3 nonzero
        # pass as rank <= 1
        rank = compalg.JordanAlgebra.rank
        monkeypatch.setattr(compalg.JordanAlgebra, "rank",
                            lambda self, a: rank(self, a) - 1)
        self._suite(cfg, "rank-one-c1")

    def test_sharp_sees_norm_off_by_one(self, cfg, monkeypatch):
        norm = compalg.JordanAlgebra.norm
        monkeypatch.setattr(compalg.JordanAlgebra, "norm",
                            lambda self, a: norm(self, a) + 1)
        self._suite(cfg, "sharp")

    def test_trace_identity_sees_sharp_off_by_one(self, cfg, monkeypatch):
        sharp = compalg.JordanAlgebra.sharp

        def broken(self, a):
            s = sharp(self, a)
            return compalg.JordanElement((s.c[0] + 1,) + s.c[1:], s.x)
        monkeypatch.setattr(compalg.JordanAlgebra, "sharp", broken)
        self._suite(cfg, "trace-identity")

    def test_rank_one_sees_rank_off_by_one(self, cfg, monkeypatch):
        rank = compalg.JordanAlgebra.rank
        monkeypatch.setattr(compalg.JordanAlgebra, "rank",
                            lambda self, a: rank(self, a) + 1)
        self._suite(cfg, "rank-one")

    def test_ve_claims_sees_membership_skipping_a_basis_element(self, cfg, monkeypatch):
        def in_ve(self, el):
            return all(self.jordan.trace_pairing(el, b) == 0
                       for b in self.basis_elements[:-1])
        monkeypatch.setattr(compalg.CubicEtale, "in_ve", in_ve)
        self._suite(cfg, "ve-claims")

    def test_rank_one_orth_f_sees_sharp_off_by_one(self, cfg, monkeypatch):
        sharp = compalg.JordanAlgebra.sharp

        def broken(self, a):
            s = sharp(self, a)
            return compalg.JordanElement((s.c[0] + 1,) + s.c[1:], s.x)
        monkeypatch.setattr(compalg.JordanAlgebra, "sharp", broken)
        self._suite(cfg, "rank-one-orth-f")

    def test_freudenthal_sees_lost_scale(self, cfg, monkeypatch):
        r0 = compalg.freudenthal_r0
        monkeypatch.setattr(compalg, "freudenthal_r0",
                            lambda jalg, z, lam=1: r0(jalg, z, 0 * lam))
        self._suite(cfg, "freudenthal")

    def test_freudenthal_sees_flipped_d(self, cfg, monkeypatch):
        r0 = compalg.freudenthal_r0

        def broken(jalg, z, lam=1):
            w = r0(jalg, z, lam)
            return dataclasses.replace(w, d=-w.d)
        monkeypatch.setattr(compalg, "freudenthal_r0", broken)
        self._suite(cfg, "freudenthal")

    def test_triality_sees_one_entry_of_g2(self, cfg, monkeypatch):
        triple = compalg.triality_triple

        def broken(o, pairs):
            t = triple(o, pairs)
            bad = [row[:] for row in t.g2.mat]
            bad[3][4] += 1
            return compalg.TrialityTriple(t.g1, compalg.ScaledMatrix(bad, t.g2.den),
                                          t.g3, t.raw_t1)
        monkeypatch.setattr(compalg, "triality_triple", broken)
        self._suite(cfg, "triality")

    def test_triality_sees_unhatted_g1(self, cfg, monkeypatch):
        # g1 = raw_t1 passes the identity and every norm check; only the Gram
        # identity g1^T diag(sq_sign) t1 = g1.den d1 diag(sq_sign) rejects it
        triple = compalg.triality_triple

        def broken(o, pairs):
            t = triple(o, pairs)
            return compalg.TrialityTriple(t.raw_t1, t.g2, t.g3, t.raw_t1)
        monkeypatch.setattr(compalg, "triality_triple", broken)
        self._suite(cfg, "triality")
