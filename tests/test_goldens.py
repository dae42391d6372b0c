"""Byte-level golden-report regression tests.

The JSON renderings are deterministic for a fixed config, so representative
reports are frozen under tests/goldens/ and compared bytewise; the remaining
table, modulus, oracle and arch reports are pinned by one digest.
"""

import hashlib
from pathlib import Path

import pytest

from exceis import cases
from exceis.config import load_config
from exceis.report import to_json

GOLDENS = Path(__file__).parent / "goldens"

# sha256 of the concatenated to_json of all 23 table reports, then the
# modulus, oracle and arch reports, in run_all order (170,026 bytes)
TABLES_SHA256 = "3304c868f102317b6d9212c5b2540778f6098a91e77877fe54938391840f3286"


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def test_e7_siegel_table_golden(cfg):
    doc = cases.constant_term_report(cfg, "E7-siegel", "P3", "P3")
    assert to_json(doc) == (GOLDENS / "e7_siegel_p3.json").read_text()


def test_modulus_golden(cfg):
    assert to_json(cases.modulus_report(cfg)) == \
        (GOLDENS / "modulus.json").read_text()


def test_all_tables_digest(cfg):
    docs = [cases.build_table_report(cfg, cfg.cases[name], table)
            for name in sorted(cfg.cases) for table in cfg.cases[name].tables]
    assert len(docs) == 23
    docs += [cases.modulus_report(cfg), cases.oracle_report(cfg), cases.arch_report(cfg)]
    blob = "".join(to_json(doc) for doc in docs).encode()
    assert hashlib.sha256(blob).hexdigest() == TABLES_SHA256
