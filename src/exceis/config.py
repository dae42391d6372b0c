"""Configuration loading.

All expected values live in the versioned YAML file shipped with the
package (``exceis/data/config.yaml``): root-system tables, multiplicity
tables, per-case row expectations, convergence thresholds, the archimedean
recipe catalog, and the algebra-suite parameters.  Code never hardcodes an
expected value; it recomputes and compares against this file.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import yaml

from .archmult import MatrixRecipe, RecipeCatalog, parse_tokens
from .eiscalc import AbsoluteOracle, BlockRule
from .exactnum import AffineForm
from .rootsys import RootSystem

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class EisCheck:
    threshold: Fraction
    status: str
    root: int | None = None
    functional: tuple[Fraction, ...] | None = None
    printed: bool = True


@dataclass
class PairingCheck:
    root: int
    expect: AffineForm


@dataclass
class ArchSpec:
    recipe: str | None = None
    stated: str | None = None           # claim made without a printed recipe
    min_vanishing_order: int | None = None


@dataclass
class RowSpec:
    word: tuple[int, ...]
    assoc: tuple[int, ...] | None = None
    action: dict[int, tuple[int, int]] | None = None   # r_i -> (sign, r_j)
    trace: list[tuple[int, AffineForm]] | None = None
    lambda_prime: list[AffineForm] | None = None
    pairings: list[PairingCheck] = field(default_factory=list)
    eis: list[EisCheck] = field(default_factory=list)
    intertwiner_local: str | None = None
    intertwiner_global: str | None = None
    cfunction: list[str] | None = None          # printed finite factors
    cfunction_arch: list[str] | None = None     # printed archimedean factors
    order_total: int | None = None
    order_symbols: dict[str, Fraction] | None = None
    arch: ArchSpec | None = None
    conclusion: str = "Contributes"
    external: list[str] = field(default_factory=list)
    note: str = ""


@dataclass
class TableSpec:
    target: str
    kind: str = "constant-term"       # or "census"
    rows: list[RowSpec] = field(default_factory=list)


@dataclass
class CaseSpec:
    name: str
    system: str
    source: str
    s0: Fraction
    kind: str                          # "value" | "residue"
    lambda_printed: list[AffineForm] | None
    etale_variant: str | None          # for zetaE/zetaF factors
    oracle: str | None
    tables: list[TableSpec]
    aliases: list[str] = field(default_factory=list)


@dataclass
class ModulusCheck:
    system: str
    parabolic: str
    expect: Fraction


@dataclass
class UnprintedArch:
    case: str
    word: tuple[int, ...]
    name: str
    claim: str


@dataclass
class ClaimsSpec:
    count: int
    seed: int
    primes: list[int]
    qxf_disc: int


def _fr(x) -> Fraction:
    return Fraction(str(x))


def _parse_affine(x) -> AffineForm:
    return AffineForm.parse(str(x))


# The keys each level may carry; a key that names a level is checked there.
# The top level is checked alone: each case is checked as it is parsed, and
# the arch section is the level arch-section, since a row's arch is "arch".
# lambda_abs is read by nothing in src/ (tests/test_eiscalc.py has a copy).
_KEYS = {
    "top": {"version", "systems", "oracles", "cases", "modulus_checks", "arch",
            "algebras", "claims"},
    "arch-section": {"recipes", "unprinted"},
    "cases": {"system", "source", "s0", "kind", "lambda_printed", "lambda_abs",
              "etale_variant", "oracle", "tables", "aliases"},
    "tables": {"target", "kind", "rows"},
    "rows": {"word", "action", "assoc", "trace", "lambda_prime", "pairings", "eis",
             "intertwiner", "cfunction", "cfunction_arch", "order", "arch",
             "conclusion", "external", "note"},
    "eis": {"threshold", "status", "root", "functional", "printed"},
    "arch": {"recipe", "stated", "min_vanishing_order"},
    "order": {"total", "symbols"},
    "intertwiner": {"local", "global"},
    "pairings": {"root", "expect"},
    "recipes": {"name", "case", "word", "tokens", "checks"},
    "checks": {"s0", "value", "derivative"},
    "unprinted": {"case", "word", "name", "claim"},
    "algebras": {"definite", "split"},
    "claims": {"count", "seed", "primes", "qxf_disc"},
}
# The keys a level must carry: those a case and its tables, rows and row
# entries are parsed by, and all keys of the arch entries, algebras and
# claims, but checks.derivative.
_REQUIRED = {"cases": {"system", "source", "s0"}, "tables": {"target"}, "rows": {"word"},
             "eis": {"threshold", "status"}, "order": {"total"},
             "pairings": {"root", "expect"}, "checks": {"s0", "value"},
             **{k: _KEYS[k] for k in ("recipes", "unprinted", "algebras", "claims")}}
# The levels that are lists of maps; every other level is one map.
_LISTS = {"tables", "rows", "eis", "pairings", "recipes", "unprinted"}


def _check_map(level: str, spec, path: str) -> None:
    """Raise ConfigError, with its dotted path, unless spec is a map that
    carries every key its level requires and no key it does not allow."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path or 'config'}: expected a map")
    at = f"{path}." if path else ""
    missing = sorted(_REQUIRED.get(level, set()) - spec.keys())
    if missing:
        raise ConfigError(f"missing config key {at}{missing[0]}")
    for key in spec:
        if key not in _KEYS[level]:
            raise ConfigError(f"unknown config key {at}{key}")


def _check_keys(level: str, spec, path: str) -> None:
    """_check_map on spec and on every level below it; a list level is
    checked item by item."""
    _check_map(level, spec, path)
    for key, value in spec.items():
        if key in _LISTS:
            if not isinstance(value, list):
                raise ConfigError(f"{path}.{key}: expected a list")
            for i, item in enumerate(value):
                _check_keys(key, item, f"{path}.{key}[{i}]")
        elif key in _KEYS:
            _check_keys(key, value, f"{path}.{key}")


def _arch_entries(arch: dict, level: str, cases: dict):
    """The arch section's recipes or unprinted claims with their dotted
    paths, each naming a configured case."""
    for i, spec in enumerate(arch.get(level, [])):
        path = f"arch.{level}[{i}]"
        if spec["case"] not in cases:
            raise ConfigError(f"{path}.case: {spec['case']} is not a configured case")
        yield path, spec


def _pattern(x, path: str) -> tuple[str, ...]:
    if not isinstance(x, list) or len(x) != 3 or not all(p in ("0", "*") for p in x):
        raise ConfigError(f'{path}: {x!r} is not three entries, each "0" or "*"')
    return tuple(x)


def _parse_recipes(arch: dict, cases: dict) -> dict[str, MatrixRecipe]:
    """Each printed recipe, parsed once: a new name, tokens and s0 that parse,
    patterns of three entries, and @name suffixes that name a recipe listed
    above, so that no recipe can lead back to itself."""
    recipes: dict[str, MatrixRecipe] = {}
    for path, r in _arch_entries(arch, "recipes", cases):
        name, checks = r["name"], r["checks"]
        if name in recipes:
            raise ConfigError(f"{path}.name: {name} names an earlier recipe too")
        try:
            tokens, s0 = parse_tokens(r["tokens"]), _fr(checks["s0"])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        unknown = [t.ref for t in tokens if t.kind == "ref" and t.ref not in recipes]
        if unknown:
            raise ConfigError(f"{path}.tokens: @{unknown[0]} names no recipe listed above")
        recipes[name] = MatrixRecipe(
            case=r["case"], word=tuple(r["word"]), name=name, text=r["tokens"],
            tokens=tokens, s0=s0, value=_pattern(checks["value"], f"{path}.checks.value"),
            derivative=_pattern(checks["derivative"], f"{path}.checks.derivative")
            if "derivative" in checks else None)
    return recipes


class Config:
    def __init__(self, raw: dict, source: str):
        _check_map("top", raw, "")
        if raw.get("version") != CONFIG_VERSION:
            raise ConfigError(f"config version {raw.get('version')} != {CONFIG_VERSION}")
        self.source = source
        self.raw = raw
        self._systems: dict[str, RootSystem] = {}
        self._system_rules: dict[str, dict[Fraction, list]] = {}
        self.system_aliases: dict[str, str] = {}
        for name, spec in raw["systems"].items():
            for alias in spec.get("aliases", []):
                self.system_aliases[alias] = name
        arch = raw.get("arch") or {}
        _check_keys("arch-section", arch, "arch")
        self.catalog = RecipeCatalog(_parse_recipes(arch, raw["cases"]))
        self.unprinted_arch = [UnprintedArch(u["case"], tuple(u["word"]), u["name"], u["claim"])
                               for _, u in _arch_entries(arch, "unprinted", raw["cases"])]
        self.cases: dict[str, CaseSpec] = {}
        self.case_aliases: dict[str, str] = {}
        for name, spec in raw["cases"].items():
            cs = self._parse_case(name, spec)
            self.cases[name] = cs
            for alias in cs.aliases:
                self.case_aliases[alias] = name
        self.modulus_checks = [ModulusCheck(m["system"], m["parabolic"], _fr(m["expect"]))
                               for m in raw.get("modulus_checks", [])]
        for key in ("algebras", "claims"):
            _check_keys(key, raw.get(key) or {}, key)
        self.algebras = {k: [int(g) for g in v] for k, v in raw["algebras"].items()}
        c = raw["claims"]
        self.claims = ClaimsSpec(count=int(c["count"]), seed=int(c["seed"]),
                                 primes=[int(p) for p in c["primes"]],
                                 qxf_disc=int(c["qxf_disc"]))
        self._oracles: dict[str, AbsoluteOracle] = {}

    # -- systems -------------------------------------------------------------

    def system_name(self, name: str) -> str:
        if name in self.raw["systems"]:
            return name
        if name in self.system_aliases:
            return self.system_aliases[name]
        raise ConfigError(f"unknown root system {name!r}")

    def system(self, name: str) -> RootSystem:
        name = self.system_name(name)
        if name not in self._systems:
            spec = self.raw["systems"][name]
            mult = {_fr(k): int(v) for k, v in spec.get("multiplicities", {}).items()}
            pscale = {_fr(k): _fr(v) for k, v in spec.get("print_scale", {}).items()}
            labels = {}
            for lab, radical in spec.get("parabolics", {}).items():
                labels[lab] = frozenset(int(i) for i in radical)
            sys = RootSystem(
                name,
                [[_fr(c) for c in row] for row in spec["simple_roots"]],
                multiplicities=mult, print_coroot_scale=pscale,
                nu=[_fr(c) for c in spec["nu"]] if "nu" in spec else None,
                parabolic_labels=labels)
            exp_rho = spec.get("rho_weighted")
            if exp_rho is not None:
                got = sys.rho_weighted()
                want = tuple(_fr(c) for c in exp_rho)
                if got != want:
                    raise ConfigError(f"{name}: weighted rho {got} != configured {want}")
            self._systems[name] = sys
        return self._systems[name]

    def system_rules(self, name: str, variant: str = "") -> dict[Fraction, BlockRule] | None:
        name = self.system_name(name)
        spec = self.raw["systems"][name]
        if "cblocks" not in spec:
            return None
        out = {}
        for norm2, templates in spec["cblocks"].items():
            out[_fr(norm2)] = BlockRule(
                [(t[0], _fr(t[1]), _fr(t[2]), int(t[3])) for t in templates],
                variant=variant)
        return out

    # -- cases ----------------------------------------------------------------

    def _parse_case(self, name: str, spec: dict) -> CaseSpec:
        _check_keys("cases", spec, f"cases.{name}")
        tables = []
        for ti, t in enumerate(spec.get("tables", [])):
            rows = []
            for ri, r in enumerate(t.get("rows", [])):
                action = None
                if "action" in r:
                    action = {}
                    for k, v in r["action"].items():
                        v = str(v)
                        sign = -1 if v.startswith("-") else 1
                        action[int(str(k)[1:])] = (sign, int(v.lstrip("-r")))
                arch = ArchSpec(**r["arch"]) if "arch" in r else None
                if arch and arch.recipe and arch.recipe not in self.catalog.recipes:
                    raise ConfigError(f"cases.{name}.tables[{ti}].rows[{ri}].arch.recipe: "
                                      f"{arch.recipe} names no recipe")
                eis = []
                for e in r.get("eis", []):
                    eis.append(EisCheck(
                        threshold=_fr(e["threshold"]), status=e["status"],
                        root=e.get("root"),
                        functional=tuple(_fr(x) for x in e["functional"])
                        if "functional" in e else None,
                        printed=bool(e.get("printed", True))))
                order_total = None
                order_symbols = None
                if "order" in r:
                    order_total = int(r["order"]["total"])
                    if "symbols" in r["order"]:
                        order_symbols = {k: _fr(v) for k, v in r["order"]["symbols"].items()}
                rows.append(RowSpec(
                    word=tuple(r["word"]),
                    assoc=tuple(r["assoc"]) if "assoc" in r else None,
                    action=action,
                    trace=[(int(st[0]), _parse_affine(st[1])) for st in r["trace"]]
                    if "trace" in r else None,
                    lambda_prime=[_parse_affine(x) for x in r["lambda_prime"]]
                    if "lambda_prime" in r else None,
                    pairings=[PairingCheck(int(p["root"]), _parse_affine(p["expect"]))
                              for p in r.get("pairings", [])],
                    eis=eis,
                    intertwiner_local=(r.get("intertwiner") or {}).get("local"),
                    intertwiner_global=(r.get("intertwiner") or {}).get("global"),
                    cfunction=r.get("cfunction"),
                    cfunction_arch=r.get("cfunction_arch"),
                    order_total=order_total,
                    order_symbols=order_symbols,
                    arch=arch,
                    conclusion=r.get("conclusion", "Contributes"),
                    external=list(r.get("external", [])),
                    note=r.get("note", "")))
            tables.append(TableSpec(target=t["target"], kind=t.get("kind", "constant-term"),
                                    rows=rows))
        return CaseSpec(
            name=name, system=spec["system"], source=spec["source"],
            s0=_fr(spec["s0"]), kind=spec.get("kind", "value"),
            lambda_printed=[_parse_affine(x) for x in spec["lambda_printed"]]
            if "lambda_printed" in spec else None,
            etale_variant=spec.get("etale_variant"),
            oracle=spec.get("oracle"),
            tables=tables,
            aliases=list(spec.get("aliases", [])))

    def case(self, name: str) -> CaseSpec:
        if name in self.cases:
            return self.cases[name]
        if name in self.case_aliases:
            return self.cases[self.case_aliases[name]]
        raise ConfigError(f"unknown case {name!r}")

    # -- oracles ---------------------------------------------------------------

    def oracle(self, name: str) -> AbsoluteOracle:
        if name not in self._oracles:
            spec = self.raw["oracles"][name]
            self._oracles[name] = AbsoluteOracle(
                self.system(spec["absolute"]), self.system(spec["rational"]),
                kernel=[int(i) for i in spec["kernel"]],
                node_map={int(k): int(v) for k, v in spec["nodes"].items()},
                source_node=int(spec["source_node"]))
        return self._oracles[name]


def default_config_path() -> Path:
    return Path(str(importlib.resources.files("exceis") / "data" / "config.yaml"))


_cache: dict[tuple[str, int], Config] = {}


def load_config(path: str | Path | None = None) -> Config:
    """Load (and cache) a config file; the cache keys on path and mtime, and
    the returned object is treated as immutable."""
    p = Path(path) if path else default_config_path()
    key = (str(p.resolve()), p.stat().st_mtime_ns)
    if key not in _cache:
        with open(p, "r", encoding="utf-8") as fh:
            # libyaml's parser, or PyYAML's own where it was built without it
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        _cache[key] = Config(raw, str(p))
    return _cache[key]
