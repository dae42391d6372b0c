"""Configuration loading.

All expected values live in the versioned YAML file shipped with the
package (``exceis/data/config.yaml``): root-system tables, multiplicity
tables, per-case row expectations, convergence thresholds, the archimedean
recipe catalog, and the algebra-suite parameters.  Code never hardcodes an
expected value; it recomputes and compares against this file.
"""

from __future__ import annotations

import importlib.resources
from contextlib import contextmanager
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
    conclusion: str = "Contributes"
    external: list[str] = field(default_factory=list)
    note: str = ""


@dataclass
class TableSpec:
    target: str
    rows: list[RowSpec] = field(default_factory=list)


@dataclass
class CaseSpec:
    name: str
    system: str
    source: str
    s0: Fraction
    lambda_printed: list[AffineForm] | None
    etale_variant: str                 # for zetaE/zetaF factors; "" for none
    rules: dict[Fraction, BlockRule]   # the system's cblocks, in that variant
    oracle: dict | None                # the oracle map, built by Config.oracle
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


def _int(x, path: str, top: int | None = None) -> int:
    """x, an integer, and one in 1..top if top is given: the config counts
    from 1, and Python would read 0 or -1 from the end of a list."""
    if isinstance(x, bool) or not isinstance(x, int) or top is not None and not 1 <= x <= top:
        raise ConfigError(f"{path}: expected an integer" + (f" in 1..{top}" if top else ""))
    return x


@contextmanager
def _at(path: str):
    """A conversion error raised in the block, as ConfigError at path."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


# The keys each level may carry; a key that names a level is checked there,
# and so is each entry of a list level or of a map of named entries.
_KEYS = {
    "top": {"version", "systems", "cases", "modulus_checks", "arch", "algebras", "claims"},
    "systems": {"aliases", "simple_roots", "multiplicities", "print_scale", "nu",
                "rho_weighted", "parabolics", "cblocks"},
    "cases": {"system", "source", "s0", "lambda_printed", "etale_variant", "oracle",
              "tables", "aliases"},
    "oracle": {"absolute", "kernel", "nodes", "source_node", "lambda_abs"},
    "tables": {"target", "rows"},
    "rows": {"word", "action", "assoc", "trace", "lambda_prime", "pairings", "eis",
             "intertwiner", "cfunction", "cfunction_arch", "order", "conclusion",
             "external", "note"},
    "eis": {"threshold", "status", "root", "functional", "printed"},
    "order": {"total", "symbols"},
    "intertwiner": {"local", "global"},
    "pairings": {"root", "expect"},
    "modulus_checks": {"system", "parabolic", "expect"},
    "arch": {"recipes", "unprinted"},
    "recipes": {"name", "case", "word", "tokens", "checks", "min_vanishing_order"},
    "checks": {"s0", "value", "derivative"},
    "unprinted": {"case", "word", "name", "claim"},
    "algebras": {"definite", "split"},
    "claims": {"count", "seed", "primes", "qxf_disc"},
}
# The keys a level must carry: those a system, a case and its tables, rows
# and row entries are parsed by, and all keys of the oracle, the modulus
# checks, the arch entries, algebras and claims but the optional lambda_abs,
# min_vanishing_order and checks.derivative.
_REQUIRED = {"systems": {"simple_roots"}, "cases": {"system", "source", "s0"},
             "tables": {"target"}, "rows": {"word"}, "eis": {"threshold", "status"},
             "order": {"total"}, "pairings": {"root", "expect"}, "checks": {"s0", "value"},
             "oracle": _KEYS["oracle"] - {"lambda_abs"},
             "recipes": _KEYS["recipes"] - {"min_vanishing_order"},
             **{k: _KEYS[k] for k in ("modulus_checks", "unprinted", "algebras", "claims")}}
# The levels that are lists of maps, and those that map names to entries;
# every other level is one map.
_LISTS = {"tables", "rows", "eis", "pairings", "modulus_checks", "recipes", "unprinted"}
_NAMED = {"systems", "cases"}


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
    checked item by item, and a map of named entries entry by entry."""
    _check_map(level, spec, path)
    at = f"{path}." if path else ""
    for key, value in spec.items():
        if key in _LISTS:
            if not isinstance(value, list):
                raise ConfigError(f"{at}{key}: expected a list")
            for i, item in enumerate(value):
                _check_keys(key, item, f"{at}{key}[{i}]")
        elif key in _NAMED:
            if not isinstance(value, dict):
                raise ConfigError(f"{at}{key}: expected a map")
            for name, item in value.items():
                _check_keys(key, item, f"{at}{key}.{name}")
        elif key in _KEYS:
            _check_keys(key, value, f"{at}{key}")


def _arch_entries(arch: dict, level: str, claimed: dict):
    """The arch section's recipes or unprinted claims with their dotted
    paths.  Each claims one row word of its case that no entry above has
    claimed; claimed maps each (case, word) of a configured row to the path
    of the entry that claims it, or to None."""
    for i, spec in enumerate(arch.get(level, [])):
        path, key = f"arch.{level}[{i}]", (spec["case"], tuple(spec["word"]))
        if key not in claimed:
            raise ConfigError(f"{path}: no row of case {key[0]} has the word {list(key[1])}")
        if claimed[key]:
            raise ConfigError(f"{path}: {key[0]} {list(key[1])} is claimed by "
                              f"{claimed[key]} already")
        claimed[key] = path
        yield path, spec


def _pattern(x, path: str) -> tuple[str, ...]:
    if not isinstance(x, list) or len(x) != 3 or not all(p in ("0", "*") for p in x):
        raise ConfigError(f'{path}: {x!r} is not three entries, each "0" or "*"')
    return tuple(x)


def _parse_recipes(arch: dict, claimed: dict) -> dict[str, MatrixRecipe]:
    """Each printed recipe, parsed once: a new name, tokens and s0 that parse,
    patterns of three entries, and @name suffixes that name a recipe listed
    above, so that no recipe can lead back to itself."""
    recipes: dict[str, MatrixRecipe] = {}
    for path, r in _arch_entries(arch, "recipes", claimed):
        name, checks = r["name"], r["checks"]
        if name in recipes:
            raise ConfigError(f"{path}.name: {name} names an earlier recipe too")
        with _at(path):
            tokens, s0 = parse_tokens(r["tokens"]), _fr(checks["s0"])
        unknown = [t.ref for t in tokens if t.kind == "ref" and t.ref not in recipes]
        if unknown:
            raise ConfigError(f"{path}.tokens: @{unknown[0]} names no recipe listed above")
        recipes[name] = MatrixRecipe(
            case=r["case"], word=tuple(r["word"]), name=name, text=r["tokens"],
            tokens=tokens, s0=s0, value=_pattern(checks["value"], f"{path}.checks.value"),
            derivative=_pattern(checks["derivative"], f"{path}.checks.derivative")
            if "derivative" in checks else None,
            min_vanishing_order=_int(r["min_vanishing_order"], f"{path}.min_vanishing_order")
            if "min_vanishing_order" in r else None)
    return recipes


def _parse_row(r: dict, path: str, rank: int, dim: int) -> RowSpec:
    """One table row: word letters and root indexes in 1..rank, action
    indexes (r1, r2, ...) in 1..dim."""
    with _at(path):
        at = f"{path}.action"
        action = {_int(int(str(k)[1:]), at, dim): (-1 if str(v).startswith("-") else 1,
                                                   _int(int(str(v).lstrip("-r")), at, dim))
                  for k, v in r["action"].items()} if "action" in r else None
        order = r.get("order", {})
        return RowSpec(
            word=tuple(_int(x, f"{path}.word", rank) for x in r["word"]),
            assoc=tuple(r["assoc"]) if "assoc" in r else None,
            action=action,
            trace=[(int(st[0]), _parse_affine(st[1])) for st in r["trace"]]
            if "trace" in r else None,
            lambda_prime=[_parse_affine(x) for x in r["lambda_prime"]]
            if "lambda_prime" in r else None,
            pairings=[PairingCheck(_int(p["root"], f"{path}.pairings[{k}].root", rank),
                                   _parse_affine(p["expect"]))
                      for k, p in enumerate(r.get("pairings", []))],
            eis=[EisCheck(threshold=_fr(e["threshold"]), status=e["status"],
                          root=_int(e.get("root"), f"{path}.eis[{k}].root", rank)
                          if "functional" not in e else None,
                          functional=tuple(_fr(x) for x in e["functional"])
                          if "functional" in e else None,
                          printed=bool(e.get("printed", True)))
                 for k, e in enumerate(r.get("eis", []))],
            intertwiner_local=(r.get("intertwiner") or {}).get("local"),
            intertwiner_global=(r.get("intertwiner") or {}).get("global"),
            cfunction=r.get("cfunction"),
            cfunction_arch=r.get("cfunction_arch"),
            order_total=_int(order["total"], f"{path}.order.total") if order else None,
            order_symbols={k: _fr(v) for k, v in order["symbols"].items()}
            if "symbols" in order else None,
            conclusion=r.get("conclusion", "Contributes"),
            external=list(r.get("external", [])),
            note=r.get("note", ""))


def _parse_case(name: str, spec: dict, systems: dict) -> CaseSpec:
    """One case; systems maps each system name and alias to its raw map,
    whose cblocks give the case's c-function rules."""
    path = f"cases.{name}"
    with _at(f"{path}.system"):
        system = systems.get(spec["system"], {})
        if "cblocks" not in system:
            raise ConfigError(f"{path}.system: {spec['system']} is no system with cblocks")
        rank, dim = len(system["simple_roots"]), len(system["simple_roots"][0])
    tables = [TableSpec(target=t["target"],
                        rows=[_parse_row(r, f"{path}.tables[{i}].rows[{j}]", rank, dim)
                              for j, r in enumerate(t.get("rows", []))])
              for i, t in enumerate(spec.get("tables", []))]
    variant = spec.get("etale_variant", "")
    with _at(path):
        return CaseSpec(
            name=name, system=spec["system"], source=spec["source"],
            s0=_fr(spec["s0"]),
            lambda_printed=[_parse_affine(x) for x in spec["lambda_printed"]]
            if "lambda_printed" in spec else None,
            etale_variant=variant,
            rules={_fr(norm2): BlockRule([(t[0], _fr(t[1]), _fr(t[2]), t[3])
                                          for t in templates], variant=variant)
                   for norm2, templates in system["cblocks"].items()},
            oracle=spec.get("oracle"),
            tables=tables,
            aliases=list(spec.get("aliases", [])))


class Config:
    def __init__(self, raw: dict):
        _check_map("top", raw, "")
        # an absent algebras or claims section fails on its first required key
        _check_keys("top", {"algebras": {}, "claims": {}, **raw}, "")
        if raw.get("version") != CONFIG_VERSION:
            raise ConfigError(f"config version {raw.get('version')} != {CONFIG_VERSION}")
        self.raw = raw
        self._systems: dict[str, RootSystem] = {}
        self.system_names = {**{alias: name for name, spec in raw["systems"].items()
                                for alias in spec.get("aliases", [])},
                             **{name: name for name in raw["systems"]}}
        systems = {key: raw["systems"][name] for key, name in self.system_names.items()}
        self.cases = {name: _parse_case(name, spec, systems) for name, spec in raw["cases"].items()}
        self.case_aliases = {alias: name for name, cs in self.cases.items()
                             for alias in cs.aliases}
        # the arch section claims row words of the cases, one claim a word
        claimed = {(name, row.word): None for name, cs in self.cases.items()
                   for table in cs.tables for row in table.rows}
        arch = raw.get("arch", {})
        self.catalog = RecipeCatalog(_parse_recipes(arch, claimed))
        self.unprinted_arch = [UnprintedArch(u["case"], tuple(u["word"]), u["name"], u["claim"])
                               for _, u in _arch_entries(arch, "unprinted", claimed)]
        self.arch_claims: dict[tuple[str, tuple[int, ...]], MatrixRecipe | UnprintedArch] = {
            (c.case, c.word): c for c in [*self.catalog.recipes.values(), *self.unprinted_arch]}
        self.modulus_checks = [ModulusCheck(m["system"], m["parabolic"], _fr(m["expect"]))
                               for m in raw.get("modulus_checks", [])]
        self.algebras = {k: [int(g) for g in v] for k, v in raw["algebras"].items()}
        c = raw["claims"]
        self.claims = ClaimsSpec(count=int(c["count"]), seed=int(c["seed"]),
                                 primes=[int(p) for p in c["primes"]],
                                 qxf_disc=int(c["qxf_disc"]))
        self._oracles: dict[str, AbsoluteOracle] = {}

    # -- systems -------------------------------------------------------------

    def system_name(self, name: str) -> str:
        if name not in self.system_names:
            raise ConfigError(f"unknown root system {name!r}")
        return self.system_names[name]

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

    # -- cases ----------------------------------------------------------------

    def case(self, name: str) -> CaseSpec:
        if name in self.cases:
            return self.cases[name]
        if name in self.case_aliases:
            return self.cases[self.case_aliases[name]]
        raise ConfigError(f"unknown case {name!r}")

    # -- oracles ---------------------------------------------------------------

    def oracle(self, name: str) -> AbsoluteOracle:
        """The GK oracle of a case, built once from the case's oracle map over
        the case's system; a stated lambda_abs must be the oracle's."""
        case = self.case(name)
        if case.name not in self._oracles:
            spec = case.oracle
            oracle = AbsoluteOracle(
                self.system(spec["absolute"]), self.system(case.system),
                kernel=[int(i) for i in spec["kernel"]],
                node_map={int(k): int(v) for k, v in spec["nodes"].items()},
                source_node=int(spec["source_node"]))
            want = spec.get("lambda_abs")
            if want is not None and list(oracle.lambda_abs.entries()) != [
                    _parse_affine(x) for x in want]:
                raise ConfigError(f"cases.{case.name}.oracle.lambda_abs: computed "
                                  f"{oracle.lambda_abs} != configured {want}")
            self._oracles[case.name] = oracle
        return self._oracles[case.name]


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
        _cache[key] = Config(raw)
    return _cache[key]
