"""Configuration loading.

All expected values live in the versioned YAML file shipped with the
package (``exceis/data/config.yaml``): root-system tables, multiplicity
tables, per-case row expectations, convergence thresholds, the archimedean
recipe catalog, and the algebra-suite parameters.  Code never hardcodes an
expected value; it recomputes and compares against this file.
"""

from __future__ import annotations

import importlib.resources
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import yaml

from .archmult import MatrixRecipe, RecipeCatalog, parse_tokens
from .eiscalc import ETALE_VARIANTS, AbsoluteOracle, BlockRule, ZetaProduct
from .exactnum import AffineForm, is_odd_prime
from .rootsys import RootSystem, builtin_parabolics, dot

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
    cfunction: ZetaProduct | None = None        # printed finite factors
    cfunction_arch: ZetaProduct | None = None   # printed archimedean factors
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
class SystemSpec:
    """One system entry, parsed; Config.system builds its RootSystem."""
    name: str
    aliases: list[str]
    simple_roots: list[tuple[Fraction, ...]]
    multiplicities: dict[Fraction, int]
    print_scale: dict[Fraction, Fraction]
    nu: tuple[Fraction, ...] | None
    rho_weighted: tuple[Fraction, ...] | None     # compared when the system is built
    parabolics: dict[str, frozenset[int]]
    cblocks: dict[Fraction, list[tuple]] | None   # (kind, a, b, e) per squared length


@dataclass
class OracleSpec:
    """A case's oracle map, parsed; Config.oracle builds its AbsoluteOracle."""
    absolute: str
    kernel: list[int]
    nodes: dict[int, int]
    source_node: int
    lambda_abs: list[AffineForm] | None           # compared when the oracle is built


@dataclass
class CaseSpec:
    name: str
    system: str
    source: str
    s0: Fraction
    lambda_printed: list[AffineForm] | None
    etale_variant: str                 # for zetaE/zetaF factors; "" for none
    rules: dict[Fraction, BlockRule]   # the system's cblocks, in that variant
    oracle: OracleSpec | None
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


class _Map:
    """A config map and its dotted path.  The parsers read its keys through
    it, and so are the only statement of the schema: an absent required key
    raises `missing config key <path>`, a value that does not convert raises
    `<path>: <reason>`, and check_all_read raises `unknown config key
    <path>` for a key that no parser read, in this map or any map read
    through it."""

    def __init__(self, spec, path: str, maps: list[_Map] | None = None):
        if not isinstance(spec, dict):
            raise ConfigError(f"{path or 'config'}: expected a map")
        self.spec, self.path, self.read = spec, path, set()
        self.maps = [] if maps is None else maps   # every map read, in order
        self.maps.append(self)

    def at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def get(self, key, convert=None, default=None):
        """convert(value) of key, or default if key is absent."""
        if key not in self.spec:
            return default
        self.read.add(key)
        try:
            return convert(self.spec[key]) if convert else self.spec[key]
        except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise ConfigError(f"{self.at(key)}: {exc}") from None

    def req(self, key, convert=None):
        if key not in self.spec:
            raise ConfigError(f"missing config key {self.at(key)}")
        return self.get(key, convert)

    def map(self, key, required: bool = False) -> _Map:
        """The map at key; an absent optional one reads as empty."""
        return _Map(self.req(key) if required else self.get(key, default={}), self.at(key),
                    self.maps)

    def entries(self, key) -> list[_Map]:
        """The maps listed at key; none if key is absent."""
        return [_Map(x, f"{self.at(key)}[{i}]", self.maps)
                for i, x in enumerate(self.get(key, _list, []))]

    def named(self, key) -> dict[str, _Map]:
        """The maps that the required map at key names."""
        names = self.map(key, required=True)
        names.read.update(names.spec)
        return {name: _Map(x, names.at(name), self.maps) for name, x in names.spec.items()}

    def check_all_read(self) -> None:
        unread = [m.at(key) for m in self.maps for key in m.spec if key not in m.read]
        if unread:
            raise ConfigError(f"unknown config key {unread[0]}")


def _fr(x) -> Fraction:
    return Fraction(str(x))


def _affine(x) -> AffineForm:
    return AffineForm.parse(str(x))


def _int(x, top: int | None = None) -> int:
    """x, an integer, and one in 1..top if top is given: the config counts
    from 1, and Python would read 0 or -1 from the end of a list."""
    if isinstance(x, bool) or not isinstance(x, int) or top is not None and not 1 <= x <= top:
        raise ValueError("expected an integer" + (f" in 1..{top}" if top else ""))
    return x


def _at_least_1(x) -> int:
    if _int(x) < 1:
        raise ValueError(f"expected an integer of at least 1, got {x}")
    return x


def _odd_prime(x) -> int:
    if not is_odd_prime(_int(x)):
        raise ValueError(f"{x} is not an odd prime")
    return x


def _nonsquare(x) -> int:
    """A positive integer that is not a square: the discriminant of a
    real quadratic field."""
    if _int(x) < 1 or math.isqrt(x) ** 2 == x:
        raise ValueError(f"{x} is not a positive non-square")
    return x


def _gammas(x) -> list[int]:
    """Three Cayley-Dickson doubling parameters, each 1 or -1."""
    gammas = _list(x, _int, 3)
    if any(g not in (1, -1) for g in gammas):
        raise ValueError(f"{gammas} is not three entries of 1 or -1")
    return gammas


def _str(x) -> str:
    if not isinstance(x, str):
        raise ValueError("expected a string")
    return x


def _etale_variant(x) -> str:
    if x not in ETALE_VARIANTS:
        raise ValueError(f"{x} is not one of {', '.join(ETALE_VARIANTS)}")
    return x


def _bool(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError("expected a boolean")
    return x


def _list(x, convert=None, length: int | None = None) -> list:
    """x, a list (of length entries if given), with convert applied to each."""
    if not isinstance(x, list):
        raise ValueError("expected a list")
    if length is not None and len(x) != length:
        raise ValueError(f"expected {length} entries, got {len(x)}")
    return [convert(a) for a in x] if convert else x


def _mapping(x, key, value) -> dict:
    """A map whose keys are data, not config keys: key(k) -> value(v)."""
    if not isinstance(x, dict):
        raise ValueError("expected a map")
    return {key(k): value(v) for k, v in x.items()}


def _pattern(x) -> tuple[str, ...]:
    if not isinstance(x, list) or len(x) != 3 or not all(p in ("0", "*") for p in x):
        raise ValueError(f'{x!r} is not three entries, each "0" or "*"')
    return tuple(x)


def _action(x, dim: int) -> dict[int, tuple[int, int]]:
    """{r_i: r_j or -r_j}, each index in 1..dim, as i -> (sign, j)."""
    action = {}
    for k, v in _mapping(x, str, str).items():
        i, j = re.fullmatch(r"r([0-9]+)", k), re.fullmatch(r"(-?)r([0-9]+)", v)
        if not i or not j:
            raise ValueError(f"{k}: {v} is not r<i>: r<j> or -r<j>")
        action[_int(int(i[1]), dim)] = (-1 if j[1] else 1, _int(int(j[2]), dim))
    return action


def _letter(x) -> str:
    """A symbol of a shifted factor: one lowercase letter, as in the factor
    grammar."""
    if not isinstance(x, str) or len(x) != 1 or not "a" <= x <= "z":
        raise ValueError(f"{x!r} is not one lowercase letter")
    return x


def _distinct(path: str, roots: list[int | None]) -> None:
    """A row checks a root once among its pairings, and once among its
    root-form eis entries: a repeat would leave another root unchecked."""
    for k, root in enumerate(roots):
        if root is not None and root in roots[:k]:
            raise ConfigError(f"{path}[{k}].root: root {root} is checked twice")


def _nu(x, roots: list[tuple[Fraction, ...]]) -> tuple[Fraction, ...]:
    """The character vector nu, in the simple roots' dimension and paired
    nonzero with one of them: the modulus exponent divides by that pairing."""
    nu = tuple(_list(x, _fr, len(roots[0])))
    if not any(dot(nu, a) for a in roots):
        raise ValueError("orthogonal to every simple root")
    return nu


def _parse_system(name: str, m: _Map) -> SystemSpec:
    """One system: rationals, integers and 1-based simple-root indexes, the
    simple roots all of one length."""
    roots = m.req("simple_roots", lambda x: [tuple(_list(v, _fr, len(_list(x)[0]))) for v in x])
    return SystemSpec(
        name=name, aliases=m.get("aliases", _list, []), simple_roots=roots,
        multiplicities=m.get("multiplicities", lambda x: _mapping(x, _fr, _int), {}),
        print_scale=m.get("print_scale", lambda x: _mapping(x, _fr, _fr), {}),
        nu=m.get("nu", partial(_nu, roots=roots)),
        rho_weighted=m.get("rho_weighted", lambda x: tuple(_list(x, _fr))),
        parabolics=m.get("parabolics", lambda x: _mapping(
            x, str, lambda v: frozenset(_list(v, partial(_int, top=len(roots))))), {}),
        cblocks=m.get("cblocks", lambda x: _mapping(x, _fr, lambda ts: [
            (kind, _fr(a), _fr(b), _int(e)) for kind, a, b, e in _list(ts, _list)])))


def _system(systems: dict[str, SystemSpec], name, cblocks: bool = False) -> SystemSpec:
    """The system that a name or alias names; one with cblocks if asked."""
    spec = systems.get(name)
    if spec is None or cblocks and spec.cblocks is None:
        raise ValueError(f"{name} is no system" + " with cblocks" * cblocks)
    return spec


def _radicals(spec: SystemSpec) -> dict[str, frozenset[int]]:
    """Each parabolic label of the system, configured or built-in, with the
    simple roots of its radical."""
    return {**builtin_parabolics(len(spec.simple_roots)), **spec.parabolics}


def _parabolic(x, spec: SystemSpec) -> str:
    """A parabolic label of the system: one of its parabolics or a built-in
    label."""
    if not isinstance(x, str) or x not in _radicals(spec):
        raise ValueError(f"{x} is no parabolic of {spec.name}")
    return x


def _parse_oracle(m: _Map, systems: dict[str, SystemSpec], rank: int) -> OracleSpec:
    """A case's oracle map: kernel and nodes partition the absolute nodes,
    and nodes sends each to a node 1..rank of the case's system."""
    absolute = m.req("absolute", partial(_system, systems))
    n = len(absolute.simple_roots)
    kernel = m.req("kernel", lambda x: _list(x, partial(_int, top=n)))
    nodes = m.req("nodes", lambda x: _mapping(x, partial(_int, top=n), partial(_int, top=rank)))
    if sorted(kernel + list(nodes)) != list(range(1, n + 1)):
        raise ConfigError(f"{m.path}: kernel {kernel} and nodes {sorted(nodes)} do not "
                          f"partition the absolute nodes 1..{n}")
    return OracleSpec(absolute=absolute.name, kernel=kernel, nodes=nodes,
                      source_node=m.req("source_node", partial(_int, top=n)),
                      lambda_abs=m.get("lambda_abs", partial(_list, convert=_affine)))


def _parse_eis(e: _Map, rank: int, dim: int) -> EisCheck:
    """One eis entry: a root in 1..rank, or a functional of dim rationals."""
    if "root" in e.spec and "functional" in e.spec:
        raise ConfigError(f"{e.path}: has both a root and a functional")
    functional = e.get("functional", lambda x: tuple(_list(x, _fr, dim)))
    return EisCheck(threshold=e.req("threshold", _fr), status=e.req("status"),
                    root=None if functional else e.req("root", partial(_int, top=rank)),
                    functional=functional, printed=e.get("printed", _bool, True))


def _parse_row(r: _Map, rank: int, dim: int, variant: str) -> RowSpec:
    """One table row: word letters and root indexes in 1..rank, action
    indexes (r1, r2, ...) in 1..dim, c-function factors read in the case's
    etale variant, and each root-form eis entry naming a root of assoc."""
    index = partial(_int, top=rank)

    def factors(x) -> ZetaProduct:
        return ZetaProduct.parse(_list(x), variant)

    word = r.req("word", lambda x: tuple(_list(x, index)))
    pairings = [PairingCheck(p.req("root", index), p.req("expect", _affine))
                for p in r.entries("pairings")]
    eis = [_parse_eis(e, rank, dim) for e in r.entries("eis")]
    _distinct(r.at("pairings"), [p.root for p in pairings])
    _distinct(r.at("eis"), [e.root for e in eis])
    assoc = r.get("assoc", lambda x: tuple(_list(x, index)))
    for k, e in enumerate(eis):
        if e.root is not None and e.root not in (assoc or ()):
            why = ("the row gives no assoc" if assoc is None
                   else f"root {e.root} is not in the row's assoc {list(assoc)}")
            raise ConfigError(f"{r.at('eis')}[{k}].root: {why}")
    order = r.map("order") if "order" in r.spec else None
    intertwiner = r.map("intertwiner")
    return RowSpec(
        word=word, assoc=assoc,
        action=r.get("action", partial(_action, dim=dim)),
        trace=r.get("trace", lambda x: [(index(l), _affine(a)) for l, a in _list(x, _list)]),
        lambda_prime=r.get("lambda_prime", partial(_list, convert=_affine)),
        pairings=pairings, eis=eis,
        intertwiner_local=intertwiner.get("local"), intertwiner_global=intertwiner.get("global"),
        cfunction=r.get("cfunction", factors), cfunction_arch=r.get("cfunction_arch", factors),
        order_total=order.req("total", _int) if order else None,
        order_symbols=order.get("symbols", lambda x: _mapping(x, _letter, _fr)) if order else None,
        conclusion=r.get("conclusion", default="Contributes"),
        external=list(r.get("external", _list, [])), note=r.get("note", default=""))


def _parse_case(name: str, m: _Map, systems: dict[str, SystemSpec]) -> CaseSpec:
    """One case; systems maps each system name and alias to its entry, whose
    cblocks give the case's c-function rules."""
    system = m.req("system", partial(_system, systems, cblocks=True))
    rank, dim = len(system.simple_roots), len(system.simple_roots[0])
    variant = m.get("etale_variant", _etale_variant, "")
    label = partial(_parabolic, spec=system)
    return CaseSpec(
        name=name, system=system.name, source=m.req("source", label), s0=m.req("s0", _fr),
        lambda_printed=m.get("lambda_printed", partial(_list, convert=_affine)),
        etale_variant=variant,
        rules={norm2: BlockRule(templates, variant=variant)
               for norm2, templates in system.cblocks.items()},
        oracle=_parse_oracle(m.map("oracle"), systems, rank) if "oracle" in m.spec else None,
        tables=[TableSpec(target=t.req("target", label),
                          rows=[_parse_row(r, rank, dim, variant) for r in t.entries("rows")])
                for t in m.entries("tables")],
        aliases=m.get("aliases", _list, []))


def _arch_entries(arch: _Map, level: str, claimed: dict):
    """The arch section's recipes or unprinted claims, each with the case
    and word it claims.  Each claims one row word of its case that no entry
    above has claimed; claimed maps each (case, word) of a configured row to
    the path of the entry that claims it, or to None."""
    for m in arch.entries(level):
        key = (m.req("case", str), m.req("word", lambda x: tuple(_list(x, _int))))
        if key not in claimed:
            raise ConfigError(f"{m.path}: no row of case {key[0]} has the word {list(key[1])}")
        if claimed[key]:
            raise ConfigError(f"{m.path}: {key[0]} {list(key[1])} is claimed by "
                              f"{claimed[key]} already")
        claimed[key] = m.path
        yield m, *key


def _parse_recipes(arch: _Map, claimed: dict) -> dict[str, MatrixRecipe]:
    """Each printed recipe, parsed once: a new name, tokens and s0 that parse,
    patterns of three entries, and @name suffixes that name a recipe listed
    above, so that no recipe can lead back to itself."""
    recipes: dict[str, MatrixRecipe] = {}
    for r, case, word in _arch_entries(arch, "recipes", claimed):
        name = r.req("name", _str)
        if name in recipes:
            raise ConfigError(f"{r.at('name')}: {name} names an earlier recipe too")
        text, tokens = r.req("tokens", lambda x: (x, parse_tokens(_str(x))))
        unknown = [t.ref for t in tokens if t.kind == "ref" and t.ref not in recipes]
        if unknown:
            raise ConfigError(f"{r.at('tokens')}: @{unknown[0]} names no recipe listed above")
        checks = r.map("checks", required=True)
        recipes[name] = MatrixRecipe(
            case=case, word=word, name=name, text=text, tokens=tokens,
            s0=checks.req("s0", _fr), value=checks.req("value", _pattern),
            derivative=checks.get("derivative", _pattern),
            min_vanishing_order=r.get("min_vanishing_order", _int))
    return recipes


def _modulus_check(m: _Map, systems: dict[str, SystemSpec]) -> ModulusCheck:
    """One modulus check, on a maximal parabolic of a system with nu."""
    spec = m.req("system", partial(_system, systems))
    if spec.nu is None:
        raise ConfigError(f"{m.at('system')}: {spec.name} has no nu")
    label = m.req("parabolic", partial(_parabolic, spec=spec))
    if len(_radicals(spec)[label]) != 1:
        raise ConfigError(f"{m.at('parabolic')}: {label} is not a maximal parabolic "
                          f"of {spec.name}")
    return ModulusCheck(m.spec["system"], label, m.req("expect", _fr))


class Config:
    def __init__(self, raw: dict):
        top = _Map(raw, "")
        if top.get("version") != CONFIG_VERSION:
            raise ConfigError(f"config version {raw.get('version')} != {CONFIG_VERSION}")
        self.raw = raw
        specs = [_parse_system(name, m) for name, m in top.named("systems").items()]
        # every name and alias of a system, to its entry; a name wins over an alias
        self.systems = {**{alias: spec for spec in specs for alias in spec.aliases},
                        **{spec.name: spec for spec in specs}}
        self.cases = {name: _parse_case(name, m, self.systems)
                      for name, m in top.named("cases").items()}
        self._case_index = {**{alias: cs for cs in self.cases.values() for alias in cs.aliases},
                            **self.cases}
        # the arch section claims row words of the cases, one claim a word
        claimed = {(name, row.word): None for name, cs in self.cases.items()
                   for table in cs.tables for row in table.rows}
        arch = top.map("arch")
        self.catalog = RecipeCatalog(_parse_recipes(arch, claimed))
        self.unprinted_arch = [UnprintedArch(case, word, u.req("name"), u.req("claim"))
                               for u, case, word in _arch_entries(arch, "unprinted", claimed)]
        self.arch_claims: dict[tuple[str, tuple[int, ...]], MatrixRecipe | UnprintedArch] = {
            (c.case, c.word): c for c in [*self.catalog.recipes.values(), *self.unprinted_arch]}
        self.modulus_checks = [_modulus_check(m, self.systems)
                               for m in top.entries("modulus_checks")]
        algebras = top.map("algebras")
        self.algebras = {k: algebras.req(k, _gammas) for k in ("definite", "split")}
        c = top.map("claims")
        self.claims = ClaimsSpec(count=c.req("count", _at_least_1), seed=c.req("seed", _int),
                                 primes=c.req("primes", partial(_list, convert=_odd_prime)),
                                 qxf_disc=c.req("qxf_disc", _nonsquare))
        top.check_all_read()
        self._systems: dict[str, RootSystem] = {}

    # -- systems -------------------------------------------------------------

    def system(self, name: str) -> RootSystem:
        """The root system of a name or alias, built from its parsed entry at
        the first query; a stated rho_weighted must be the built system's, and
        each squared length that keys its multiplicities, print_scale and
        cblocks must be the length of one of its roots."""
        if name not in self.systems:
            raise ConfigError(f"unknown root system {name!r}")
        spec = self.systems[name]
        if spec.name not in self._systems:
            system = RootSystem(spec.name, spec.simple_roots, multiplicities=spec.multiplicities,
                                print_coroot_scale=spec.print_scale, nu=spec.nu,
                                parabolic_labels=spec.parabolics)
            got, want = system.rho_weighted(), spec.rho_weighted
            if want is not None and got != want:
                raise ConfigError(f"systems.{spec.name}.rho_weighted: computed "
                                  f"{[str(c) for c in got]} != configured {[str(c) for c in want]}")
            lengths = set(system.lengths)
            for key, table in (("multiplicities", spec.multiplicities),
                               ("print_scale", spec.print_scale), ("cblocks", spec.cblocks)):
                stray = [norm2 for norm2 in table or {} if norm2 not in lengths]
                if stray:
                    raise ConfigError(f"systems.{spec.name}.{key}: no root of squared "
                                      f"length {stray[0]}")
            self._systems[spec.name] = system
        return self._systems[spec.name]

    # -- cases ----------------------------------------------------------------

    def case(self, name: str) -> CaseSpec:
        if name not in self._case_index:
            raise ConfigError(f"unknown case {name!r}")
        return self._case_index[name]

    # -- oracles ---------------------------------------------------------------

    def oracle(self, name: str) -> AbsoluteOracle:
        """The GK oracle of a case, built and checked on each call from the
        case's oracle map over the case's system; a node map whose
        restriction is not onto the rational roots with their multiplicities
        fails at its nodes, and a stated lambda_abs must be the oracle's."""
        case = self.case(name)
        spec = case.oracle
        absolute, rational = self.system(spec.absolute), self.system(case.system)
        try:
            oracle = AbsoluteOracle(absolute, rational, kernel=spec.kernel,
                                    node_map=spec.nodes, source_node=spec.source_node)
        except ValueError as exc:
            raise ConfigError(f"cases.{case.name}.oracle.nodes: {exc}") from None
        check_forms(f"cases.{case.name}.oracle.lambda_abs", oracle.lambda_abs, spec.lambda_abs)
        return oracle


def check_forms(path: str, computed, configured: list[AffineForm] | None) -> None:
    """Raise ConfigError at path unless the computed vector's entries are
    the configured forms; nothing is checked where none are configured."""
    if configured is not None and list(computed.entries()) != configured:
        raise ConfigError(f"{path}: computed {computed} != configured "
                          f"{[str(f) for f in configured]}")


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
