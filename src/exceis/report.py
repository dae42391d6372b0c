"""Report serialization: canonical JSON and a Markdown rendering.

The JSON form is byte-stable for fixed inputs (sorted keys, no floats, no
timestamps) so reports double as regression goldens; the schema ships in
``exceis/data/report-schema.json``.
"""

from __future__ import annotations

import json

REPORT_VERSION = 1


def to_json(report: dict) -> str:
    doc = {"report_version": REPORT_VERSION, **report}
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _md_row(rec: dict) -> list[str]:
    out = []
    word = rec.get("word")
    head = f"**[{','.join(str(i) for i in word)}]**" if word else "**[]**"
    if word == []:
        head = "**[] (identity)**"
    status = rec.get("status", "")
    cls = rec.get("classification", "")
    out.append(f"- {head} — {cls} ({status})")
    if rec.get("assoc_simples") is not None:
        out.append(f"  - associated simple roots: {rec['assoc_simples']}")
    if rec.get("trace"):
        seq = ", ".join(st["pairing"] for st in rec["trace"])
        out.append(f"  - step pairings: {seq}")
    if rec.get("lambda_prime"):
        out.append(f"  - w(lambda)+rho = ({', '.join(rec['lambda_prime'])})")
    for p in rec.get("pairings", []):
        mark = "ok" if p["ok"] else "MISMATCH"
        out.append(f"  - pairing a{p['root']}: {p['value']} [{mark}]")
    for e in rec.get("eis", []):
        out.append(f"  - Eisenstein: value {e['value']} vs threshold {e['threshold']}"
                   f" -> {e['status']} (margin {e['margin']})")
    if rec.get("intertwiner"):
        iv = rec["intertwiner"]
        out.append(f"  - intertwiner: local {iv['local']}, global {iv['global']}"
                   + (f", order {iv['order']}" if iv.get("order") is not None else ""))
    if rec.get("cfunction"):
        out.append(f"  - c-function: {rec['cfunction']}")
    if rec.get("order_report"):
        orp = rec["order_report"]
        out.append(f"  - order at s0: {orp['total']} ({orp['classification']})")
    if rec.get("arch"):
        a = rec["arch"]
        if "recipe" in a:
            out.append(f"  - archimedean multiplier {a['recipe']}: "
                       + ("patterns hold" if a["ok"] else "MISMATCH"))
        else:
            out.append(f"  - archimedean multiplier: {a.get('stated')} "
                       f"[{a.get('status')}]")
    for note in rec.get("external", []):
        out.append(f"  - external input: {note}")
    return out


def to_markdown(report: dict) -> str:
    kind = report.get("kind", "report")
    lines = []
    if kind == "all":
        lines.append(f"# Full verification run — {report['status']}")
        for section in report["sections"]:
            lines.append("")
            lines.append(to_markdown(section).rstrip())
        return "\n".join(lines) + "\n"
    if kind == "cosets":
        lines.append(f"## Cosets {report['system']}: "
                     f"[W_{report['left']} \\ W / W_{report['right']}] "
                     f"— {report['count']} elements ({report['status']})")
        for r in report["rows"]:
            mark = "" if r.get("ok", True) else "  <-- MISMATCH"
            lines.append(f"- [{','.join(str(i) for i in r['word'])}] "
                         f"(length {r['length']}){mark}")
        return "\n".join(lines) + "\n"
    if kind == "constant-term":
        lines.append(f"## {report['case']}: constant term {report['source']} -> "
                     f"{report['target']} at s0 = {report['s0']} ({report['status']})")
        lines.append(f"{report['census_size']} double-coset terms"
                     + ("" if report["census_ok"] else "  <-- census MISMATCH"))
        for rec in report["rows"]:
            lines.extend(_md_row(rec))
        return "\n".join(lines) + "\n"
    if kind == "modulus":
        lines.append(f"## Modulus-character exponents ({report['status']})")
        for r in report["rows"]:
            mark = "ok" if r["ok"] else "MISMATCH"
            lines.append(f"- {r['system']} / {r['parabolic']}: "
                         f"{r['computed']} (expected {r['expected']}) [{mark}]")
        return "\n".join(lines) + "\n"
    if kind == "gk-oracle":
        lines.append(f"## Finite c-functions vs absolute-system oracle "
                     f"({report['status']})")
        for r in report["rows"]:
            mark = "ok" if r["ok"] else "MISMATCH"
            lines.append(f"- {r['case']} [{','.join(str(i) for i in r['word'])}]: "
                         f"{r.get('detail', r.get('rational'))} [{mark}]")
        return "\n".join(lines) + "\n"
    if kind == "arch":
        lines.append(f"## Archimedean multiplier catalog ({report['status']})")
        for r in report["rows"]:
            if "ledger" in r:
                lines.append(f"- {r['name']} ({r['case']} "
                             f"[{','.join(str(i) for i in r['word'])}]): {r['status']}")
                for entry in r["ledger"]:
                    lines.append(f"  - {entry}")
            else:
                lines.append(f"- {r['name']} ({r['case']}): {r['claim']} "
                             f"[{r['status']}]")
        return "\n".join(lines) + "\n"
    if kind == "algebra":
        lines.append(f"## Algebra property suites (seed {report['seed']}, "
                     f"{report['count']} cases each) — {report['status']}")
        for s in report["suites"]:
            lines.append(f"- {s['name']}: {s['cases']} cases, "
                         f"{s['failures']} failures [{s['status']}]")
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
