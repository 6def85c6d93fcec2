"""Static-pass driver: walk files, run every rule, filter ``# noqa``, report.

Used three ways, all sharing :func:`run_check`:

* ``python -m repro.check [paths] [--sarif out.sarif] ...``
* the ``repro-check`` console script
* the ``repro-rna check`` subcommand

Every run is one whole-program pass over the parsed tree: ARCH001
(:mod:`repro.check.rules`), the protocol verifier
(:mod:`repro.check.protocol`: SPMD1xx collective agreement, SPMD2xx
cross-module tag matching, SCHED0xx schedule legality) and the numeric
dataflow verifier (:mod:`repro.check.dataflow` +
:mod:`repro.check.costs`: DTYPE1xx interval-proven overflows, SHAPE1xx
shape/axis incompatibilities, COST0xx cost-contract audits).  The
findings are sorted, de-duplicated and ``# noqa``-filtered once, here.
``--cache`` makes re-runs over an unchanged tree near-instant
(content-hash keyed, :mod:`repro.check.cache`), ``--sarif`` writes a
SARIF 2.1.0 log for GitHub code scanning, and
``--baseline``/``--update-baseline`` implement a ratchet: grandfathered
findings are suppressed, *new* findings fail, and a baseline entry that
no longer matches anything is itself a finding (BASE001) so the baseline
only ever shrinks.

Exit codes: 0 clean, 1 findings, 2 usage/parse error.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import sys

from repro.check.findings import (
    DEPRECATED_RULES,
    RULES,
    Finding,
    is_suppressed,
)

__all__ = [
    "analyze_source",
    "analyze_project",
    "baseline_fingerprint",
    "run_check",
    "main",
]

#: Longest statement extent (in lines) searched for a trailing ``# noqa``
#: on a continuation line; larger statements fall back to the exact line.
_NOQA_EXTENT_CAP = 8


# ----------------------------------------------------------------------
# noqa filtering (statement-extent aware)
# ----------------------------------------------------------------------
def _statement_extents(tree: ast.Module) -> list[tuple[int, int]]:
    extents = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.end_lineno is not None:
            extents.append((node.lineno, node.end_lineno))
    return extents


def _noqa_lines_for(
    line: int, extents: list[tuple[int, int]]
) -> tuple[int, int]:
    """The line range to scan for a suppression covering *line*.

    A multi-line call carries its ``# noqa`` wherever black put the
    closing paren, so the smallest enclosing statement's full extent is
    scanned (capped: an 800-line function body should not let a stray
    noqa suppress everything inside it).
    """
    best: tuple[int, int] | None = None
    for lo, hi in extents:
        if lo <= line <= hi:
            if best is None or (hi - lo) < (best[1] - best[0]):
                best = (lo, hi)
    if best is None or (best[1] - best[0]) >= _NOQA_EXTENT_CAP:
        return (line, line)
    return best


def _finalize(
    findings: list[Finding],
    sources: dict[str, str],
    trees: dict[str, ast.Module],
) -> list[Finding]:
    """Sort, drop repeats of one rule at one site, and apply ``# noqa``."""
    findings = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    files: dict[str, tuple[list[str], list[tuple[int, int]]]] = {}
    kept: list[Finding] = []
    seen: set[tuple] = set()
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key in seen:
            continue
        seen.add(key)
        if finding.path in sources:
            if finding.path not in files:
                files[finding.path] = (
                    sources[finding.path].splitlines(),
                    _statement_extents(trees[finding.path]),
                )
            lines, extents = files[finding.path]
            lo, hi = _noqa_lines_for(finding.line, extents)
            if any(
                is_suppressed(finding.rule, lines[lineno - 1])
                for lineno in range(lo, min(hi, len(lines)) + 1)
            ):
                continue
        kept.append(finding)
    return kept


def _analyze_trees(
    trees: dict[str, ast.Module], sources: dict[str, str]
) -> list[Finding]:
    """Every rule over the parsed *trees*, finalized."""
    # Imported here: ``import repro`` loads this module (through the
    # sanitizer) and should not pay for the analyzers.
    from repro.check.callgraph import ProjectIndex
    from repro.check.costs import analyze_costs
    from repro.check.dataflow import analyze_dataflow
    from repro.check.protocol import analyze_protocol
    from repro.check.rules import check_architecture

    index = ProjectIndex(trees)
    findings: list[Finding] = []
    for path, tree in trees.items():
        findings.extend(check_architecture(tree, path))
    findings.extend(analyze_protocol(trees, index=index))
    findings.extend(analyze_dataflow(trees, index=index))
    findings.extend(analyze_costs(index))
    return _finalize(findings, sources, trees)


def analyze_source(source: str, path: str = "<string>") -> list[Finding]:
    """Run the full pass over one module, honouring ``# noqa``.

    Raises :class:`SyntaxError` if *source* does not parse.
    """
    tree = ast.parse(source, filename=path)
    return _analyze_trees({path: tree}, {path: source})


def _python_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    return files


def analyze_project(
    paths: list[str], *, cache=None
) -> tuple[list[Finding], int]:
    """All findings under *paths* plus the file count.

    *cache* is an optional :class:`repro.check.cache.CheckCache`.
    """
    files = _python_files(paths)
    sources: dict[str, str] = {}
    shas: dict[str, str] = {}
    for filename in files:
        with open(filename, "rb") as handle:
            data = handle.read()
        shas[filename] = hashlib.sha256(data).hexdigest()
        sources[filename] = data.decode("utf-8")
    if cache is not None:
        cached = cache.lookup_tree(shas)
        if cached is not None:
            return cached, len(files)
    trees = {
        filename: ast.parse(sources[filename], filename=filename)
        for filename in files
    }
    findings = _analyze_trees(trees, sources)
    if cache is not None:
        cache.store(shas, findings)
    return findings, len(files)


# ----------------------------------------------------------------------
# Baseline / ratchet
# ----------------------------------------------------------------------
def baseline_fingerprint(finding: Finding, source_line: str) -> str:
    """A location-drift-tolerant identity for one finding.

    Hashes the rule, the file's basename, the *content* of the flagged
    line (whitespace-stripped) — so renaming a directory or inserting a
    line above does not churn the baseline — but not the line number.
    """
    basename = os.path.basename(finding.path.replace("\\", "/"))
    key = f"{finding.rule}|{basename}|{source_line.strip()}"
    return hashlib.sha1(key.encode()).hexdigest()


def _fingerprints(findings: list[Finding]) -> dict[str, Finding]:
    """fingerprint -> finding (occurrence-counted for duplicates)."""
    line_cache: dict[str, list[str]] = {}
    result: dict[str, Finding] = {}
    counts: dict[str, int] = {}
    for finding in findings:
        if finding.path not in line_cache:
            try:
                with open(finding.path, encoding="utf-8") as handle:
                    line_cache[finding.path] = handle.read().splitlines()
            except OSError:
                line_cache[finding.path] = []
        lines = line_cache[finding.path]
        text = lines[finding.line - 1] if finding.line <= len(lines) else ""
        base = baseline_fingerprint(finding, text)
        occurrence = counts.get(base, 0)
        counts[base] = occurrence + 1
        result[f"{base}:{occurrence}"] = finding
    return result


def load_baseline(path: str) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return set(data.get("fingerprints", []))


def write_baseline(path: str, findings: list[Finding]) -> int:
    fingerprints = sorted(_fingerprints(findings))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "fingerprints": fingerprints}, handle,
                  indent=2)
        handle.write("\n")
    return len(fingerprints)


def apply_baseline(
    findings: list[Finding], baseline_path: str
) -> list[Finding]:
    """Suppress grandfathered findings; flag stale baseline entries.

    Returns the new findings plus one BASE001 per baseline fingerprint
    that no current finding matches (the ratchet: fixing a grandfathered
    finding *requires* removing its baseline entry).
    """
    grandfathered = load_baseline(baseline_path)
    current = _fingerprints(findings)
    fresh = [
        finding
        for fingerprint, finding in current.items()
        if fingerprint not in grandfathered
    ]
    stale = grandfathered - set(current)
    for fingerprint in sorted(stale):
        fresh.append(
            Finding(
                "BASE001", baseline_path, 1, 0,
                f"baseline entry {fingerprint[:12]}... matches no current "
                "finding — the underlying issue was fixed; remove the "
                "entry (or regenerate with --update-baseline)",
            )
        )
    fresh.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return fresh


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _default_paths() -> list[str]:
    if os.path.isdir(os.path.join("src", "repro")):
        return [os.path.join("src", "repro")]
    # Fall back to the installed package location.
    return [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]


def run_check(
    paths: list[str] | None = None,
    *,
    json_output: bool = False,
    stream=None,
    sarif_path: str | None = None,
    baseline_path: str | None = None,
    update_baseline: bool = False,
    cache_path: str | None = None,
) -> int:
    """Run the static pass and print a report; returns the exit code."""
    stream = stream if stream is not None else sys.stdout
    paths = paths or _default_paths()
    cache = None
    if cache_path is not None:
        from repro.check.cache import CheckCache

        cache = CheckCache(cache_path)
    try:
        findings, n_files = analyze_project(paths, cache=cache)
    except FileNotFoundError as exc:
        print(f"repro.check: no such path: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro.check: cannot parse {exc.filename}: {exc}",
              file=sys.stderr)
        return 2
    if update_baseline:
        if baseline_path is None:
            print("repro.check: --update-baseline requires --baseline PATH",
                  file=sys.stderr)
            return 2
        count = write_baseline(baseline_path, findings)
        print(
            f"repro.check: baseline written to {baseline_path} "
            f"({count} grandfathered finding(s))",
            file=stream,
        )
        return 0
    if baseline_path is not None:
        try:
            findings = apply_baseline(findings, baseline_path)
        except (OSError, ValueError) as exc:
            print(f"repro.check: cannot read baseline: {exc}",
                  file=sys.stderr)
            return 2
    if sarif_path is not None:
        from repro.check.sarif import to_sarif

        with open(sarif_path, "w", encoding="utf-8") as handle:
            json.dump(to_sarif(findings), handle, indent=2)
            handle.write("\n")
    if json_output:
        payload = {
            "version": 1,
            "checked_files": n_files,
            "findings": [finding.as_dict() for finding in findings],
        }
        print(json.dumps(payload, indent=2), file=stream)
    else:
        for finding in findings:
            print(finding.render(), file=stream)
        summary = (
            f"repro.check: {len(findings)} finding(s) in {n_files} file(s)"
            if findings
            else f"repro.check: OK ({n_files} files, 0 findings)"
        )
        print(summary, file=stream)
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.check`` / ``repro-check``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static analysis for the PRNA stack: ARCH001, the "
        "interprocedural protocol rules SPMD1xx/SPMD2xx/SCHED0xx and the "
        "numeric dataflow rules DTYPE1xx/SHAPE1xx/COST0xx, in one pass "
        "(see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="json_output",
        help="machine-readable findings for CI annotation",
    )
    parser.add_argument(
        "--sarif", metavar="PATH", dest="sarif_path",
        help="write findings as SARIF 2.1.0 (GitHub code scanning)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", dest="baseline_path",
        help="suppress findings recorded in this baseline file; stale "
        "entries become BASE001 findings (ratchet mode)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--cache", metavar="PATH", dest="cache_path",
        help="incremental findings cache keyed by file content hashes "
        "(re-running on an unchanged tree is near-instant)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            tag = " [deprecated]" if rule in DEPRECATED_RULES else ""
            print(f"{rule}{tag}  {summary}")
        return 0
    return run_check(
        args.paths or None,
        json_output=args.json_output,
        sarif_path=args.sarif_path,
        baseline_path=args.baseline_path,
        update_baseline=args.update_baseline,
        cache_path=args.cache_path,
    )
