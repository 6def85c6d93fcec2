"""SARIF 2.1.0 export for static findings.

The Static Analysis Results Interchange Format is what GitHub code
scanning ingests; emitting it turns every ``repro.check`` finding into a
pull-request annotation with no extra glue.  Only the small, stable core
of the format is produced: one ``run`` with a ``tool.driver`` carrying
the rule catalog, and one ``result`` per finding with a
``physicalLocation``.  Columns are converted from the analyzer's 0-based
offsets to SARIF's 1-based columns.
"""

from __future__ import annotations

from repro.check.findings import RULES, Finding

__all__ = ["to_sarif", "SARIF_VERSION", "SARIF_SCHEMA"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-check"

#: Rule families that indicate a proven protocol or numeric violation;
#: surfaced as SARIF ``error`` severity.  The lexical ARCH001 layering
#: rule and BASE001 ratchet bookkeeping stay ``warning``.
_ERROR_PREFIXES = ("SPMD1", "SPMD2", "SCHED", "DTYPE", "SHAPE", "COST")


def _severity(rule: str) -> str:
    if rule.startswith(_ERROR_PREFIXES):
        return "error"
    return "warning"


def to_sarif(findings: list[Finding], *, tool_version: str = "0") -> dict:
    """A SARIF 2.1.0 log object for *findings*."""
    used_rules = sorted({finding.rule for finding in findings} | set(RULES))
    rule_index = {rule: idx for idx, rule in enumerate(used_rules)}
    driver = {
        "name": TOOL_NAME,
        "informationUri": "https://example.invalid/repro-check",
        "version": str(tool_version),
        "rules": [
            {
                "id": rule,
                "shortDescription": {
                    "text": RULES.get(rule, "unknown rule")
                },
                "defaultConfiguration": {"level": _severity(rule)},
            }
            for rule in used_rules
        ],
    }
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": _severity(finding.rule),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
