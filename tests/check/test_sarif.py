"""SARIF 2.1.0 export: structural validity and content fidelity.

``jsonschema`` validates the emitted log against an embedded subset of
the official SARIF 2.1.0 schema — the structural core GitHub code
scanning actually requires (version/$schema, runs[].tool.driver with
rules, results with ruleId/message/locations/physicalLocation).  The
subset is strict about the fields it covers (types, required keys,
1-based region columns) so a malformed writer fails here rather than at
upload time.
"""

import json

import pytest

from repro.check.findings import RULES, Finding
from repro.check.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

jsonschema = pytest.importorskip("jsonschema")

#: Structural subset of the SARIF 2.1.0 schema (oasis-tcs/sarif-spec).
SARIF_CORE_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0,
                                },
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"],
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


SAMPLE = [
    Finding("SPMD101", "src/repro/parallel/prna.py", 12, 0,
            "collective schedules diverge"),
    Finding("ARCH001", "src/repro/parallel/prna.py", 40, 8,
            "direct construction of runtime machinery"),
]


class TestSarifStructure:
    def test_validates_against_core_schema(self):
        jsonschema.validate(to_sarif(SAMPLE), SARIF_CORE_SCHEMA)

    def test_empty_findings_still_validate(self):
        jsonschema.validate(to_sarif([]), SARIF_CORE_SCHEMA)

    def test_version_and_schema_pinned(self):
        doc = to_sarif([])
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        assert "2.1.0" in SARIF_SCHEMA

    def test_rule_catalog_embedded(self):
        doc = to_sarif(SAMPLE)
        ids = {rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert set(RULES) <= ids

    def test_rule_index_consistent(self):
        doc = to_sarif(SAMPLE)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        for result in doc["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


class TestSarifContent:
    def test_columns_are_one_based(self):
        doc = to_sarif(SAMPLE)
        regions = [
            result["locations"][0]["physicalLocation"]["region"]
            for result in doc["runs"][0]["results"]
        ]
        assert regions[0]["startColumn"] == 1  # finding col 0
        assert regions[1]["startColumn"] == 9  # finding col 8

    def test_protocol_rules_are_errors_lexical_are_warnings(self):
        doc = to_sarif(SAMPLE)
        levels = {
            result["ruleId"]: result["level"]
            for result in doc["runs"][0]["results"]
        }
        assert levels["SPMD101"] == "error"
        assert levels["ARCH001"] == "warning"

    def test_round_trips_through_json(self):
        doc = to_sarif(SAMPLE)
        assert json.loads(json.dumps(doc)) == doc

    def test_run_check_writes_sarif(self, tmp_path):
        import io

        from repro.check.static import run_check

        bad = tmp_path / "bad.py"
        bad.write_text(
            "def fn(comm):\n    if comm.rank == 0:\n        comm.barrier()\n"
        )
        out = tmp_path / "out.sarif"
        code = run_check(
            [str(bad)], stream=io.StringIO(), sarif_path=str(out),
        )
        assert code == 1
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SARIF_CORE_SCHEMA)
        rule_ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert rule_ids == {"SPMD101"}
