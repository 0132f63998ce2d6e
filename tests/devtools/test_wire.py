"""Tests for the wire-safety analyzer (the wire catalogue).

Planted fixtures: one mutant per wire rule that the analyzer MUST flag,
the clean rewrite of the same RPC shape that must pass, plus the real
tree's gates — zero findings with zero suppressions, and the committed
``wire_schema.json`` byte-identical to the surface recomputed from
source (the codec's type registry can never silently drift).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import all_rules, module_from_source, run_rules
from repro.devtools.wire import (
    DEFAULT_SCHEMA_PATH,
    build_schema,
    get_wire_analysis,
    is_wire_safe,
    schema_json,
    wire_rules,
)
from repro.devtools.wire.rules import WireSchemaDriftRule, WireSerializableRule
from repro.devtools.wire.schema import write_schema

REPO_ROOT = Path(__file__).resolve().parents[2]

WIRE_RULE_NAMES = (
    "wire-serializable",
    "wire-handler-total",
    "wire-lost-path",
    "wire-schema-drift",
)


def analyze(source, name="repro.core.fixture", schema_path=None, rules=None):
    module = module_from_source(source, name=name, path="fixture.py")
    if rules is None:
        rules = wire_rules(schema_path or Path("/nonexistent/wire_schema.json"))
    return run_rules([module], rules)


def rules_of(findings):
    return [f.rule for f in findings]


# The clean RPC shape every fixture below mutates: annotated wire-safe
# handler, delivered flag bound and tested, arity in range.
CLEAN_RPC = """\
class Store:
    def fetch(self, file_id: int, salt: int = 0) -> bytes:
        return b""

class Node:
    def __init__(self, transport, store: Store):
        self.transport = transport
        self.store = store

    def pull(self, peer, fid: int) -> bytes:
        delivered, data = self.transport.send(
            self.node_id, peer.node_id, peer.store.fetch, fid
        )
        if not delivered:
            return b""
        return data
"""


class TestWireSerializable:
    def test_clean_rpc_passes(self):
        assert analyze(CLEAN_RPC) == []

    def test_unannotated_remote_parameter_is_flagged(self):
        source = CLEAN_RPC.replace("file_id: int, ", "file_id, ")
        findings = analyze(source)
        assert "wire-serializable" in rules_of(findings)
        assert any("has no annotation" in f.message for f in findings)

    def test_live_object_parameter_is_flagged(self):
        source = CLEAN_RPC.replace("file_id: int", "file_id: Node")
        findings = analyze(source)
        assert any(
            f.rule == "wire-serializable"
            and "'Node' is not wire-encodable" in f.message
            for f in findings
        )

    def test_missing_return_annotation_is_flagged(self):
        source = CLEAN_RPC.replace(" -> bytes:\n        return b\"\"", ":\n        return b\"\"", 1)
        findings = analyze(source)
        assert any(
            f.rule == "wire-serializable" and "no return annotation" in f.message
            for f in findings
        )

    def test_unregistered_route_payload_is_flagged(self):
        source = CLEAN_RPC + (
            "\n"
            "class Router:\n"
            "    def __init__(self, transport):\n"
            "        self.transport = transport\n"
            "\n"
            "    def go(self, key: int):\n"
            "        self.transport.route(0, key, message=Store())\n"
        )
        findings = analyze(source)
        assert any(
            f.rule == "wire-serializable"
            and "not a registered message dataclass" in f.message
            for f in findings
        )

    def test_unsafe_message_field_is_flagged(self):
        messages = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Envelope:\n"
            "    file_id: int\n"
            "    handle: object\n"
        )
        module = module_from_source(
            messages, name="repro.core.messages", path="messages.py"
        )
        findings = run_rules(
            [module], [WireSerializableRule(Path("/nonexistent.json"))]
        )
        assert [f.rule for f in findings] == ["wire-serializable"]
        assert "Envelope.handle" in findings[0].message

    def test_is_wire_safe_grammar(self):
        safe = {"Envelope"}
        assert is_wire_safe("int", safe)
        assert is_wire_safe("Optional[bytes]", safe)
        assert is_wire_safe("List[Envelope]", safe)
        assert is_wire_safe("Dict[int, Tuple[int, ...]]", safe)
        assert is_wire_safe("int | None", safe)
        assert not is_wire_safe(None, safe)
        assert not is_wire_safe("PastNode", safe)
        assert not is_wire_safe("tuple", safe)  # bare container
        assert not is_wire_safe("Callable[[int], int]", safe)
        assert not is_wire_safe("Dict[int, PastNode]", safe)


class TestWireHandlerTotal:
    def test_orphan_send_is_flagged(self):
        source = CLEAN_RPC.replace("peer.store.fetch", "peer.store.missing_method")
        findings = analyze(source)
        assert any(
            f.rule == "wire-handler-total" and "orphan send" in f.message
            for f in findings
        )

    def test_unknown_keyword_is_flagged(self):
        source = CLEAN_RPC.replace(
            "peer.store.fetch, fid", "peer.store.fetch, fid, bogus=1"
        )
        findings = analyze(source)
        assert any(
            f.rule == "wire-handler-total" and "bogus" in f.message
            for f in findings
        )

    def test_arity_overflow_is_flagged(self):
        source = CLEAN_RPC.replace(
            "peer.store.fetch, fid", "peer.store.fetch, fid, 1, 2"
        )
        findings = analyze(source)
        assert any(
            f.rule == "wire-handler-total" and "accepts between 1 and 2" in f.message
            for f in findings
        )

    def test_dead_schema_handler_is_flagged(self, tmp_path):
        """A committed handler with no call site left: the schema side of
        handler totality, reported by the one schema check."""
        module = module_from_source(CLEAN_RPC, name="repro.core.fixture", path="fixture.py")
        schema = build_schema(get_wire_analysis([module]))
        schema["rpcs"]["Store.stale_handler"] = {**schema["rpcs"]["Store.fetch"], "sites": []}
        path = tmp_path / "wire_schema.json"
        write_schema(schema, path)
        findings = run_rules([module], [WireSchemaDriftRule(path)])
        assert len(findings) == 1
        assert "Store.stale_handler" in findings[0].message
        assert "dead handler" in findings[0].message


class TestWireLostPath:
    def test_discarded_delivery_tuple_is_flagged(self):
        source = CLEAN_RPC.replace(
            "delivered, data = self.transport.send",
            "self.transport.send",
        ).replace("if not delivered:\n            return b\"\"\n        return data",
                  "return b\"\"")
        findings = analyze(source)
        assert any(
            f.rule == "wire-lost-path" and "discards the" in f.message
            for f in findings
        )

    def test_bound_but_untested_flag_is_flagged(self):
        source = CLEAN_RPC.replace(
            "if not delivered:\n            return b\"\"\n        return data",
            "return data",
        )
        findings = analyze(source)
        assert any(
            f.rule == "wire-lost-path" and "never tests it" in f.message
            for f in findings
        )

    def test_reliable_send_is_exempt(self):
        source = CLEAN_RPC.replace(
            "peer.store.fetch, fid", "peer.store.fetch, fid, reliable=True"
        ).replace(
            "if not delivered:\n            return b\"\"\n        return data",
            "return data",
        )
        findings = analyze(source)
        assert "wire-lost-path" not in rules_of(findings)

    def test_retry_policy_in_scope_is_exempt(self):
        source = CLEAN_RPC.replace(
            "def pull(self, peer, fid: int) -> bytes:",
            "def pull(self, peer, fid: int, policy: 'RetryPolicy' = None) -> bytes:",
        ).replace(
            "if not delivered:\n            return b\"\"\n        return data",
            "return data",
        )
        findings = analyze(source)
        assert "wire-lost-path" not in rules_of(findings)


class TestSendSites:
    """A send is recorded once, under the function whose body holds it."""

    @staticmethod
    def site_keys(method):
        source = CLEAN_RPC + "\n    def later(self, peer, fid: int):\n" + method
        module = module_from_source(source, name="repro.core.fixture", path="fixture.py")
        return [
            site.site_key for site in get_wire_analysis([module]).sites
            if site.function.startswith("Node.later")
        ]

    def test_a_send_in_a_closure_is_one_site_under_the_closure(self):
        assert self.site_keys(
            "        def call():\n"
            "            delivered, data = self.transport.send(\n"
            "                self.node_id, peer.node_id, peer.store.fetch, fid\n"
            "            )\n"
            "            return data if delivered else b''\n"
            "        return call\n"
        ) == ["repro.core.fixture.Node.later.call"]

    def test_a_send_in_a_lambda_stays_with_the_enclosing_function(self):
        assert self.site_keys(
            "        return lambda: self.transport.send(\n"
            "            self.node_id, peer.node_id, peer.store.fetch, fid\n"
            "        )\n"
        ) == ["repro.core.fixture.Node.later"]


class TestWireSchemaDrift:
    def _pin(self, tmp_path, source):
        module = module_from_source(source, name="repro.core.fixture", path="fixture.py")
        schema = build_schema(get_wire_analysis([module]))
        path = tmp_path / "wire_schema.json"
        write_schema(schema, path)
        return path

    def test_unchanged_surface_is_clean(self, tmp_path):
        pinned = self._pin(tmp_path, CLEAN_RPC)
        findings = analyze(CLEAN_RPC, rules=[WireSchemaDriftRule(pinned)])
        assert findings == []

    def test_parameter_drift_is_flagged(self, tmp_path):
        pinned = self._pin(tmp_path, CLEAN_RPC)
        drifted = CLEAN_RPC.replace("file_id: int", "file_id: str")
        findings = analyze(drifted, rules=[WireSchemaDriftRule(pinned)])
        assert any(
            "parameter shape drifted" in f.message for f in findings
        )

    def test_return_drift_is_flagged(self, tmp_path):
        pinned = self._pin(tmp_path, CLEAN_RPC)
        drifted = CLEAN_RPC.replace(
            "def fetch(self, file_id: int, salt: int = 0) -> bytes:",
            "def fetch(self, file_id: int, salt: int = 0) -> str:",
        )
        findings = analyze(drifted, rules=[WireSchemaDriftRule(pinned)])
        assert any("return shape drifted" in f.message for f in findings)

    def test_new_rpc_absent_from_schema_is_flagged(self, tmp_path):
        pinned = self._pin(tmp_path, CLEAN_RPC)
        grown = CLEAN_RPC + (
            "\n"
            "    def push(self, peer, fid: int) -> bool:\n"
            "        delivered, ok = self.transport.send(\n"
            "            self.node_id, peer.node_id, peer.store.install, fid\n"
            "        )\n"
            "        return delivered and ok\n"
        )
        grown = grown.replace(
            "    def fetch(self, file_id: int, salt: int = 0) -> bytes:\n"
            "        return b\"\"\n",
            "    def fetch(self, file_id: int, salt: int = 0) -> bytes:\n"
            "        return b\"\"\n"
            "\n"
            "    def install(self, file_id: int) -> bool:\n"
            "        return True\n",
        )
        findings = analyze(grown, rules=[WireSchemaDriftRule(pinned)])
        assert any(
            "Store.install: rpc is live in source but absent" in f.message
            for f in findings
        )

    def test_message_field_drift_is_flagged(self, tmp_path):
        messages = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Envelope:\n"
            "    file_id: int\n"
        )
        module = module_from_source(
            messages, name="repro.core.messages", path="messages.py"
        )
        schema = build_schema(get_wire_analysis([module]))
        path = tmp_path / "wire_schema.json"
        write_schema(schema, path)
        drifted = module_from_source(
            messages + "    salt: int\n",
            name="repro.core.messages", path="messages.py",
        )
        findings = run_rules([drifted], [WireSchemaDriftRule(path)])
        assert any(
            "message Envelope: field shape drifted" in f.message
            for f in findings
        )


#: Five kinds of stale schema a field-by-field comparison of rpc params,
#: returns and message fields cannot see; the byte comparison does.
STALE_SCHEMA = {
    "route-dropped": lambda s: s["routes"].pop("ReclaimRequest"),
    "probe-sites-emptied": lambda s: s.update(probe_sites=[]),
    "rpc-sites-emptied": lambda s: s["rpcs"]["PastNode.fetch"].update(sites=[]),
    "message-frozen-flipped": lambda s: s["messages"]["InsertRequest"].update(frozen=True),
    "stale-message-kept": lambda s: s["messages"].update(
        RetiredRequest={"module": "repro.core.messages", "frozen": False, "fields": []}
    ),
}


@pytest.fixture(scope="module")
def src_modules(checked_src):
    return checked_src.modules


class TestRealTreeGates:
    def test_src_tree_has_zero_findings(self, checked_src, src_modules):
        """The wire gate: the production RPC surface is fully shippable,
        with no baseline and no suppressions."""
        wire = {rule.name for rule in wire_rules()}
        findings = [f for f in checked_src.findings if f.rule in wire]
        assert not findings, "\n".join(f.render() for f in findings)
        analysis = get_wire_analysis(src_modules)
        assert analysis.handlers
        assert any(site.kind == "send" for site in analysis.sites)

    def test_no_wire_suppressions_in_src(self):
        """Zero suppressions is part of the gate: a wire finding is a
        payload the transport cannot ship, so it cannot be waived."""
        for path in (REPO_ROOT / "src").rglob("*.py"):
            text = path.read_text()
            assert "lint: ignore[wire-" not in text, path

    def test_committed_schema_matches_source(self, src_modules):
        fresh = schema_json(build_schema(get_wire_analysis(src_modules)))
        committed = DEFAULT_SCHEMA_PATH.read_text()
        assert fresh == committed, (
            "wire_schema.json is stale; run python -m repro check --write-schema"
        )

    def test_check_schema_cli_passes(self, checked_src):
        assert not checked_src.new
        assert "wire schema: match" in checked_src.render()

    def test_schema_bytes_stable_across_hash_seeds(self, check_reports_across_hash_seeds):
        """The golden schema must be byte-identical under any
        PYTHONHASHSEED: each seed's report compares it with the
        committed bytes."""
        for report in check_reports_across_hash_seeds:
            assert json.loads(report)["schema"] == "match"

    @pytest.mark.parametrize("kind", sorted(STALE_SCHEMA))
    def test_stale_schema_is_a_drift_finding(self, kind, src_modules, tmp_path):
        stale = json.loads(DEFAULT_SCHEMA_PATH.read_text())
        STALE_SCHEMA[kind](stale)
        path = tmp_path / "wire_schema.json"
        write_schema(stale, path)
        findings = run_rules(src_modules, [WireSchemaDriftRule(path)])
        assert findings and {f.rule for f in findings} == {"wire-schema-drift"}


class TestCatalogueRegistry:
    def test_wire_rules_not_in_default_set(self):
        default = {r.name for r in all_rules()}
        assert not default & set(WIRE_RULE_NAMES)
