"""The wire-safety checks packaged as lint rules.

Four rules in their own catalogue (:func:`wire_rules`), under the conc
catalogue's contract: resolvable by name through
``repro.devtools.rules.get_rules`` but never part of ``all_rules()``.
Unlike conc there is no accepted-debt baseline — the wire surface
gates at **zero findings with zero suppressions**, because every finding
is a payload the real transport cannot ship.

Finding messages deliberately contain no line numbers: the identity key
is ``rule|path|message``, so a finding survives unrelated edits and
disappears exactly when the defect itself is fixed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from ..framework import Finding, ModuleInfo, ProjectRule, Rule
from .extract import RemoteHandler, WireAnalysis, get_wire_analysis, is_wire_safe
from .schema import DEFAULT_SCHEMA_PATH, build_schema, load_schema


class _WireRule(ProjectRule):
    """Base: all wire rules share the extracted analysis."""

    def __init__(self, schema_path: Optional[Path] = None):
        self.schema_path = Path(schema_path) if schema_path else DEFAULT_SCHEMA_PATH

    def _analysis(self, modules: Sequence[ModuleInfo]) -> WireAnalysis:
        return get_wire_analysis(modules)


class WireSerializableRule(_WireRule):
    """No live object references may cross the Transport seam."""

    name = "wire-serializable"
    description = (
        "remote handler signatures and message dataclasses must be "
        "wire-encodable: primitives, containers of primitives, and "
        "registered message dataclasses only — never live nodes, "
        "stores, RNGs, callables or simulator handles"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = self._analysis(modules)
        message_types = analysis.message_type_names()
        for key in sorted(analysis.handlers):
            handler = analysis.handlers[key]
            yield from self._check_handler(handler, message_types)
        for name in sorted(analysis.message_classes):
            info = analysis.message_classes[name]
            if not info.is_dataclass:
                continue
            for fname, ftype in info.fields:
                if not is_wire_safe(ftype, message_types):
                    yield Finding(
                        rule=self.name, path=info.path, line=info.line,
                        message=(
                            f"message {name}.{fname}: field type "
                            f"{ftype!r} is not wire-encodable"
                        ),
                    )
        for site in analysis.sites:
            if site.kind != "route":
                continue
            if site.message_type is None:
                yield Finding(
                    rule=self.name, path=site.path, line=site.line,
                    message=(
                        f"{site.function}: route() payload could not be "
                        "resolved to a message dataclass"
                    ),
                )
            elif site.message_type not in message_types:
                yield Finding(
                    rule=self.name, path=site.path, line=site.line,
                    message=(
                        f"{site.function}: route() payload "
                        f"{site.message_type!r} is not a registered "
                        "message dataclass"
                    ),
                )

    def _check_handler(
        self, handler: RemoteHandler, message_types
    ) -> Iterator[Finding]:
        for pname, ptype in handler.params:
            if ptype is None:
                yield Finding(
                    rule=self.name, path=handler.path, line=handler.line,
                    message=(
                        f"{handler.key}: remote parameter {pname!r} has no "
                        "annotation; the wire codec cannot certify it"
                    ),
                )
            elif not is_wire_safe(ptype, message_types):
                yield Finding(
                    rule=self.name, path=handler.path, line=handler.line,
                    message=(
                        f"{handler.key}: remote parameter {pname!r} of type "
                        f"{ptype!r} is not wire-encodable"
                    ),
                )
        if handler.returns is None:
            yield Finding(
                rule=self.name, path=handler.path, line=handler.line,
                message=(
                    f"{handler.key}: remote handler has no return "
                    "annotation; the wire codec cannot certify it"
                ),
            )
        elif not is_wire_safe(handler.returns, message_types):
            yield Finding(
                rule=self.name, path=handler.path, line=handler.line,
                message=(
                    f"{handler.key}: return type {handler.returns!r} is "
                    "not wire-encodable"
                ),
            )


class WireHandlerTotalRule(_WireRule):
    """Every remote call resolves to exactly one live, matching handler."""

    name = "wire-handler-total"
    description = (
        "every send site must resolve to exactly one handler with a "
        "matching signature; committed-schema handlers with no remaining "
        "call site are dead and flagged"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = self._analysis(modules)
        for site in analysis.sites:
            if site.kind != "send":
                continue
            if site.resolution_error is not None:
                yield Finding(
                    rule=self.name, path=site.path, line=site.line,
                    message=f"{site.function}: orphan send — {site.resolution_error}",
                )
                continue
            if site.handler is None:
                continue  # bare crashed-target send: nothing to match
            handler = analysis.handlers[site.handler]
            yield from self._check_arity(site, handler)
        committed = load_schema(self.schema_path)
        if committed is None:
            return
        live = set(analysis.handlers)
        by_name = {m.name: m for m in modules}
        for key in sorted(committed.get("rpcs", {})):
            if key in live:
                continue
            entry = committed["rpcs"][key]
            module = by_name.get(entry.get("module", ""))
            cls, _, method = key.partition(".")
            info = analysis.classes.get(cls)
            path = info.path if info is not None else (
                module.path if module is not None else str(self.schema_path)
            )
            line = info.line if info is not None else 1
            yield Finding(
                rule=self.name, path=path, line=line,
                message=(
                    f"{key}: handler in the committed wire schema has no "
                    "remaining call site (dead handler); re-run "
                    "--write-schema if it was removed deliberately"
                ),
            )

    def _check_arity(self, site, handler: RemoteHandler) -> Iterator[Finding]:
        names = [name for name, _ in handler.params]
        unknown = [kw for kw in site.keyword_args if kw not in names]
        if unknown:
            yield Finding(
                rule=self.name, path=site.path, line=site.line,
                message=(
                    f"{site.function}: send passes keyword(s) "
                    f"{', '.join(unknown)} that {handler.key} does not accept"
                ),
            )
            return
        given = site.positional_args + len(site.keyword_args)
        low = len(handler.params) - handler.defaults
        high = len(handler.params)
        if not low <= given <= high:
            yield Finding(
                rule=self.name, path=site.path, line=site.line,
                message=(
                    f"{site.function}: send passes {given} argument(s) but "
                    f"{handler.key} accepts between {low} and {high}"
                ),
            )


class WireLostPathRule(_WireRule):
    """Every unreliable send must consume the ``delivered=False`` branch."""

    name = "wire-lost-path"
    description = (
        "an unreliable send can be lost in flight: the call site must "
        "bind the delivered flag and test it (or run under a "
        "RetryPolicy); reliable=True sites are exempt"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        analysis = self._analysis(modules)
        for site in analysis.sites:
            if site.kind != "send" or site.reliable:
                continue
            if site.resolution_error is not None:
                continue  # the orphan finding already covers this site
            if site.delivered_tested or site.retry_policy_in_scope:
                continue
            if site.delivered_name is None:
                what = "discards the (delivered, result) tuple"
            else:
                what = (
                    f"binds the delivered flag to {site.delivered_name!r} "
                    "but never tests it"
                )
            yield Finding(
                rule=self.name, path=site.path, line=site.line,
                message=(
                    f"{site.function}: unreliable send {what}; handle the "
                    "lost-RPC branch or mark the site reliable=True"
                ),
            )


class WireSchemaDriftRule(_WireRule):
    """Call sites must agree with the committed wire schema."""

    name = "wire-schema-drift"
    description = (
        "the RPC surface recomputed from source must match the committed "
        "wire_schema.json: shape drift means the transport's wire format "
        "no longer matches the node logic"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        committed = load_schema(self.schema_path)
        if committed is None:
            return  # no golden schema yet: nothing to drift from
        analysis = self._analysis(modules)
        current = build_schema(analysis)
        committed_rpcs = committed.get("rpcs", {})
        for key in sorted(current["rpcs"]):
            entry = current["rpcs"][key]
            handler = analysis.handlers[key]
            if key not in committed_rpcs:
                yield Finding(
                    rule=self.name, path=handler.path, line=handler.line,
                    message=(
                        f"{key}: rpc is live in source but absent from the "
                        "committed wire schema; run --write-schema"
                    ),
                )
                continue
            pinned = committed_rpcs[key]
            if entry["params"] != pinned.get("params"):
                yield Finding(
                    rule=self.name, path=handler.path, line=handler.line,
                    message=(
                        f"{key}: parameter shape drifted from the committed "
                        "wire schema; run --write-schema and review the "
                        "codec impact"
                    ),
                )
            if entry["returns"] != pinned.get("returns"):
                yield Finding(
                    rule=self.name, path=handler.path, line=handler.line,
                    message=(
                        f"{key}: return shape drifted from the committed "
                        "wire schema; run --write-schema and review the "
                        "codec impact"
                    ),
                )
        committed_messages = committed.get("messages", {})
        for name in sorted(current["messages"]):
            info = analysis.message_classes[name]
            if name not in committed_messages:
                yield Finding(
                    rule=self.name, path=info.path, line=info.line,
                    message=(
                        f"message {name} is absent from the committed wire "
                        "schema; run --write-schema"
                    ),
                )
            elif current["messages"][name]["fields"] != committed_messages[name].get("fields"):
                yield Finding(
                    rule=self.name, path=info.path, line=info.line,
                    message=(
                        f"message {name}: field shape drifted from the "
                        "committed wire schema; run --write-schema and "
                        "review the codec impact"
                    ),
                )


def wire_rules(schema_path: Optional[Path] = None) -> List[Rule]:
    """Fresh instances of the wire catalogue, in report order."""
    return [
        WireSerializableRule(schema_path),
        WireHandlerTotalRule(schema_path),
        WireLostPathRule(schema_path),
        WireSchemaDriftRule(schema_path),
    ]
