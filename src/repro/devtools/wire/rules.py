"""The wire-safety checks packaged as lint rules.

Four rules in their own catalogue (:func:`wire_rules`), run by ``repro
check`` beside the determinism and conc catalogues.  Unlike conc there
is no accepted debt — the wire surface gates at **zero findings with
zero suppressions**, because every finding is a payload the real
transport cannot ship.

Finding messages deliberately contain no line numbers: the identity key
is ``rule|path|message``, so a finding survives unrelated edits and
disappears exactly when the defect itself is fixed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from ..framework import Finding, ModuleInfo, ProjectRule, Rule
from .extract import RemoteHandler, WireAnalysis, get_wire_analysis, is_wire_safe
from .schema import DEFAULT_SCHEMA_PATH, build_schema, load_schema, schema_json


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
        "matching signature"
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


#: Schema entry fields a drift finding names, and the words it uses.
_DRIFT_LABELS = {
    "params": "parameter shape",
    "returns": "return shape",
    "sites": "call sites",
    "fields": "field shape",
    "frozen": "frozen flag",
    "module": "module",
}

_RERUN = "run `repro check --write-schema`"


class WireSchemaDriftRule(_WireRule):
    """The committed wire schema is the one recomputed from source."""

    name = "wire-schema-drift"
    description = (
        "the committed wire_schema.json must be byte-identical to the "
        "schema recomputed from source: each differing rpc or message is "
        "named where it is defined, any other difference at the schema file"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        committed = load_schema(self.schema_path)
        if committed is None:
            return  # no golden schema yet: nothing to drift from
        analysis = self._analysis(modules)
        current = build_schema(analysis)
        if schema_json(current) == self.schema_path.read_text():
            return
        located = list(self._located(modules, analysis, current, committed))
        yield from located
        other = sorted(
            key for key in set(current) | set(committed)
            if key not in ("rpcs", "messages")
            and current.get(key) != committed.get(key)
        )
        if other or not located:
            yield Finding(
                rule=self.name, path=str(self.schema_path), line=1,
                message=(
                    f"{self.schema_path.name} differs from the schema "
                    "recomputed from source in "
                    f"{', '.join(other) or 'its serialization'}; {_RERUN}"
                ),
            )

    def _located(self, modules, analysis: WireAnalysis, current, committed):
        """A finding per rpc or message whose entry differs, where it is
        defined (or, gone from source, at the module the schema names)."""
        paths = {m.name: m.path for m in modules}
        sections = (
            ("rpcs", "{}", analysis.handlers,
             "rpc is live in source but absent from the committed wire schema",
             "handler in the committed wire schema has no remaining call "
             "site (dead handler)"),
            ("messages", "message {}", analysis.message_classes,
             "absent from the committed wire schema",
             "in the committed wire schema but no message dataclass in "
             "source (stale message)"),
        )
        for section, label, defined, absent, gone in sections:
            pinned_section = committed.get(section, {})
            for key in sorted(set(current[section]) | set(pinned_section)):
                entry, pinned = current[section].get(key), pinned_section.get(key)
                if entry == pinned:
                    continue
                if entry is None:
                    path = paths.get(pinned.get("module"), str(self.schema_path))
                    line = 1
                    messages = [f"{gone}; {_RERUN} if it was removed deliberately"]
                else:
                    path, line = defined[key].path, defined[key].line
                    messages = [f"{absent}; {_RERUN}"] if pinned is None else [
                        f"{words} drifted from the committed wire schema; "
                        f"{_RERUN} and review the codec impact"
                        for field, words in _DRIFT_LABELS.items()
                        if field in entry and entry[field] != pinned.get(field)
                    ]
                for message in messages:
                    yield Finding(
                        rule=self.name, path=path, line=line,
                        message=f"{label.format(key)}: {message}",
                    )


def wire_rules(schema_path: Optional[Path] = None) -> List[Rule]:
    """Fresh instances of the wire catalogue, in report order."""
    return [
        WireSerializableRule(schema_path),
        WireHandlerTotalRule(schema_path),
        WireLostPathRule(schema_path),
        WireSchemaDriftRule(schema_path),
    ]
