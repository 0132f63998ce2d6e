"""The versioned wire schema: the RPC surface as a committed artifact.

``build_schema`` turns a :class:`~repro.devtools.wire.extract.WireAnalysis`
into a plain dict; ``schema_json`` serializes it canonically (sorted
keys, sorted site lists — byte-identical across hash seeds); the golden
copy is committed at :data:`DEFAULT_SCHEMA_PATH`, inside ``repro.net``,
where the codec loads it as its message/type registry.

The schema is a *certificate*: ``repro check`` recomputes it from source
and byte-compares (the ``wire-schema-drift`` rule), so the wire format
the transport implements can never silently drift from what the node
logic sends; ``repro check --write-schema`` rewrites it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from ..framework import LintError
from .extract import WireAnalysis

SCHEMA_VERSION = 2

#: The committed golden schema, packaged next to the codec that uses it.
DEFAULT_SCHEMA_PATH = Path(__file__).resolve().parents[2] / "net" / "wire_schema.json"


def build_schema(analysis: WireAnalysis) -> dict:
    """The wire schema for an analyzed module set."""
    rpcs: Dict[str, dict] = {}
    for key, handler in analysis.handlers.items():
        sites = sorted({
            site.site_key for site in analysis.sites if site.handler == key
        })
        rpcs[key] = {
            "module": handler.module,
            "params": [
                {"name": name, "type": annotation}
                for name, annotation in handler.params
            ],
            "returns": handler.returns,
            "sites": sites,
        }
    routes: Dict[str, dict] = {}
    for site in analysis.sites:
        if site.kind != "route" or site.message_type is None:
            continue
        entry = routes.setdefault(site.message_type, {"sites": []})
        if site.site_key not in entry["sites"]:
            entry["sites"].append(site.site_key)
    for entry in routes.values():
        entry["sites"].sort()
    probe_sites = sorted({
        site.site_key for site in analysis.sites if site.kind == "probe"
    })
    messages: Dict[str, dict] = {}
    for name, info in analysis.message_classes.items():
        if not info.is_dataclass:
            continue
        messages[name] = {
            "module": info.module,
            "frozen": info.frozen,
            "fields": [
                {"name": fname, "type": ftype} for fname, ftype in info.fields
            ],
        }
    return {
        "version": SCHEMA_VERSION,
        "rpcs": rpcs,
        "routes": routes,
        "probe_sites": probe_sites,
        "messages": messages,
    }


def schema_json(schema: dict) -> str:
    """Canonical serialization: stable bytes for golden pinning."""
    return json.dumps(schema, indent=2, sort_keys=True) + "\n"


def write_schema(schema: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(schema_json(schema))


def load_schema(path: Path) -> Optional[dict]:
    """The committed schema, or None when none has been written yet."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError:
        return None
    except ValueError as exc:
        raise LintError(f"cannot parse wire schema {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != SCHEMA_VERSION:
        raise LintError(
            f"{path} is not a version-{SCHEMA_VERSION} wire schema"
        )
    return payload
