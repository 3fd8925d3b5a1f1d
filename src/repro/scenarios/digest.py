"""Reproducibility digests over a scenario run's telemetry.

A :class:`MetricsDigest` reduces everything a run observed -- event counts,
switch/fast-path counters, handover and migration traces, per-workload
latency samples, notification tallies -- to one SHA-256 plus one hash per
section.  Two runs of the same spec with the same seed must produce the same
digest; any nondeterminism (a global ``random`` call, dict-order dependence,
wall-clock leakage) changes at least one section hash, and
:meth:`MetricsDigest.diff` names the sections that moved so the culprit is
easy to localise.

The canonical encoding sorts every mapping and renders floats with ``%.12g``
so the digest is stable across processes while remaining sensitive to any
behavioural change; a mapping with two keys that print alike (``1`` and
``"1"``) is rejected rather than collapsed.  A mapping-valued section (a
``dict`` or any other :class:`~collections.abc.Mapping`) is hashed entry by
entry: each first-level entry is read, canonicalized and JSON-encoded
**once**, and that encoding feeds both the entry's own hash and the section's
running hash, so no canonical copy or JSON string of a whole section is ever
held (the section hash is still that of the whole section's canonical JSON).
A section that builds its entries on read is therefore never held whole.

Values derived from process-global counters (assignment ids, container
names...) must never be fed in: they differ between two runs in the same
process even when behaviour is identical.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List


def canonicalize(value: Any) -> Any:
    """Make a telemetry tree deterministic and JSON-serialisable."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        canonical = {}
        for key in sorted(value, key=str):
            text = str(key)
            if text in canonical:
                raise _key_collision(value)
            canonical[text] = canonicalize(value[key])
        return canonical
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} value {value!r} for digesting")


def _key_collision(mapping: Mapping) -> TypeError:
    """The error for a mapping two of whose keys print alike (``1`` and ``"1"``):
    the canonical form would keep one of them and silently drop the other."""
    by_text: Dict[str, List[Any]] = {}
    for key in mapping:
        by_text.setdefault(str(key), []).append(key)
    first, second = next(keys for keys in by_text.values() if len(keys) > 1)[:2]
    return TypeError(
        f"cannot canonicalize keys {first!r} and {second!r} for digesting: "
        f"both print as {str(first)!r}"
    )


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``, built once.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: How ``_JSON`` renders a string (and so a mapping key): ASCII-escaped.
_json_string = json.encoder.encode_basestring_ascii


def _sha256(payload: Any) -> str:
    return hashlib.sha256(_JSON.encode(payload).encode("utf-8")).hexdigest()


def _dict_section(name: str, tree: Mapping, subsections: Dict[str, str]) -> str:
    """``_sha256(canonicalize(dict(tree)))``, streamed: each entry's encoding feeds its
    own hash (``subsections["name/key"]``) and, framed as ``{"key":value,...}``,
    the section's running hash."""
    section = hashlib.sha256(b"{")
    separator = ""
    previous = None
    for key in sorted(tree, key=str):
        text = str(key)
        if text == previous:  # sorted by text, so a collision is adjacent
            raise _key_collision(tree)
        previous = text
        encoded = _JSON.encode(canonicalize(tree[key]))
        subsections[f"{name}/{text}"] = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
        section.update(f"{separator}{_json_string(text)}:{encoded}".encode("utf-8"))
        separator = ","
    section.update(b"}")
    return section.hexdigest()


@dataclass(frozen=True)
class MetricsDigest:
    """The reproducibility fingerprint of one scenario run."""

    hexdigest: str
    components: Dict[str, str] = field(default_factory=dict)
    #: One hash per first-level key of every mapping-valued section
    #: (``"stations/station-3"``), so :meth:`diff` can localise a mismatch
    #: below the section level.  Derived data: excluded from equality (the
    #: overall hash is still computed from the section hashes alone).
    subsections: Dict[str, str] = field(default_factory=dict, compare=False)
    #: Optional station -> ``region-r/shard-s`` labels supplied by the run's
    #: manager.  Never hashed and never compared -- two digests of the same
    #: behaviour under different region/shard counts are equal even though
    #: their provenance differs; diff output uses *both* sides' labels.
    provenance: Dict[str, str] = field(default_factory=dict, compare=False)

    @classmethod
    def compute(
        cls, sections: Dict[str, Any], provenance: Dict[str, str] = None
    ) -> "MetricsDigest":
        """Digest a ``{section_name: telemetry_tree}`` mapping."""
        components: Dict[str, str] = {}
        subsections: Dict[str, str] = {}
        for name, tree in sections.items():
            if isinstance(tree, Mapping):
                components[name] = _dict_section(name, tree, subsections)
            else:
                components[name] = _sha256(canonicalize(tree))
        overall = _sha256({name: components[name] for name in sorted(components)})
        return cls(
            hexdigest=overall,
            components=components,
            subsections=subsections,
            provenance=dict(provenance or {}),
        )

    def diff(self, other: "MetricsDigest") -> List[str]:
        """The finest-grained keys whose hashes differ (for loud test
        failures): ``"section/key"`` when the mismatch localises below a
        mapping-valued section, the bare section name otherwise.  Keys that
        name a station carry its region/shard provenance --
        ``"stations/station-3 [region-1/shard-0]"`` -- so a cross-region
        digest mismatch points at the owning shard, not just the aggregate.
        """
        out: List[str] = []
        for name in sorted(set(self.components) | set(other.components)):
            if self.components.get(name) == other.components.get(name):
                continue
            prefix = f"{name}/"
            keys = sorted(
                {key for key in self.subsections if key.startswith(prefix)}
                | {key for key in other.subsections if key.startswith(prefix)}
            )
            fine = [
                key for key in keys if self.subsections.get(key) != other.subsections.get(key)
            ]
            if not fine:
                out.append(name)
                continue
            for key in fine:
                leaf = key[len(prefix):]
                label = self.provenance.get(leaf) or other.provenance.get(leaf)
                out.append(f"{key} [{label}]" if label else key)
        return out

    @property
    def short(self) -> str:
        return self.hexdigest[:12]

    def __str__(self) -> str:
        return self.hexdigest

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MetricsDigest({self.short}..., {len(self.components)} sections)"
