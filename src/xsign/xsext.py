"""Cross-sign motivation extension: encoding, decoding, and operational
lints.

The payload is canonical UTF-8 JSON (sorted keys, no insignificant
whitespace) carried under a fixed private extension identifier, which makes
round-trips byte-exact. Unknown motivation kinds survive decode/re-encode
unchanged; a payload the codec could not re-encode is rejected.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timedelta
from typing import TYPE_CHECKING, Mapping

from .timeutil import format_rfc3339, parse_rfc3339

if TYPE_CHECKING:
    from .analysis import Run
    from .xsdetect import XSCertGroup

# Private arc; structural tools treat the payload as opaque bytes.
XS_EXTENSION_OID = "1.3.6.1.4.1.55555.1.1"


class MalformedExtension(ValueError):
    pass


class Motivation:
    """A known motivation kind, tagged `kind` in JSON. Each field is
    declared `str` (a non-blank JSON string) or `tuple[str, ...]` (a
    non-empty JSON list of strings), and is checked on construction."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str":  # a string, as annotations are postponed
                ok = isinstance(value, str) and value.strip()
            else:
                ok = (isinstance(value, tuple) and value
                      and all(isinstance(v, str) for v in value))
            if not ok:
                raise MalformedExtension(
                    f"{self.kind} motivation requires {f.name} as a non-empty "
                    f"{'string' if f.type == 'str' else 'list of strings'}")


@dataclass(frozen=True)
class Bootstrapping(Motivation):
    """Motivation: a new root is trusted through an established one."""

    bootstrapped_cert: str
    target_stores: tuple[str, ...]
    inclusion_request_ref: str
    kind = "bootstrapping"


@dataclass(frozen=True)
class ExpandingTrust(Motivation):
    """Motivation: reach stores the certificate is not yet trusted in."""

    target_stores: tuple[str, ...]
    kind = "expanding_trust"


@dataclass(frozen=True)
class FallBack(Motivation):
    """Motivation: an alternative path should another fail."""

    target_stores: tuple[str, ...]
    fallback_for: str
    kind = "fall_back"


@dataclass(frozen=True)
class MultipleAlgorithms(Motivation):
    """Motivation: paths with different signature algorithms."""

    algorithm_set: tuple[str, ...]
    path_certs: tuple[str, ...]
    kind = "multiple_algorithms"


_KINDS = {cls.kind: cls for cls in (Bootstrapping, ExpandingTrust, FallBack,
                                    MultipleAlgorithms)}


@dataclass(frozen=True)
class OpaqueMotivation:
    """Unknown future variant; payload is preserved verbatim on re-encode."""

    payload_json: str

    @property
    def kind(self) -> str:
        return json.loads(self.payload_json)["kind"]


@dataclass(frozen=True)
class LogTimestamp:
    """A log's timestamp of a member's issuance."""

    log_id: str
    timestamp: datetime


@dataclass(frozen=True)
class XsExtension:
    """A cross-sign extension: its motivations and issuance timestamps."""

    motivations: tuple[Motivation | OpaqueMotivation, ...]
    issuance_timestamps: tuple[LogTimestamp, ...] = ()

    def __post_init__(self):
        if not self.motivations:
            raise MalformedExtension("extension requires at least one motivation")

    def log_ids(self) -> frozenset[str]:
        return frozenset(ts.log_id for ts in self.issuance_timestamps)


def _motivation_to_obj(m: Motivation | OpaqueMotivation) -> dict:
    if isinstance(m, OpaqueMotivation):
        return json.loads(m.payload_json)
    return {"kind": m.kind, **asdict(m)}


def _motivation_from_obj(obj) -> Motivation | OpaqueMotivation:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str):
        raise MalformedExtension("motivation requires a string 'kind' tag")
    cls = _KINDS.get(kind)
    if cls is None:
        return OpaqueMotivation(_canonical(obj))
    names = {f.name for f in fields(cls)}
    if set(obj) != {"kind", *names}:
        raise MalformedExtension(
            f"{kind} motivation requires exactly the keys {sorted(names)}")
    return cls(**{name: tuple(obj[name]) if isinstance(obj[name], list)
                  else obj[name] for name in names})


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def encode_xs_extension(ext: XsExtension) -> bytes:
    doc = {
        "motivations": [_motivation_to_obj(m) for m in ext.motivations],
        "issuance_timestamps": [
            {"log_id": ts.log_id, "timestamp": format_rfc3339(ts.timestamp)}
            for ts in ext.issuance_timestamps
        ],
    }
    return _canonical(doc).encode("utf-8")


def decode_xs_extension(data: bytes) -> XsExtension:
    try:
        doc = json.loads(data.decode("utf-8"))
        _canonical(doc).encode("utf-8")  # fails on a lone surrogate
    except ValueError as exc:  # also UnicodeError and JSONDecodeError
        raise MalformedExtension(f"undecodable extension payload: {exc}") from exc
    if not (isinstance(doc, dict)
            and set(doc) == {"motivations", "issuance_timestamps"}):
        raise MalformedExtension("extension payload must be a JSON object "
                                 "of motivations and issuance_timestamps")
    motivations, stamps = doc["motivations"], doc["issuance_timestamps"]
    if not (isinstance(motivations, list) and isinstance(stamps, list)):
        raise MalformedExtension(
            "motivations and issuance_timestamps must be lists")
    timestamps = []
    for ts in stamps:
        try:
            if not (isinstance(ts, dict) and set(ts) == {"log_id", "timestamp"}
                    and isinstance(ts["log_id"], str)):
                raise TypeError("a timestamp is {log_id: string, timestamp}")
            when = parse_rfc3339(ts["timestamp"])
            if format_rfc3339(when) != ts["timestamp"]:
                raise ValueError("timestamp must read YYYY-MM-DDTHH:MM:SSZ")
            timestamps.append(LogTimestamp(ts["log_id"], when))
        except (TypeError, ValueError) as exc:
            raise MalformedExtension(f"bad issuance timestamp: {ts!r}") from exc
    return XsExtension(
        motivations=tuple(_motivation_from_obj(m) for m in motivations),
        issuance_timestamps=tuple(timestamps))


# --- linting ------------------------------------------------------------------

VERDICTS = {
    "V1": "ValidityTooLong",
    "V2": "MissingExtension",
    "V3": "BootstrapComplete",
    "V4": "RedundantExpansion",
    "V5": "AlgorithmPathImpure",
    "V6": "LogSplit",
    "V7": "UnexplainedInconsistency",
}


@dataclass(frozen=True)
class LintVerdict:
    """One lint verdict about one member of a cross-sign group."""

    code: str
    member: str
    detail: str

    @property
    def name(self) -> str:
        return VERDICTS[self.code]

    def to_json(self) -> dict:
        return {"verdict": f"{self.code}_{self.name}", "member": self.member,
                "detail": self.detail}


def lint_cross_sign(group: XSCertGroup, run: Run,
                    coverage: Mapping[str, set[str]],
                    inconsistent: bool) -> list[LintVerdict]:
    """Operational lints V1..V7 for one cross-sign group, at the run's
    `max_validity_days`.

    The run's index holds the group's members and resolves the
    certificates that extensions name (those references may point outside
    the group or the corpus). `coverage` maps member fingerprints to the
    store ids they provide valid paths to. `inconsistent` says whether the
    group has a revocation inconsistency finding; V7 reports it unless the
    run's explanations, group keys (subject|spki) or member fingerprints,
    name the group. The reference instant is the latest store snapshot, or
    the latest member issuance when no store has a snapshot."""
    verdicts: list[LintVerdict] = []
    index, exts = run.index, run.extensions
    members = group.chronological(index)
    at = run.lint_at
    if at is None:
        at = max(m.not_before for m in members)
    store_map = {s.store_id: s for s in run.stores}
    qualified = {fp for p in group.qualifying_pairs for fp in (p.a, p.b)}

    max_validity_days = run.options.max_validity_days
    limit = timedelta(days=max_validity_days)
    for member in members:
        if member.not_after - member.not_before > limit:
            days = (member.not_after - member.not_before).days
            verdicts.append(LintVerdict(
                "V1", member.fingerprint,
                f"validity {days}d exceeds limit {max_validity_days}d"))

    # The "original" members need no motivation extension: the self-signed
    # ones and the group's native member.
    exempt = {m.fingerprint for m in members if m.self_signed}
    exempt.add(group.native(index, run.operator_map).fingerprint)
    for member in members:
        if (member.fingerprint in qualified
                and member.fingerprint not in exempt
                and member.fingerprint not in exts):
            verdicts.append(LintVerdict(
                "V2", member.fingerprint,
                "cross-sign member lacks a motivation extension"))

    for position, member in enumerate(members):
        ext = exts.get(member.fingerprint)
        if ext is None:
            continue
        for m in ext.motivations:
            if isinstance(m, Bootstrapping):
                missing = [sid for sid in m.target_stores
                           if sid not in store_map
                           or m.bootstrapped_cert not in store_map[sid].active_roots(at)]
                if not missing:
                    verdicts.append(LintVerdict(
                        "V3", member.fingerprint,
                        f"bootstrapped cert {m.bootstrapped_cert[:16]} now in all "
                        f"target stores; cross-sign must not be renewed"))
            elif isinstance(m, ExpandingTrust):
                for sid in m.target_stores:
                    for other in members[:position]:
                        other_ext = exts.get(other.fingerprint)
                        is_fallback = other_ext is not None and any(
                            isinstance(om, FallBack) for om in other_ext.motivations)
                        if is_fallback:
                            continue
                        if sid in coverage.get(other.fingerprint, set()):
                            verdicts.append(LintVerdict(
                                "V4", member.fingerprint,
                                f"store {sid} already covered by "
                                f"{other.fingerprint[:16]}"))
                            break
            elif isinstance(m, MultipleAlgorithms):
                chain = [member.fingerprint, *m.path_certs]
                outside = sorted({index.get(fp).signature_algorithm
                                  for fp in chain if fp in index}
                                 - set(m.algorithm_set))
                if outside:
                    verdicts.append(LintVerdict(
                        "V5", member.fingerprint,
                        f"declared path uses algorithms outside the set: "
                        f"{', '.join(outside)}"))

    with_logs = [(m, exts[m.fingerprint].log_ids()) for m in members
                 if m.fingerprint in exts and exts[m.fingerprint].log_ids()]
    if len(with_logs) >= 2:
        common = frozenset.intersection(*(logs for _, logs in with_logs))
        if not common:
            verdicts.append(LintVerdict(
                "V6", with_logs[-1][0].fingerprint,
                "group members report to disjoint CT logs"))

    if inconsistent:
        keys = run.explanations
        group_key = f"{group.subject}|{group.spki_digest}"
        explained = group_key in keys or any(fp in keys for fp in group.members)
        if not explained:
            verdicts.append(LintVerdict(
                "V7", members[-1].fingerprint,
                "revocation inconsistency without a published explanation"))

    verdicts.sort(key=lambda v: (v.code, v.member, v.detail))
    return verdicts
