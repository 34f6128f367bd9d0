"""Distinguished-name normalization.

Names compare case-insensitively with whitespace collapsed, preserving the
order of relative components (RDNs). Attributes inside one RDN are a set.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable

# Attribute short names <-> dotted OIDs for the types that occur in practice.
_SHORT_TO_OID = {
    "cn": "2.5.4.3",
    "serialnumber": "2.5.4.5",
    "c": "2.5.4.6",
    "l": "2.5.4.7",
    "st": "2.5.4.8",
    "street": "2.5.4.9",
    "o": "2.5.4.10",
    "ou": "2.5.4.11",
    "uid": "0.9.2342.19200300.100.1.1",
    "dc": "0.9.2342.19200300.100.1.25",
    "email": "1.2.840.113549.1.9.1",
}
_OID_TO_SHORT = {oid: short for short, oid in _SHORT_TO_OID.items()}
# The OIDs of the spellings that names are written in: the canonical short
# names, their upper case, and the dotted OIDs.
_TYPE_OIDS = {spelling: oid for short, oid in _SHORT_TO_OID.items()
              for spelling in (short, short.upper(), oid)}

_OID_RE = re.compile(r"^\d+(\.\d+)+$")


def normalize_value(value: str) -> str:
    """Trim, collapse inner whitespace runs to one space, case-fold.
    `str.split()` splits on the code points that the regex `\\s` matches."""
    return " ".join(value.split()).casefold()


def attr_oid(attr_type: str) -> str:
    """Resolve an attribute type (short name or dotted OID) to a dotted OID."""
    t = attr_type.strip()
    oid = _TYPE_OIDS.get(t)
    if oid is not None:
        return oid
    if _OID_RE.match(t):
        return t
    short = t.casefold()
    if short in _SHORT_TO_OID:
        return _SHORT_TO_OID[short]
    # Unknown textual type: keep the case-folded token as its own identifier.
    return short


@dataclass(frozen=True)
class NormalizedName:
    """Ordered sequence of RDNs, each a set of (attribute OID, value) pairs."""

    rdns: tuple[frozenset[tuple[str, str]], ...]

    # Names key the index and the groupings: each hashes its RDNs once.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.rdns))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_empty(self) -> bool:
        return not self.rdns

    def __str__(self) -> str:
        return format_name(self)

    def startswith(self, prefix: "NormalizedName") -> bool:
        """True when `prefix` is a leading subsequence of this name
        (X.501 subtree semantics for directory names)."""
        if len(prefix.rdns) > len(self.rdns):
            return False
        return self.rdns[: len(prefix.rdns)] == prefix.rdns

    def attr_values(self, attr_type: str) -> list[str]:
        oid = attr_oid(attr_type)
        return [v for rdn in self.rdns for (o, v) in sorted(rdn) if o == oid]


EMPTY_NAME = NormalizedName(())


def normalize_name(raw) -> NormalizedName:
    """Normalize a distinguished name.

    Accepts a NormalizedName (returned as-is: normalization is idempotent),
    a DN string like 'CN=Example CA, O=Example', or an iterable of RDNs where
    each RDN is an iterable of (attribute-type, value) pairs.
    """
    if isinstance(raw, NormalizedName):
        return raw
    if isinstance(raw, str):
        return _parse_dn_string(raw)
    return from_rdns(raw)


def from_rdns(rdns: Iterable[Iterable[tuple[str, str]]]) -> NormalizedName:
    out = []
    for rdn in rdns:
        pairs = frozenset((attr_oid(t), normalize_value(v)) for t, v in rdn)
        if pairs:
            out.append(pairs)
    return NormalizedName(tuple(out))


def _split_unescaped(text: str, sep: str) -> list[str]:
    if "\\" not in text:
        return text.split(sep)
    return _split_escaped(text, sep)


def _split_escaped(text: str, sep: str) -> list[str]:
    """Split on `sep` except where a backslash escapes it; escapes are
    kept in the parts."""
    parts, buf, i = [], [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            buf.append(text[i: i + 2])
            i += 2
            continue
        if ch == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return parts


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return re.sub(r"\\(.)", r"\1", text)


# Names are immutable, so records parsed from the same DN text share one.
@functools.lru_cache(maxsize=1 << 16)
def _parse_dn_string(dn: str) -> NormalizedName:
    dn = dn.strip()
    if not dn:
        return EMPTY_NAME
    rdns = []
    for rdn_text in _split_unescaped(dn, ","):
        if not rdn_text.strip():
            continue
        pairs = []
        for ava in _split_unescaped(rdn_text, "+"):
            if "=" not in ava:
                raise ValueError(f"malformed name component: {ava!r}")
            attr_type, _, value = ava.partition("=")
            pairs.append((_unescape(attr_type.strip()), _unescape(value)))
        rdns.append(pairs)
    return from_rdns(rdns)


def _escape(value: str) -> str:
    return re.sub(r"([,+=\\])", r"\\\1", value)


def format_name(name: NormalizedName) -> str:
    """Canonical display form; parsing it back yields an equal name."""
    rdn_texts = []
    for rdn in name.rdns:
        avas = []
        for oid, value in sorted(rdn):
            attr = _OID_TO_SHORT.get(oid, oid)
            avas.append(f"{attr}={_escape(value)}")
        rdn_texts.append("+".join(avas))
    return ", ".join(rdn_texts)
