"""On-disk analysis workspace: content-addressed certificate records,
store/revocation/operator/view configs, and report caching keyed by an
input hash."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

# Model code is named through its module, never imported by name, so that a
# command served from the cache does not run it (see `cli`).
from . import certmodel, pathengine, revocation, truststore, xsext

if TYPE_CHECKING:
    from .certmodel import CertRecord
    from .revocation import RevocationRecord, RevocationView
    from .truststore import OperatorMap, RootStoreTimeline
    from .xsext import XsExtension


class SchemaError(ValueError):
    def __init__(self, message: str, path: Optional[str] = None,
                 line: Optional[int] = None):
        super().__init__(message)
        self.path = path
        self.line = line

    def to_json(self) -> dict:
        out = {"error": "schema", "detail": str(self)}
        if self.path is not None:
            out["path"] = self.path
        if self.line is not None:
            out["line"] = self.line
        return out


# Under certs/; the name ends in neither `.json` nor `.der`, so it is no
# certificate file.
SIGNATURES = "signatures.jsonl"

# The input suffixes that name their own format; `ingest --format` decides
# only for the others.
_SUFFIX_FORMATS = {".json": "json", ".jsonl": "jsonl", ".pem": "pem",
                   ".der": "der"}

_CONFIG_FILES = {
    "stores": "stores.json",
    "operators": "operators.json",
    "views": "views.json",
    "revocations": "revocations.jsonl",
    "extensions": "extensions.jsonl",
    "explanations": "explanations.jsonl",
}


class UsageError(Exception):
    """A path given on the command line that cannot be read or written."""

    def __init__(self, message: str, path: str):
        super().__init__(message)
        self.path = path

    def to_json(self) -> dict:
        return {"error": "usage", "path": self.path, "detail": str(self)}


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Replace `path` with the concatenated `chunks`, whole or not at all.

    The bytes go to a sibling temp file, whose name ends in neither `.json`
    nor `.der`, and `os.replace` then renames it over `path`. A process
    killed mid-write leaves `path` as it was. There is no fsync, so this
    does not cover power loss."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_file(doc) -> list[bytes]:
    return [(json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()]


# Ingest checks each extension and explanation line with the function that
# loads it, so that a line the loader would reject never gets in.
def _extension_entry(obj: dict) -> tuple[str, XsExtension]:
    payload = json.dumps(obj["extension"], sort_keys=True,
                         separators=(",", ":"), ensure_ascii=False).encode()
    return obj["member"], xsext.decode_xs_extension(payload)


def _explanation(obj: dict) -> str:
    explained = obj["explained"]
    if not isinstance(explained, str):
        raise ValueError("explained must be a string")
    return explained


def _views(doc: dict) -> list[RevocationView]:
    views = [revocation.RevocationView.from_json(v) for v in doc["views"]]
    revocation.check_view_ids(views)
    return views


def _stores(doc: dict) -> list[RootStoreTimeline]:
    stores = [truststore.RootStoreTimeline.from_json(s) for s in doc["stores"]]
    truststore.check_store_ids(stores)
    return stores


def _signature(obj: dict) -> tuple[tuple[str, str], bool]:
    return (obj["child"], obj["issuer"]), obj["verified"] is True


def _ingested_line(obj: dict) -> tuple[str, object]:
    """Where an ingested JSONL line goes: a certificate record to
    `records`, or the line itself to the config file it was checked for."""
    if "selector" in obj:
        revocation.RevocationRecord.from_json(obj)
        return "revocations", obj
    if "extension" in obj:
        _extension_entry(obj)
        return "extensions", obj
    if "explained" in obj:
        _explanation(obj)
        return "explanations", obj
    if "fingerprint" in obj:
        return "records", certmodel.record_from_json(obj)
    raise ValueError("unrecognized record shape")


def _parse_jsonl(data: bytes, path: str, parse) -> list:
    """`parse` applied to each non-blank line of the JSONL bytes `data`,
    read from `path`. Lines end at LF, CR or CRLF. A line that is not UTF-8
    JSON, or that `parse` cannot read, is a SchemaError naming the file and
    the line."""
    out = []
    for lineno, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SchemaError(f"invalid JSON: {exc}", path=path,
                              line=lineno) from exc
        try:
            out.append(parse(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad record: {exc}", path=path,
                              line=lineno) from exc
    return out


def _read_file(path: str) -> bytes:
    """The bytes of the file at `path`, read with `os.read`. Without a file
    object, reading the record files of a workspace takes a fifth less
    time than with an unbuffered `open`."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _read_jsonl(path: Path, parse) -> Optional[list]:
    """`_parse_jsonl` over the file at `path`, or None when there is no such
    file."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    return _parse_jsonl(data, str(path), parse)


class Workspace:
    def __init__(self, root: Path):
        self.root = Path(root)
        self.certs_dir = self.root / "certs"
        self.config_dir = self.root / "config"
        self.reports_dir = self.root / "reports"
        try:
            for d in (self.certs_dir, self.config_dir, self.reports_dir):
                d.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise SchemaError(f"not a workspace directory: {exc.strerror}",
                              path=str(root)) from exc
        self._inputs = None  # the digest of certs/ and config/, once taken
        # Whether the signature file is removed and due to be rewritten: an
        # ingest added raw bytes, or found them without the file.
        self._resign = False

    @classmethod
    def existing(cls, root: Path) -> Workspace:
        """The workspace at `root`, which `ingest` made. A directory without
        `certs/` is none: that is a schema error, and nothing is created."""
        if not (Path(root) / "certs").is_dir():
            raise SchemaError("no workspace here; `ingest` creates one",
                              path=str(root))
        return cls(root)

    def _write_input(self, path: Path, chunks: Iterable[bytes]):
        """Write a file under certs/ or config/; the inputs have changed."""
        self._inputs = None
        _write_atomic(path, chunks)

    # -- certificates --

    def add_record(self, record: CertRecord) -> bool:
        """Content-addressed by fingerprint; re-ingestion is idempotent.
        Raw bytes are attached even when the metadata record already
        exists, and the record's JSON is then rewritten from them, so that
        a record with a `.der` has that DER's parse as its JSON. The JSON
        is written first: a process killed between the two leaves a record
        without raw bytes. A new `.der` makes the signature file stale; it
        is removed first and rewritten at the end of `ingest_paths`."""
        der = self.certs_dir / f"{record.fingerprint}.der"
        new = not (self.certs_dir / f"{record.fingerprint}.json").exists()
        attach = record.raw is not None and (new or not der.exists())
        if attach:
            self._drop_signatures()
        if new or attach:
            self._write_json(record)
        if attach:
            self._write_input(der, [record.raw])
        return new

    def _write_json(self, record: CertRecord):
        line = json.dumps(certmodel.record_to_json(record), sort_keys=True)
        self._write_input(self.certs_dir / f"{record.fingerprint}.json",
                          [(line + "\n").encode()])

    def load_records(self) -> list[CertRecord]:
        """Every ingested record, in file-name order, built from its
        `.json`; a `.der` beside it is read as bytes and kept for signature
        checks. A record whose fingerprint is not its file's name, or a
        `.der` whose SHA-256 is not, is a schema error. When any record has
        raw bytes, `verify_signature`'s memo is seeded from the signature
        file, and a workspace without one is a schema error: an older
        xsign or an interrupted ingest wrote it."""
        records = self._read_records()
        if any(r.raw is not None for r in records):
            table = self._read_signatures()
            if table is None:
                raise SchemaError(
                    f"raw certificates without certs/{SIGNATURES}: written "
                    "by an older xsign or an interrupted ingest; re-run "
                    "`xsign ingest --ws` on it", path=str(self.root))
            certmodel.remember_signatures(table)
        return records

    def _read_records(self) -> list[CertRecord]:
        """The records of `load_records`, without the signature file. Each
        `.json` is decoded as UTF-8 (a BOM or another encoding is a schema
        error). Paths are plain strings: pathlib would intern every file
        name."""
        certs_dir = os.fspath(self.certs_dir)
        names = set(os.listdir(certs_dir))
        records = []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            fingerprint = name[:-len(".json")]
            raw = None
            if fingerprint + ".der" in names:
                der = os.path.join(certs_dir, fingerprint + ".der")
                raw = _read_file(der)
                digest = hashlib.sha256(raw).hexdigest()
                if digest != fingerprint:
                    raise SchemaError(
                        f"certificate file names {fingerprint}, but its DER "
                        f"has digest {digest}", path=der)
            path = os.path.join(certs_dir, name)
            try:
                text = _read_file(path).decode("utf-8")
                record = certmodel.record_from_json(json.loads(text), raw)
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad certificate: {exc}",
                                  path=path) from exc
            if record.fingerprint != fingerprint:
                raise SchemaError(
                    f"certificate file names {fingerprint}, but its record "
                    f"has fingerprint {record.fingerprint}", path=path)
            records.append(record)
        return records

    def _read_signatures(self) -> Optional[dict[tuple[str, str], bool]]:
        """The recorded signature results, keyed (child, issuer), or None
        when there is no signature file."""
        entries = _read_jsonl(self.certs_dir / SIGNATURES, _signature)
        return None if entries is None else dict(entries)

    def _drop_signatures(self):
        """Remove the signature file before a `.der` is added, seeding
        `verify_signature`'s memo with its answers for the rewrite."""
        if not self._resign:
            certmodel.remember_signatures(self._read_signatures() or {})
            self._resign = True
            self._inputs = None
            (self.certs_dir / SIGNATURES).unlink(missing_ok=True)

    def _write_signatures(self):
        """Record `verify_signature`'s answer for every issuer candidate of
        every record with raw bytes, children and candidates in fingerprint
        order. The answers recorded before are in its memo."""
        index = pathengine.build_index(
            r for r in self._read_records() if r.raw is not None)
        self._write_input(self.certs_dir / SIGNATURES, (
            (json.dumps({"child": child.fingerprint,
                         "issuer": issuer.fingerprint,
                         "verified": certmodel.verify_signature(child, issuer)},
                        sort_keys=True) + "\n").encode()
            for child in index.sorted_records()
            for issuer in index.issuers_of(child)))
        self._resign = False

    def _upgrade(self):
        """Bring a workspace with raw certificates but no signature file up
        to date: rewrite each record with raw bytes from its `.der`, then
        (at the end of `ingest_paths`) the signature file."""
        names = os.listdir(self.certs_dir)
        if SIGNATURES in names or not any(n.endswith(".der") for n in names):
            return
        self._resign = True
        for record in self._read_records():
            if record.raw is not None:
                self._write_json(certmodel.parse_certificate(record.raw))

    # -- ingestion --

    def ingest_paths(self, paths: Iterable[Path], fmt: str) -> dict:
        """Ingest every file under `paths`. A workspace that an older xsign
        or an interrupted ingest left without its signature file is brought
        up to date first, with or without paths."""
        summary = {"added": 0, "duplicates": 0, "revocations": 0, "stores": 0,
                   "operators": 0, "views": 0, "extensions": 0,
                   "explanations": 0}
        self._upgrade()
        try:
            for path in paths:
                path = Path(path)
                if path.is_dir():
                    children = sorted(p for p in path.rglob("*")
                                      if p.is_file())
                    self._ingest_files(children, fmt, summary)
                else:
                    self._ingest_files([path], fmt, summary)
        finally:
            # Also when an input is rejected: the certificates ingested
            # before it stay usable.
            if self._resign:
                self._write_signatures()
        return summary

    def _ingest_files(self, files: list[Path], fmt: str, summary: dict):
        """Ingest each file as its suffix says (`_SUFFIX_FORMATS`), or as
        `fmt` when the suffix is none of those. A file that cannot be read
        is a UsageError naming it."""
        for path in files:
            kind = _SUFFIX_FORMATS.get(path.suffix, fmt)
            if kind not in _SUFFIX_FORMATS.values():
                raise SchemaError(f"cannot ingest {path.name} as {fmt}",
                                  path=str(path))
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise UsageError(f"cannot read the input: {exc.strerror}",
                                 str(path)) from exc
            if kind == "json":
                self._ingest_config_json(path, data, summary)
            elif kind == "jsonl":
                self._ingest_jsonl(path, data, summary)
            else:
                try:
                    records = (certmodel.load_pem_bundle(data) if kind == "pem"
                               else [certmodel.parse_certificate(data)])
                except certmodel.MalformedInput as exc:
                    raise SchemaError(str(exc), path=str(path)) from exc
                if not records:
                    raise SchemaError("undecodable certificate: no CERTIFICATE"
                                      " block in the PEM input", path=str(path))
                for record in records:
                    self._count_add(record, summary)

    def _count_add(self, record: CertRecord, summary: dict):
        if self.add_record(record):
            summary["added"] += 1
        else:
            summary["duplicates"] += 1

    def _ingest_config_json(self, path: Path, data: bytes, summary: dict):
        try:
            doc = json.loads(data.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SchemaError(f"invalid JSON: {exc}", path=str(path)) from exc
        if not isinstance(doc, dict):
            raise SchemaError("top-level JSON must be an object", path=str(path))
        try:
            if "stores" in doc or "store_id" in doc:
                stores = _stores(doc if "stores" in doc else {"stores": [doc]})
                existing = {s.store_id: s for s in self.load_stores()}
                existing.update((s.store_id, s) for s in stores)
                payload = {"stores": [existing[k].to_json()
                                      for k in sorted(existing)]}
                self._write_input(self.config_dir / _CONFIG_FILES["stores"],
                                  _json_file(payload))
                summary["stores"] += len(stores)
            elif "operators" in doc or "ownership_events" in doc:
                truststore.OperatorMap.from_json(doc)
                self._write_input(self.config_dir / _CONFIG_FILES["operators"],
                                  _json_file(doc))
                summary["operators"] += 1
            elif "views" in doc:
                views = _views(doc)
                self._write_input(
                    self.config_dir / _CONFIG_FILES["views"],
                    _json_file({"views": [v.to_json() for v in views]}))
                summary["views"] += len(views)
            elif "scenario_id" in doc:
                pass  # bundle metadata, nothing to ingest
            else:
                raise SchemaError(f"unrecognized config document {path.name}",
                                  path=str(path))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"bad config: {exc}", path=str(path)) from exc

    def _ingest_jsonl(self, path: Path, data: bytes, summary: dict):
        """Check every line first, so that a file with a bad line adds
        nothing."""
        by_kind = {"records": [], "revocations": [], "extensions": [],
                   "explanations": []}
        for kind, value in _parse_jsonl(data, str(path), _ingested_line):
            by_kind[kind].append(value)
        for record in by_kind.pop("records"):
            self._count_add(record, summary)
        for kind, lines in by_kind.items():
            if lines:
                self._append_jsonl(kind, lines)
                summary[kind] += len(lines)

    def _append_jsonl(self, kind: str, lines: list[dict]):
        """Add the lines not already present, rewriting the whole file so
        that an interrupted write leaves the previous file intact."""
        path = self.config_dir / _CONFIG_FILES[kind]
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        seen = {ln for ln in old.splitlines() if ln}
        parts = [old]
        for obj in lines:
            text = json.dumps(obj, sort_keys=True)
            if text not in seen:
                parts.append(text + "\n")
                seen.add(text)
        self._write_input(path, (part.encode() for part in parts))

    # -- config loading --

    def _load_config(self, kind: str, parse, default):
        """`parse` applied to the config document of `kind`, or `default`
        when there is none. A document `parse` cannot read (edited by hand,
        or ingested by an earlier version with fewer checks) is a
        SchemaError naming the file."""
        path = self.config_dir / _CONFIG_FILES[kind]
        if not path.exists():
            return default
        try:
            return parse(json.loads(path.read_text(encoding="utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad config: {exc}", path=str(path)) from exc

    def _load_config_lines(self, kind: str, parse) -> list:
        """`parse` applied to each line of the JSONL config of `kind`; a line
        it cannot read is a SchemaError naming the file and the line."""
        return _read_jsonl(self.config_dir / _CONFIG_FILES[kind], parse) or []

    def load_stores(self) -> list[RootStoreTimeline]:
        return self._load_config("stores", _stores, [])

    def load_revocations(self) -> list[RevocationRecord]:
        return self._load_config_lines("revocations",
                                       revocation.RevocationRecord.from_json)

    def load_operator_map(self) -> Optional[OperatorMap]:
        return self._load_config("operators", truststore.OperatorMap.from_json,
                                 None)

    def load_views(self) -> list[RevocationView]:
        return self._load_config("views", _views, [])

    def load_extensions(self) -> dict[str, XsExtension]:
        return dict(self._load_config_lines("extensions", _extension_entry))

    def load_explanations(self) -> list[str]:
        return self._load_config_lines("explanations", _explanation)

    # -- caching --

    def input_hash(self, options: dict) -> str:
        """The digest a stamp entry records: SHA-256 over the certificate
        file names, every config file, then `options`. The files are
        digested once per Workspace object (a command makes one, and its
        own writes to certs/ and config/ start over); each call adds its
        options to a copy of that digest."""
        if self._inputs is None:
            digest = hashlib.sha256()
            for name in sorted(os.listdir(self.certs_dir)):
                digest.update(name.encode())
            for name in sorted(_CONFIG_FILES.values()):
                path = self.config_dir / name
                if path.exists():
                    digest.update(name.encode())
                    digest.update(path.read_bytes())
            self._inputs = digest
        digest = self._inputs.copy()
        digest.update(json.dumps(options, sort_keys=True).encode())
        return digest.hexdigest()

    def _stamp_entries(self) -> dict:
        """The recorded stamp entries, one per report set (`analysis`,
        `lint`). A stamp that cannot be read, or one in the older
        single-entry shape, has none."""
        try:
            recorded = json.loads((self.reports_dir / "stamp.json")
                                  .read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):  # also not UTF-8
            return {}
        if not isinstance(recorded, dict):
            return {}
        return {name: entry for name, entry in recorded.items()
                if isinstance(entry, dict) and "input_hash" in entry}

    def current_stamp(self, entry: str, options: dict,
                      names: Iterable[str]) -> Optional[dict]:
        """The stamp entry `entry` when the named reports are current for
        these inputs and options, else None. An entry that lacks the
        `truncated` count is not current: the count cannot be told from the
        reports."""
        recorded = self._stamp_entries().get(entry)
        if (recorded is None or "truncated" not in recorded
                or recorded["input_hash"] != self.input_hash(options)):
            return None
        if not all((self.reports_dir / name).exists() for name in names):
            return None
        return recorded

    def drop_stamp(self, *entries: str):
        """Forget the named entries, before their reports are rewritten: a
        run killed mid-write then leaves those reports not current."""
        recorded = self._stamp_entries()
        if any(entry in recorded for entry in entries):
            _write_atomic(self.reports_dir / "stamp.json", _json_file(
                {k: v for k, v in recorded.items() if k not in entries}))

    def write_stamp(self, **entries: tuple[dict, int]):
        """Record each entry given as `name=(options, truncated)`: the
        inputs and options its reports were made from and how many
        certificates the depth bound cut short. Other entries are kept."""
        recorded = self._stamp_entries()
        for name, (options, truncated) in entries.items():
            recorded[name] = {"input_hash": self.input_hash(options),
                              "options": options, "truncated": truncated}
        _write_atomic(self.reports_dir / "stamp.json", _json_file(recorded))

    def write_report(self, name: str, lines: Iterable[str]):
        _write_atomic(self.reports_dir / name,
                      (f"{line}\n".encode() for line in lines))

    def report_lines(self, name: str) -> Iterator[str]:
        """The lines of a report, read as they are taken."""
        with open(self.reports_dir / name, encoding="utf-8") as fh:
            for line in fh:
                yield line.rstrip("\n")
