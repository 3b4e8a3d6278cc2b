"""Persistent run store: content-addressed run directories + an index.

PR 1 made every run's telemetry observable; this module makes it
*durable*.  A :class:`RunStore` is a directory of finished runs::

    <root>/index.json                  one line of metadata per run
    <root>/<run_id>/manifest.json      provenance (RunManifest)
                    metrics.json       MetricsRegistry snapshot
                    kpis.json          flat name -> float key results
                    curves.json        named BER curves (x grid + BER/PER)
                    tables/<name>.txt  rendered result tables
                    trace.jsonl        span/event trace (when recorded)
                    flight.jsonl       live-telemetry timeline (when live)

Run directories are **content addressed**: the run id is
``<kind>-<sha256[:12]>`` over the canonical JSON of everything persisted
except the trace, so identical results re-store idempotently and any
later edit of a run's files is detectable (``RunRecord.integrity_ok``).

Producers either pass a store explicitly (``sweep.run(store=...)``) or
run under the ``writer`` of the ambient :class:`repro.obs.Telemetry`
bundle, which the CLI's ``--store`` flag installs;
:func:`contribute` routes to whichever is active, so library code stays
one call long.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs.manifest import RunManifest, _config_snapshot, build_manifest
from repro.obs.bundle import telemetry
from repro.obs.tracer import read_jsonl

__all__ = [
    "RunEntry",
    "RunRecord",
    "RunStore",
    "RunWriter",
    "config_key",
    "contribute",
]

#: Sentinel meaning "use the process-wide active tracer/registry".
_ACTIVE = object()

_INDEX = "index.json"
_TRACE = "trace.jsonl"
_FLIGHT = "flight.jsonl"


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


#: Manifest keys that vary between otherwise identical runs (timestamps
#: and the timestamp-suffixed tracer run id).  Excluded from the content
#: digest so that rerunning the same experiment yields the same address.
_VOLATILE_MANIFEST_KEYS = frozenset(
    {"run_id", "created_unix_s", "created_iso", "type"}
)


def _content_digest(
    manifest: Dict[str, Any],
    metrics: Dict[str, Any],
    kpis: Dict[str, float],
    curves: Dict[str, Dict[str, Any]],
    tables: Dict[str, str],
    probes: Optional[Dict[str, Any]] = None,
    flight: Optional[List[Dict[str, Any]]] = None,
) -> str:
    stable = {
        k: v for k, v in manifest.items()
        if k not in _VOLATILE_MANIFEST_KEYS
    }
    payload = {
        "manifest": stable,
        "metrics": metrics,
        "kpis": kpis,
        "curves": curves,
        "tables": tables,
    }
    # Probe and flight artefacts join the address only when present, so
    # runs persisted before those layers existed (and runs with them
    # switched off) keep their original digests.
    if probes:
        payload["probes"] = probes
    if flight:
        payload["flight"] = flight
    return _digest(payload)


def config_key(config: Any) -> str:
    """Content hash of a configuration object (memoization key).

    The config goes through the same JSON-friendly snapshot as the run
    manifest, so dataclasses, dicts, and nested structures all hash
    stably; two configs with equal snapshots share a key.
    """
    return _digest(_config_snapshot(config))


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _unique_name(existing: Iterable[str], name: str) -> str:
    """Deduplicate ``name`` against ``existing`` (``name``, ``name-2``...)."""
    taken = set(existing)
    if name not in taken:
        return name
    i = 2
    while f"{name}-{i}" in taken:
        i += 1
    return f"{name}-{i}"


@dataclass
class RunEntry:
    """One index line: just enough to list runs without opening them."""

    run_id: str
    kind: str
    name: Optional[str]
    seed: Optional[int]
    created_unix_s: float
    created_iso: str
    digest: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "created_unix_s": self.created_unix_s,
            "created_iso": self.created_iso,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunEntry":
        return cls(
            run_id=d["run_id"],
            kind=d.get("kind", "run"),
            name=d.get("name"),
            seed=d.get("seed"),
            created_unix_s=float(d.get("created_unix_s", 0.0)),
            created_iso=d.get("created_iso", ""),
            digest=d.get("digest", ""),
        )


@dataclass
class RunRecord:
    """A fully loaded run (what :meth:`RunStore.load_run` returns).

    Attributes:
        run_id / path: identity and on-disk location.
        manifest: the stored :class:`RunManifest` dict.
        metrics: the stored ``MetricsRegistry.as_dict()`` snapshot.
        kpis: flat ``name -> float`` key results.
        curves: named BER curves (``x_label``, ``x``, ``ber``, optional
            ``per`` / ``packets`` arrays).
        tables: rendered result tables by name.
        probes: signal-probe artefacts (``ProbeRegistry.export``; empty
            for probe-less runs).
        flight: live-telemetry flight-recorder records (``flight.jsonl``;
            empty for runs executed without ``--live``).
        stored_digest: content address recorded at store time.
        digest: content address recomputed at load time.
    """

    run_id: str
    path: Path
    manifest: Dict[str, Any]
    metrics: Dict[str, Any]
    kpis: Dict[str, float]
    curves: Dict[str, Dict[str, Any]]
    tables: Dict[str, str]
    probes: Dict[str, Any] = field(default_factory=dict)
    flight: List[Dict[str, Any]] = field(default_factory=list)
    stored_digest: str = ""
    digest: str = ""

    @property
    def integrity_ok(self) -> bool:
        """Whether the content still matches its recorded digest."""
        return bool(self.stored_digest) and self.stored_digest == self.digest

    @property
    def kind(self) -> str:
        return self.run_id.rsplit("-", 1)[0]

    @property
    def seed(self) -> Optional[int]:
        return self.manifest.get("seed")

    @property
    def created_iso(self) -> str:
        return self.manifest.get("created_iso", "")

    @property
    def has_trace(self) -> bool:
        return (self.path / _TRACE).is_file()

    def trace_records(self) -> List[Dict[str, Any]]:
        """The stored trace as record dicts ([] when none was written)."""
        if not self.has_trace:
            return []
        return read_jsonl(self.path / _TRACE)


class RunWriter:
    """Accumulates one run's artefacts, then persists them atomically.

    Obtained from :meth:`RunStore.create`; producers call the ``add_*``
    methods while the run executes and :meth:`finalize` once at the end.
    """

    def __init__(
        self,
        store: "RunStore",
        kind: str,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        config: Any = None,
        command: Optional[str] = None,
    ):
        self._store = store
        self.kind = kind
        self.name = name
        self.seed = seed
        self.config = config
        self.command = command
        self.tables: Dict[str, str] = {}
        self.curves: Dict[str, Dict[str, Any]] = {}
        self.kpis: Dict[str, float] = {}
        self.probes: Dict[str, Any] = {}
        self.flight: List[Dict[str, Any]] = []
        self.finalized: Optional[RunRecord] = None

    @property
    def store(self) -> "RunStore":
        """The store this writer will persist into."""
        return self._store

    # -- accumulation --------------------------------------------------
    def add_table(self, name: str, text: str) -> str:
        """Attach a rendered result table; returns the (deduped) name."""
        name = _unique_name(self.tables, name)
        self.tables[name] = str(text)
        return name

    def add_curve(
        self,
        name: str,
        x_label: str,
        x: Sequence[float],
        ber: Sequence[float],
        per: Optional[Sequence[float]] = None,
        packets: Optional[Sequence[int]] = None,
    ) -> str:
        """Attach a named BER curve; returns the (deduped) name."""
        if len(x) != len(ber):
            raise ValueError("curve x and ber lengths differ")
        name = _unique_name(self.curves, name)
        curve: Dict[str, Any] = {
            "x_label": x_label,
            "x": [float(v) for v in x],
            "ber": [float(v) for v in ber],
        }
        if per is not None:
            curve["per"] = [float(v) for v in per]
        if packets is not None:
            curve["packets"] = [int(v) for v in packets]
        self.curves[name] = curve
        return name

    def add_kpis(self, kpis: Mapping[str, float], prefix: str = "") -> None:
        """Merge flat scalar key results (optionally name-prefixed)."""
        for key, value in kpis.items():
            self.kpis[f"{prefix}{key}"] = float(value)

    def add_probes(self, export: Mapping[str, Any]) -> None:
        """Attach a :meth:`repro.obs.ProbeRegistry.export` payload.

        Persisted as ``probes.json`` and folded into the run's content
        address (probe-less runs keep their pre-probe digests).
        """
        self.probes = dict(export)

    def add_flight(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Attach live-telemetry flight-recorder records.

        Persisted as ``flight.jsonl`` (one compact JSON object per
        line) and folded into the run's content address only when
        non-empty — runs without ``--live`` keep their digests, the
        same convention ``probes.json`` follows.
        """
        self.flight = [dict(r) for r in records]

    # -- persistence ---------------------------------------------------
    def finalize(
        self,
        tracer=_ACTIVE,
        registry=_ACTIVE,
        manifest: Optional[RunManifest] = None,
    ) -> RunRecord:
        """Write the run directory and update the index.

        Args:
            tracer: tracer whose records become ``trace.jsonl``; defaults
                to the active tracer (pass ``None`` to skip the trace).
            registry: metrics registry to snapshot; defaults to the
                active registry (pass ``None`` for an empty snapshot).
            manifest: pre-built manifest; one is built from the writer's
                seed/command/config when omitted.

        Returns:
            The persisted :class:`RunRecord` (also kept on
            :attr:`finalized`).
        """
        if self.finalized is not None:
            return self.finalized
        if tracer is _ACTIVE:
            tracer = telemetry().tracer
        if registry is _ACTIVE:
            registry = telemetry().registry
        if manifest is None:
            manifest = build_manifest(
                seed=self.seed, command=self.command, config=self.config
            )
        manifest_dict = manifest.as_dict()
        metrics = registry.as_dict() if registry is not None else {}
        trace = (
            [r.as_dict() for r in tracer.records]
            if tracer is not None and tracer.enabled
            else None
        )
        self.finalized = self._store._persist(
            kind=self.kind,
            name=self.name,
            seed=self.seed if self.seed is not None else manifest_dict.get("seed"),
            manifest=manifest_dict,
            metrics=metrics,
            kpis=dict(self.kpis),
            curves=dict(self.curves),
            tables=dict(self.tables),
            trace=trace,
            probes=dict(self.probes),
            flight=list(self.flight),
        )
        return self.finalized


class RunStore:
    """A directory of persisted runs with an index.

    Args:
        root: store directory (created lazily on first write).
    """

    def __init__(self, root):
        self.root = Path(root)

    # -- index ---------------------------------------------------------
    def _read_index(self) -> List[RunEntry]:
        path = self.root / _INDEX
        if not path.is_file():
            return []
        payload = json.loads(path.read_text(encoding="utf-8"))
        return [RunEntry.from_dict(d) for d in payload.get("runs", [])]

    def _write_index(self, entries: List[RunEntry]) -> None:
        tmp = self.root / (_INDEX + ".tmp")
        _write_json(tmp, {"runs": [e.as_dict() for e in entries]})
        os.replace(tmp, self.root / _INDEX)

    # -- writing -------------------------------------------------------
    def create(
        self,
        kind: str,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        config: Any = None,
        command: Optional[str] = None,
    ) -> RunWriter:
        """Open a :class:`RunWriter` for a new run of ``kind``."""
        return RunWriter(
            self, kind, name=name, seed=seed, config=config, command=command
        )

    def _persist(
        self,
        kind: str,
        name: Optional[str],
        seed: Optional[int],
        manifest: Dict[str, Any],
        metrics: Dict[str, Any],
        kpis: Dict[str, float],
        curves: Dict[str, Dict[str, Any]],
        tables: Dict[str, str],
        trace: Optional[List[Dict[str, Any]]],
        probes: Optional[Dict[str, Any]] = None,
        flight: Optional[List[Dict[str, Any]]] = None,
    ) -> RunRecord:
        digest = _content_digest(
            manifest, metrics, kpis, curves, tables, probes, flight
        )
        run_id = f"{kind}-{digest[:12]}"
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".tmp-{run_id}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir()
        try:
            _write_json(tmp / "manifest.json", manifest)
            _write_json(tmp / "metrics.json", metrics)
            _write_json(tmp / "kpis.json", kpis)
            _write_json(tmp / "curves.json", curves)
            if probes:
                _write_json(tmp / "probes.json", probes)
            if flight:
                with open(tmp / _FLIGHT, "w", encoding="utf-8") as fh:
                    for record in flight:
                        json.dump(record, fh, sort_keys=True,
                                  separators=(",", ":"))
                        fh.write("\n")
            _write_json(tmp / "digest.json", {"sha256": digest})
            if tables:
                (tmp / "tables").mkdir()
                for table_name, text in tables.items():
                    safe = table_name.replace("/", "_")
                    (tmp / "tables" / f"{safe}.txt").write_text(
                        text + "\n", encoding="utf-8"
                    )
            if trace is not None:
                with open(tmp / _TRACE, "w", encoding="utf-8") as fh:
                    json.dump(manifest, fh)
                    fh.write("\n")
                    for record in trace:
                        json.dump(record, fh)
                        fh.write("\n")
            final = self.root / run_id
            if final.exists():
                shutil.rmtree(final)
            os.replace(tmp, final)
        finally:
            if tmp.exists():
                shutil.rmtree(tmp)
        entries = [e for e in self._read_index() if e.run_id != run_id]
        entries.append(RunEntry(
            run_id=run_id,
            kind=kind,
            name=name,
            seed=seed,
            created_unix_s=float(manifest.get("created_unix_s", 0.0)),
            created_iso=manifest.get("created_iso", ""),
            digest=digest,
        ))
        self._write_index(entries)
        return RunRecord(
            run_id=run_id,
            path=final,
            manifest=manifest,
            metrics=metrics,
            kpis=kpis,
            curves=curves,
            tables=tables,
            probes=dict(probes or {}),
            flight=list(flight or []),
            stored_digest=digest,
            digest=digest,
        )

    # -- reading -------------------------------------------------------
    def list_runs(self, kind: Optional[str] = None) -> List[RunEntry]:
        """Index entries, newest first (optionally one ``kind`` only)."""
        entries = [
            e for e in self._read_index() if kind is None or e.kind == kind
        ]
        entries.sort(key=lambda e: (e.created_unix_s, e.run_id), reverse=True)
        return entries

    def resolve(self, token: str, kind: Optional[str] = None) -> str:
        """Turn ``latest``, a full id, or a unique id prefix into a run id."""
        entries = self.list_runs(kind=kind)
        if token == "latest":
            if not entries:
                raise KeyError(f"no runs stored under {self.root}")
            return entries[0].run_id
        matches = [e.run_id for e in entries if e.run_id == token]
        if not matches:
            matches = [e.run_id for e in entries if e.run_id.startswith(token)]
        if not matches:
            raise KeyError(f"no run matching {token!r} under {self.root}")
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous run {token!r}: matches {', '.join(sorted(matches))}"
            )
        return matches[0]

    def load_run(self, token: str) -> RunRecord:
        """Load a run by id, unique prefix, or the ``latest`` keyword."""
        run_id = self.resolve(token)
        path = self.root / run_id

        def read(name, default):
            p = path / name
            if not p.is_file():
                return default
            return json.loads(p.read_text(encoding="utf-8"))

        manifest = read("manifest.json", {})
        metrics = read("metrics.json", {})
        kpis = {k: float(v) for k, v in read("kpis.json", {}).items()}
        curves = read("curves.json", {})
        probes = read("probes.json", {})
        flight: List[Dict[str, Any]] = []
        flight_path = path / _FLIGHT
        if flight_path.is_file():
            for line in flight_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    flight.append(json.loads(line))
        stored = read("digest.json", {}).get("sha256", "")
        tables: Dict[str, str] = {}
        tables_dir = path / "tables"
        if tables_dir.is_dir():
            for table_path in sorted(tables_dir.glob("*.txt")):
                tables[table_path.stem] = table_path.read_text(
                    encoding="utf-8"
                ).rstrip("\n")
        digest = _content_digest(
            manifest, metrics, kpis, curves, tables, probes, flight
        )
        return RunRecord(
            run_id=run_id,
            path=path,
            manifest=manifest,
            metrics=metrics,
            kpis=kpis,
            curves=curves,
            tables=tables,
            probes=probes,
            flight=flight,
            stored_digest=stored,
            digest=digest,
        )

    def find_by_name(
        self, kind: str, name: str
    ) -> Optional[RunEntry]:
        """Newest index entry of ``kind`` stored under ``name``, or None.

        The memoization layer stores sweep points under their config
        hash as the run name; this is its lookup.
        """
        for entry in self.list_runs(kind=kind):
            if entry.name == name:
                return entry
        return None

    def latest(self, kind: Optional[str] = None) -> Optional[RunRecord]:
        """The most recent run (of ``kind``, when given), or None."""
        entries = self.list_runs(kind=kind)
        if not entries:
            return None
        return self.load_run(entries[0].run_id)

    # -- maintenance ---------------------------------------------------
    def gc(self, keep: int, dry_run: bool = False) -> List[str]:
        """Prune the oldest runs, keeping the ``keep`` newest.

        Only directories listed in the index and living directly under
        the store root are ever removed; anything else in the directory
        is left alone.

        Returns:
            The removed (or, with ``dry_run``, would-be-removed) run ids.
        """
        if keep < 0:
            raise ValueError("keep must be >= 0")
        entries = self.list_runs()
        doomed = entries[keep:]
        removed = []
        for entry in doomed:
            path = (self.root / entry.run_id).resolve()
            if path.parent != self.root.resolve() or not path.is_dir():
                continue
            if not dry_run:
                shutil.rmtree(path)
            removed.append(entry.run_id)
        if removed and not dry_run:
            keep_ids = {e.run_id for e in entries[:keep]}
            self._write_index(
                [e for e in self._read_index() if e.run_id in keep_ids]
            )
        return removed


def contribute(
    store: Optional[RunStore],
    kind: str,
    name: str,
    seed: Optional[int] = None,
    config: Any = None,
    tables: Optional[Mapping[str, str]] = None,
    curves: Optional[Mapping[str, Dict[str, Any]]] = None,
    kpis: Optional[Mapping[str, float]] = None,
    ambient: bool = True,
) -> Optional[RunRecord]:
    """Persist one producer's results to whichever store is in scope.

    With an explicit ``store`` the producer gets its own run directory,
    finalized immediately against the active tracer/registry.  Without
    one, the results are attached to the ambient :class:`RunWriter` when
    the CLI installed one (KPIs are prefixed with ``name.`` so several
    producers coexist in one run), and dropped otherwise.

    Returns:
        The persisted :class:`RunRecord` for the explicit-store path,
        None when attached ambiently or dropped.
    """
    if store is not None:
        writer = store.create(kind, name=name, seed=seed, config=config)
    else:
        writer = telemetry().writer if ambient else None
        if writer is None:
            return None
    for table_name, text in (tables or {}).items():
        writer.add_table(table_name, text)
    for curve_name, curve in (curves or {}).items():
        writer.add_curve(
            curve_name,
            curve.get("x_label", "x"),
            curve["x"],
            curve["ber"],
            per=curve.get("per"),
            packets=curve.get("packets"),
        )
    if kpis:
        prefix = "" if store is not None else f"{name}."
        writer.add_kpis(kpis, prefix=prefix)
    if store is not None:
        return writer.finalize()
    return None
