"""Content-addressed on-disk cache of experiment results.

Entries are keyed by a spec fingerprint (see
:attr:`repro.api.spec.ExperimentSpec.fingerprint`) or, for ad-hoc
datasets, by a combined (config, dataset content, eval) digest from
:func:`experiment_key`.  Payloads are the lossless
``repro-experiment-full/2`` JSON of :mod:`repro.harness.io`, so a cache
hit returns a result bit-identical to the original computation —
boxes, scores, labels and op accounts included.  Its frames and
evaluations are base64'd columns (:func:`repro.harness.io.encode_columns`),
so a hit builds no per-frame objects.

Layout: ``<root>/<fp[:2]>/<fp>.json`` (two-level sharding keeps any one
directory small on big sweeps).  Writes are atomic (tmp file + rename),
so concurrent sessions sharing a cache directory at worst duplicate
work, never corrupt entries; corrupt or truncated files are treated as
misses and rewritten, and so is an entry whose ``format`` tag is not
the store's current one (an older layout version).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.api.spec import content_digest
from repro.core.config import SystemConfig, config_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import EvalSpec
    from repro.datasets.types import Dataset
    from repro.harness.experiment import ExperimentResult


def fingerprint_dataset(dataset: "Dataset") -> str:
    """Stable content digest of a dataset's ground truth.

    Hashes the geometry and every track's boxes/occlusion/truncation
    arrays, so two datasets with identical content share cache entries
    regardless of how they were constructed.
    """
    h = hashlib.sha256()
    h.update(repr((dataset.name, [
        (c.name, c.label, c.min_iou) for c in dataset.classes
    ], dataset.labeled_frames)).encode("utf-8"))
    for seq in dataset.sequences:
        h.update(
            repr((seq.name, seq.width, seq.height, seq.num_frames, seq.fps)).encode("utf-8")
        )
        for track in seq.tracks:
            h.update(repr((track.track_id, track.label, track.first_frame)).encode("utf-8"))
            h.update(track.boxes.tobytes())
            h.update(track.occlusion.tobytes())
            h.update(track.truncation.tobytes())
    return h.hexdigest()


def experiment_key(
    config: SystemConfig, dataset_fingerprint: str, eval_spec: "EvalSpec"
) -> str:
    """Cache key for the classic ``run_experiment(config, dataset)`` path."""
    payload = {
        "format": "repro-experiment-key/1",
        "system": config_to_dict(config),
        "dataset": dataset_fingerprint,
        "eval": eval_spec.result_key_dict(),
    }
    return content_digest(payload)


@dataclass(frozen=True)
class CacheEntry:
    """One stored result: its key plus on-disk accounting."""

    fingerprint: str
    path: Path
    size_bytes: int
    mtime: float
    label: Optional[str] = None


class EntryStore:
    """The one on-disk layout every content-addressed store shares.

    Entries live at ``<root>/<fp[:2]>/<fp>.json``; writes are atomic
    (tmp file + ``os.replace``) and an unreadable entry — missing,
    corrupt, truncated or of a foreign format — reads as a miss.  Stores
    differ only in what they serialize: subclasses implement ``load`` /
    ``store`` over :meth:`_read` (:meth:`_read_raw` then :meth:`_parse`)
    and :meth:`_write`.  All of them may share one root (fingerprints
    are sha256 content addresses, so entry kinds cannot collide), which
    is what lets ``repro cache stats/ls/prune`` manage every kind at once.
    """

    #: The ``format`` tag of this store's entries.
    ENTRY_FORMAT: Optional[str] = None

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.ENTRY_FORMAT is not None:
            _STORE_KINDS[cls.ENTRY_FORMAT] = cls

    def path_for(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def _read(self, fingerprint: str, section: str, parse: Callable[[Any], Any]) -> Any:
        """``parse(payload[section])`` of the entry, or ``None`` on a miss
        (an entry of another ``format`` tag included)."""
        return self._parse(self._read_raw(fingerprint), section, parse)

    def _read_raw(self, fingerprint: str) -> Optional[bytes]:
        """The entry's bytes, or ``None`` when it cannot be read."""
        try:
            return self.path_for(fingerprint).read_bytes()
        except OSError:
            return None

    @classmethod
    def _parse(
        cls, raw: Optional[bytes], section: Optional[str], parse: Callable[[Any], Any]
    ) -> Any:
        """``parse(payload[section])`` of an entry's bytes, or ``None`` on a
        miss: unreadable bytes, or a ``format`` tag other than this store's
        (a store without a tag reads any).  With ``section`` ``None``,
        ``parse`` gets the whole payload of any format."""
        if raw is None:
            return None
        try:
            payload = json.loads(raw)
            if section is None:
                return parse(payload)
            if cls.ENTRY_FORMAT not in (None, payload.get("format")):
                return None
            return parse(payload[section])
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            return None

    def _entry(self, fingerprint: str, **sections: Any) -> Dict[str, Any]:
        """This store's entry: ``format`` tag, ``fingerprint``, ``sections``."""
        return {"format": self.ENTRY_FORMAT, "fingerprint": fingerprint, **sections}

    @staticmethod
    def _dumps(payload: Dict[str, Any]) -> bytes:
        """An entry payload's bytes (one-shot ``json.dumps``: CPython's C
        encoder serves only that path; the bytes equal ``json.dump``'s)."""
        return json.dumps(payload, allow_nan=True).encode("utf-8")

    def _write(self, fingerprint: str, payload: Dict[str, Any]) -> Path:
        """Atomically write ``payload`` as the entry for ``fingerprint``."""
        return self._write_bytes(fingerprint, self._dumps(payload))

    def _write_bytes(self, fingerprint: str, data: bytes) -> Path:
        """Atomically write ``data`` as the entry for ``fingerprint``.

        The temp name is unique per writer thread, so concurrent writers
        in one process never share a temp file.
        """
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            # ``stats``/``ls``/``prune`` see only ``*.json`` entries: a temp
            # file left behind here would never be counted or deleted.
            tmp.unlink(missing_ok=True)
            raise
        return path

    def _write_entry(self, fingerprint: str, **sections: Any) -> Path:
        """Atomically write this store's :meth:`_entry` for ``fingerprint``."""
        return self._write(fingerprint, self._entry(fingerprint, **sections))

    @classmethod
    def _label(cls, payload: Dict[str, Any]) -> Optional[str]:
        """The human label of one of this store's entry payloads."""
        return None

    def _entry_label(self, fingerprint: str) -> Optional[str]:
        """The label of the entry under ``fingerprint``, whichever store
        wrote it (by its ``format`` tag); ``None`` when unreadable."""
        # Each store kind registers its entry format when its module loads.
        import repro.fleet  # noqa: F401  (the serve and fleet report stores)
        import repro.serve.trace  # noqa: F401

        return self._parse(
            self._read_raw(fingerprint),
            None,
            lambda payload: _STORE_KINDS[payload["format"]]._label(payload),
        )


#: Entry ``format`` tag -> the :class:`EntryStore` subclass writing it.
_STORE_KINDS: Dict[str, type] = {}


class ResultCache(EntryStore):
    """Content-addressed store of serialized :class:`ExperimentResult`\\ s."""

    ENTRY_FORMAT = "repro-result-cache/2"

    def __init__(self, root: Union[str, Path]):
        super().__init__(root)
        self.hits = 0
        self.misses = 0

    def load(self, fingerprint: str) -> Optional["ExperimentResult"]:
        """The cached result for ``fingerprint``, or ``None`` on a miss.

        Unreadable entries (corrupt JSON, foreign formats) count as
        misses: the caller recomputes and overwrites them.
        """
        from repro.harness.io import experiment_from_dict

        result = self._read(fingerprint, "result", experiment_from_dict)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def store(
        self,
        fingerprint: str,
        result: "ExperimentResult",
        *,
        spec: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically write ``result`` under ``fingerprint``.

        ``spec`` (a plain dict, e.g. ``ExperimentSpec.to_dict()``) is
        stored alongside for human inspection of what produced the entry.
        """
        from repro.harness.io import experiment_to_dict

        return self._write_entry(fingerprint, spec=spec, result=experiment_to_dict(result))

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.exists():
            for entry in self.root.glob("*/*.json"):
                entry.unlink()
                removed += 1
        return removed

    def entries(self, *, with_labels: bool = False) -> List[CacheEntry]:
        """Every stored entry, newest first.

        ``with_labels`` additionally opens each file to pull the stored
        spec's human label (slower — it reads every payload).
        """
        out: List[CacheEntry] = []
        if not self.root.exists():
            return out
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # pruned/overwritten concurrently
            label = self._entry_label(path.stem) if with_labels else None
            out.append(
                CacheEntry(
                    fingerprint=path.stem,
                    path=path,
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                    label=label,
                )
            )
        out.sort(key=lambda e: e.mtime, reverse=True)
        return out

    @classmethod
    def _label(cls, payload: Dict[str, Any]) -> Optional[str]:
        from repro.core.config import config_from_dict

        spec = payload.get("spec") or {}
        system = spec.get("system") or payload.get("result", {}).get("config")
        if system is None:
            return None
        label = config_from_dict(system).label
        family = (spec.get("dataset") or {}).get("family")
        return f"{label} @ {family}" if family else label

    def stats(self) -> Dict[str, Any]:
        """Aggregate accounting: entry count, bytes, oldest/newest age."""
        entries = self.entries()
        now = time.time()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(e.size_bytes for e in entries),
            "newest_age_seconds": now - entries[0].mtime if entries else None,
            "oldest_age_seconds": now - entries[-1].mtime if entries else None,
        }

    def prune(self, older_than_seconds: float) -> int:
        """Delete entries not written in the last ``older_than_seconds``.

        Returns how many entries were removed; empty shard directories
        are cleaned up too.
        """
        if older_than_seconds < 0:
            raise ValueError(f"older_than_seconds must be >= 0, got {older_than_seconds}")
        cutoff = time.time() - older_than_seconds
        removed = 0
        for entry in self.entries():
            if entry.mtime < cutoff:
                try:
                    entry.path.unlink()
                    removed += 1
                except OSError:
                    continue
        if self.root.exists():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return removed
