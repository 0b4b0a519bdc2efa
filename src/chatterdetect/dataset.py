"""Labeled frame datasets: build, split, persist.

A dataset is an array of fixed-size frame records (``record_dtype``) and
a provenance manifest of plain JSON values. The manifest's ``sources``
list holds one ``{"id", "ambiguous", "spec"}`` object per input, in
input order, and a record's ``source`` field is its index there. Its
directory holds ``manifest``, that object as UTF-8 JSON, and
``frames.bin``: an 8-byte prefix (magic ``CHDS``, version 3) and then
the records' bytes, exactly n_samples * (4 * n_lines + 20) of them, with
n_samples and n_lines as the manifest states them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import cpus, defaults
from .errors import (
    CorruptDataset, EmptyDataset, make_dir, read_bytes, read_text, write_bytes, write_lines,
)
from .signal_io import CLASS_ORDER, MachiningClass
from .spectral import (
    SpectralConfig, extract_frames, extract_scratch, frame_counts, frame_lines_valid,
)

MAGIC = b"CHDS"
FORMAT_VERSION = 3
MANIFEST_FILE = "manifest"
FRAMES_FILE = "frames.bin"
_PREFIX = struct.Struct("<4sI")


class Split(IntEnum):
    TRAIN = 0
    VAL = 1
    TEST = 2
    TEST2_AMBIGUOUS = 3

    @property
    def token(self) -> str:
        return _SPLIT_TOKENS[self]


_SPLIT_TOKENS = {
    Split.TRAIN: "train",
    Split.VAL: "val",
    Split.TEST: "test",
    Split.TEST2_AMBIGUOUS: "test2",
}


def record_dtype(n_lines: int) -> np.dtype:
    """One frame's record, little-endian and unpadded: 20 bytes of
    bookkeeping, then the renormalized lines as float32."""
    return np.dtype(
        [
            ("source", "<u4"),  # index in the manifest's sources
            ("frame_index", "<u4"),
            ("t_start", "<f8"),
            ("label", "u1"),  # MachiningClass
            ("split", "u1"),  # Split; TEST2_AMBIGUOUS iff the source is ambiguous
            ("pad", "u1", (2,)),
            ("lines", "<f4", (n_lines,)),
        ]
    )


@dataclass(eq=False)
class LabeledDataset:
    """Frame records (``record_dtype``) and the provenance manifest, whose
    ``sources[i]`` describes the recording of every record whose
    ``source`` is i. The records ``load_dataset`` returns are a read-only
    view of the file."""

    records: np.ndarray
    manifest: dict

    @property
    def n_lines(self) -> int:
        return self.records.dtype["lines"].shape[0]

    @property
    def config(self) -> SpectralConfig:
        return _spectral_config(self.manifest)

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return (
            self.manifest == other.manifest
            and self.records.dtype == other.records.dtype
            and np.array_equal(self.records, other.records)
        )

    def split_indices(self, split: Split) -> np.ndarray:
        return np.flatnonzero(self.records["split"] == split)

    def split_arrays(self, split: Split):
        """(lines, labels) arrays for one split: float32 (n, n_lines), int64 (n,)."""
        mask = self.records["split"] == split
        return self.records["lines"][mask], self.records["label"][mask].astype(np.int64)


def _spectral_config(manifest: dict) -> SpectralConfig:
    """The spectral config the manifest records; every field must be there."""
    try:
        return SpectralConfig(**{name: manifest[name] for name in asdict(SpectralConfig())})
    except KeyError as exc:
        raise CorruptDataset(f"manifest has no spectral field {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:  # float(10**400)
        raise CorruptDataset(f"manifest spectral config: {exc}") from None


def stratified_split(
    labels: np.ndarray,
    ambiguous: np.ndarray,
    split_seed: int,
    test_fraction: float,
) -> np.ndarray:
    """Assign splits per class: ambiguous samples all go to the held-out
    ambiguous test split; the rest are shuffled per class, floor(test_fraction)
    go to Test, then floor(defaults.VAL_FRACTION) of the remainder to Val,
    remainder to Train."""
    if not 0 <= test_fraction < 1:
        raise ValueError("test_fraction must lie in [0, 1)")
    labels = np.asarray(labels)
    ambiguous = np.asarray(ambiguous, dtype=bool)
    out = np.full(labels.shape, int(Split.TEST2_AMBIGUOUS), dtype=np.int8)
    rng = np.random.default_rng(split_seed)
    for cls in CLASS_ORDER:
        idx = np.flatnonzero((labels == int(cls)) & ~ambiguous)
        idx = idx[rng.permutation(idx.size)]
        n_test = int(np.floor(test_fraction * idx.size))
        n_val = int(np.floor(defaults.VAL_FRACTION * (idx.size - n_test)))
        out[idx[:n_test]] = int(Split.TEST)
        out[idx[n_test : n_test + n_val]] = int(Split.VAL)
        out[idx[n_test + n_val :]] = int(Split.TRAIN)
    return out


def build_dataset(
    pairs,
    config: SpectralConfig = SpectralConfig(),
    split_seed: int = 0,
    test_fraction: float = defaults.TEST_FRACTION,
    source_ids=None,
    source_specs=None,
) -> LabeledDataset:
    """Turn (TimeSignal, LabelTrack, ambiguous) triples into a split dataset.

    A frame is kept only when its [t_start, t_start + window) span lies
    fully inside one labeled interval; straddling or unlabeled frames are
    dropped and counted in the manifest. source_ids (strings) and
    source_specs (`spec_to_dict` objects or None), if given, parallel pairs.

    Each frame is labeled from its span before any is extracted. Then the
    signals that have a labeled frame are dealt by `cpus.deal`, on as many
    CPUs as keep their scratch within its budget, and each writes its
    labeled frames into its own rows, so the records are the same, bit for
    bit, on any number of CPUs, and any error is the one a serial loop
    would raise.
    """
    pairs = list(pairs)
    if source_ids is None:
        source_ids = [f"signal-{i:04d}" for i in range(len(pairs))]
    if source_specs is None:
        source_specs = [None] * len(pairs)
    for name, given in (("source_ids", source_ids), ("source_specs", source_specs)):
        if len(given) != len(pairs):
            raise ValueError(f"{name} must parallel pairs")

    framing = [frame_counts(s.samples.size, s.sample_rate_hz, config) for s, _, _ in pairs]
    labeled = []  # per signal, the (frame index, label) of each labeled frame
    for (signal, track, _), (hop_n, window_n, n) in zip(pairs, framing):
        rate = signal.sample_rate_hz
        # divided once, so a frame ending on the last sample ends at exactly n / rate
        spans = ((k, track.label_for_span(k * hop_n / rate, (k * hop_n + window_n) / rate))
                 for k in range(n))
        labeled.append([(k, label) for k, label in spans if label is not None])
    # signal i's labeled frames go from row first[i] on
    first = np.cumsum([0] + [len(frames) for frames in labeled]).tolist()
    n_kept = first[-1]
    if not n_kept:
        raise EmptyDataset("no frame fell inside a labeled interval")
    records = np.zeros(n_kept, dtype=record_dtype(config.n_lines))

    def extract(source):
        frames = extract_frames(pairs[source][0], config)
        for row, (k, label) in enumerate(labeled[source], first[source]):
            records[row] = (source, k, frames[k].t_start_s, label, 0, 0, frames[k].lines)

    dealt = [i for i, frames in enumerate(labeled) if frames]
    scratch = max(extract_scratch(*framing[i][1:], pairs[i][0].sample_rate_hz, config)
                  for i in dealt)
    cpus.deal(extract, dealt, scratch)
    ambiguous = np.array([bool(a) for _, _, a in pairs])
    records["split"] = stratified_split(
        records["label"], ambiguous[records["source"]], split_seed, test_fraction
    )

    manifest = {
        **asdict(config),
        "f_min_hz": 0.0,
        "taper": "hann",
        "split_seed": int(split_seed),
        "test_fraction": float(test_fraction),
        "dropped_frames": sum(n for _, _, n in framing) - n_kept,
        "n_samples": n_kept,
        "sources": [
            {"id": str(source_id), "ambiguous": flag, "spec": spec}
            for source_id, flag, spec in zip(source_ids, ambiguous.tolist(), source_specs)
        ],
    }
    return LabeledDataset(records, manifest)


def class_distribution(ds: LabeledDataset, split: Split) -> dict[MachiningClass, int]:
    labels = ds.records["label"][ds.records["split"] == split]
    counts = np.bincount(labels, minlength=len(CLASS_ORDER))
    return {cls: int(counts[cls]) for cls in CLASS_ORDER}


def save_dataset(ds: LabeledDataset, out_dir) -> None:
    out = make_dir(out_dir)
    write_bytes(out / FRAMES_FILE, _PREFIX.pack(MAGIC, FORMAT_VERSION),
                np.ascontiguousarray(ds.records))
    write_lines(out / MANIFEST_FILE, [json.dumps(ds.manifest, indent=2)])


def load_dataset(in_dir) -> LabeledDataset:
    src = Path(in_dir)
    manifest_text = read_text(src / MANIFEST_FILE, CorruptDataset)
    blob = read_bytes(src / FRAMES_FILE)
    if len(blob) < _PREFIX.size:
        raise CorruptDataset("frames.bin shorter than its prefix")
    magic, version = _PREFIX.unpack_from(blob)
    if magic != MAGIC:
        raise CorruptDataset(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDataset(f"unsupported version {version}")

    try:
        manifest = json.loads(manifest_text)
        n_samples, sources = manifest["n_samples"], manifest["sources"]
        if type(n_samples) is not int or n_samples < 0:  # a bool is no count either
            raise ValueError(f"n_samples {n_samples!r} is not a non-negative integer")
        if type(sources) is not list or not all(
                type(s) is dict and type(s["id"]) is str and type(s["ambiguous"]) is bool
                for s in sources):
            raise ValueError("sources must list objects with a str id and a bool ambiguous")
    # not JSON (ValueError), nested past the recursion limit, a missing key,
    # or a manifest that is no object (TypeError)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CorruptDataset(f"manifest: {exc!r}") from None

    config = _spectral_config(manifest)
    try:
        dtype = record_dtype(config.n_lines)
    except ValueError:  # numpy refuses records of 2 GiB or more
        raise CorruptDataset(f"manifest declares {config.n_lines} lines per frame") from None
    expected = _PREFIX.size + n_samples * dtype.itemsize
    if len(blob) != expected:
        raise CorruptDataset(
            f"frames.bin is {len(blob)} bytes, expected exactly {expected}"
        )
    records = np.frombuffer(blob, dtype=dtype, offset=_PREFIX.size)
    if np.any(records["label"] >= len(CLASS_ORDER)) or np.any(records["split"] >= len(Split)):
        raise CorruptDataset("label or split code out of range")
    if not np.all(frame_lines_valid(records["lines"], config.crop_db)):
        raise CorruptDataset("frame violates the renormalization invariants")
    if np.any(records["source"] >= len(sources)):
        raise CorruptDataset("source index out of range")
    return LabeledDataset(records, manifest)
