"""Labeled frame datasets: build, split, persist.

A dataset is an array of fixed-size frame records (``record_dtype``) and
a manifest of key=value provenance records. The manifest's
``source.<i>.id``, ``.ambiguous`` and ``.spec`` entries describe input i,
and a record's ``source`` field is that i. Its directory holds a UTF-8
``manifest`` and ``frames.bin``: a 16-byte header (magic ``CHDS``,
version 2) and then the records' bytes, exactly n_samples * (4 * n_lines
+ 20) of them.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import cpus, defaults
from .errors import (
    BadSourceId, CorruptDataset, EmptyDataset,
    make_dir, read_bytes, read_text, write_bytes, write_lines,
)
from .signal_io import CLASS_ORDER, MachiningClass
from .spectral import (
    SpectralConfig, extract_frames, extract_scratch, frame_counts, frame_lines_valid,
)

MAGIC = b"CHDS"
FORMAT_VERSION = 2
MANIFEST_FILE = "manifest"
FRAMES_FILE = "frames.bin"


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
            ("source", "<u4"),  # i of the manifest's source.<i>.* entries
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
    ``source.<i>.*`` entries describe the recording of every record whose
    ``source`` is i. The records ``load_dataset`` returns are a read-only
    view of the file."""

    records: np.ndarray
    manifest: dict[str, str]

    @property
    def n_lines(self) -> int:
        return self.records.dtype["lines"].shape[0]

    @property
    def config(self) -> SpectralConfig:
        """The spectral config the manifest records; every field must be there."""
        try:
            return SpectralConfig(**{
                name: type(default)(self.manifest[name])
                for name, default in asdict(SpectralConfig()).items()
            })
        except KeyError as exc:
            raise CorruptDataset(f"manifest has no spectral field {exc}") from None
        except ValueError as exc:
            raise CorruptDataset(f"manifest spectral config: {exc}") from None

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
    dropped and counted in the manifest. source_ids and source_specs, if
    given, parallel pairs; an id or spec holding a line break raises
    BadSourceId.

    The signals' frames are extracted by `cpus.deal`, on as many CPUs as
    keep their scratch within its budget. Each signal writes its kept
    frames into the rows that start at its first frame's; the runs are
    then moved down in signal order, so the records are the same, bit for
    bit, on any number of CPUs, and any error is the one a serial loop
    would raise.
    """
    pairs = list(pairs)
    if source_ids is None:
        source_ids = [f"signal-{i:04d}" for i in range(len(pairs))]
    for name, texts in (("source_ids", source_ids), ("source_specs", source_specs)):
        if texts is not None and len(texts) != len(pairs):
            raise ValueError(f"{name} must parallel pairs")
    for text in [*source_ids, *filter(None, source_specs or [])]:
        # the manifest is read by str.splitlines
        if "".join(text.splitlines()) != text:
            raise BadSourceId(f"source id or spec {text!r} holds a line break")

    # room for every frame; signal i's kept frames go from row first[i] on
    framing = [frame_counts(s.samples.size, s.sample_rate_hz, config) for s, _, _ in pairs]
    first = np.cumsum([0] + [n for _, _, n in framing]).tolist()
    records = np.zeros(first[-1], dtype=record_dtype(config.n_lines))
    kept = [0] * len(pairs)

    def extract(source):
        signal, track, _ = pairs[source]
        hop_n, window_n, _ = framing[source]
        row = first[source]
        for frame in extract_frames(signal, config):
            # divided once, so a frame ending on the last sample ends at exactly n / rate
            t_end_s = (frame.frame_index * hop_n + window_n) / signal.sample_rate_hz
            label = track.label_for_span(frame.t_start_s, t_end_s)
            if label is not None:
                records[row] = (source, frame.frame_index, frame.t_start_s, label, 0, 0,
                                frame.lines)
                row += 1
        kept[source] = row - first[source]

    scratch = max((extract_scratch(window_n, n, s.sample_rate_hz, config)
                   for (s, _, _), (_, window_n, n) in zip(pairs, framing)), default=0)
    cpus.deal(extract, range(len(pairs)), scratch)
    n_kept = 0
    for source, n in enumerate(kept):
        if n_kept != first[source]:
            records[n_kept : n_kept + n] = records[first[source] : first[source] + n]
        n_kept += n
    if not n_kept:
        raise EmptyDataset("no frame fell inside a labeled interval")
    records = records[:n_kept]
    ambiguous = np.array([bool(a) for _, _, a in pairs])
    records["split"] = stratified_split(
        records["label"], ambiguous[records["source"]], split_seed, test_fraction
    )

    manifest = {
        "format": "chatterdetect-dataset",
        "version": str(FORMAT_VERSION),
        **{name: repr(value) for name, value in asdict(config).items()},
        "f_min_hz": "0.0",
        "taper": "hann",
        "split_seed": str(split_seed),
        "test_fraction": repr(float(test_fraction)),
        "dropped_frames": str(first[-1] - n_kept),
        "n_samples": str(n_kept),
        "n_sources": str(len(pairs)),
    }
    for i, source_id in enumerate(source_ids):
        manifest[f"source.{i}.id"] = source_id
        manifest[f"source.{i}.ambiguous"] = "1" if ambiguous[i] else "0"
        if source_specs is not None and source_specs[i]:
            manifest[f"source.{i}.spec"] = source_specs[i]

    return LabeledDataset(records, manifest)


def class_distribution(ds: LabeledDataset, split: Split) -> dict[MachiningClass, int]:
    labels = ds.records["label"][ds.records["split"] == split]
    counts = np.bincount(labels, minlength=len(CLASS_ORDER))
    return {cls: int(counts[cls]) for cls in CLASS_ORDER}


def save_dataset(ds: LabeledDataset, out_dir) -> None:
    out = make_dir(out_dir)
    header = struct.pack("<4sIII", MAGIC, FORMAT_VERSION, ds.n_lines, len(ds))
    write_bytes(out / FRAMES_FILE, header, np.ascontiguousarray(ds.records))
    write_lines(out / MANIFEST_FILE, [f"{k}={v}" for k, v in ds.manifest.items()])


def load_dataset(in_dir) -> LabeledDataset:
    src = Path(in_dir)
    manifest_text = read_text(src / MANIFEST_FILE, CorruptDataset)
    blob = read_bytes(src / FRAMES_FILE)

    manifest: dict[str, str] = {}
    for line in manifest_text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise CorruptDataset(f"bad manifest line {line!r}")
        key, value = line.split("=", 1)
        manifest[key] = value

    if len(blob) < 16:
        raise CorruptDataset("frames.bin shorter than its header")
    magic, version, n_lines, n_samples = struct.unpack_from("<4sIII", blob)
    if magic != MAGIC:
        raise CorruptDataset(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptDataset(f"unsupported version {version}")
    if n_lines == 0:
        raise CorruptDataset("frames.bin declares frames of zero lines")
    try:
        dtype = record_dtype(n_lines)
    except ValueError:  # numpy refuses records of 2 GiB or more
        raise CorruptDataset(f"frames.bin declares {n_lines} lines per frame") from None
    expected = 16 + n_samples * dtype.itemsize
    if len(blob) != expected:
        raise CorruptDataset(
            f"frames.bin is {len(blob)} bytes, expected exactly {expected}"
        )
    ds = LabeledDataset(np.frombuffer(blob, dtype=dtype, offset=16), manifest)
    records, config = ds.records, ds.config
    if config.n_lines != n_lines:
        raise CorruptDataset(f"manifest says {config.n_lines} lines, frames.bin {n_lines}")
    try:
        counted, n_sources = int(manifest["n_samples"]), int(manifest["n_sources"])
    except (KeyError, ValueError):
        raise CorruptDataset("manifest n_samples or n_sources missing or not an integer") from None
    if counted != n_samples:
        raise CorruptDataset(f"manifest says {counted} frames, frames.bin {n_samples}")
    if np.any(records["label"] >= len(CLASS_ORDER)) or np.any(records["split"] >= len(Split)):
        raise CorruptDataset("label or split code out of range")
    if not np.all(frame_lines_valid(records["lines"], config.crop_db)):
        raise CorruptDataset("frame violates the renormalization invariants")
    if np.any(records["source"] >= n_sources):
        raise CorruptDataset("source index out of range")
    return ds
