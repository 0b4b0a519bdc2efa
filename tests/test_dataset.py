import json
import struct

import numpy as np
import pytest

import chatterdetect as cd
import chatterdetect.dataset as dataset_module
from chatterdetect.dataset import FRAMES_FILE, MANIFEST_FILE, Split, record_dtype, stratified_split
from chatterdetect.errors import CorruptDataset, EmptyDataset
from chatterdetect.signal_io import LabelInterval, LabelTrack, MachiningClass
from chatterdetect.spectral import SpectralConfig

CFG = SpectralConfig()


def one_chatter_signal(duration_s=1.0, seed=3):
    spec = cd.SynthSpec(
        cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, seed=seed, duration_s=duration_s
    )
    sig = cd.generate(spec)
    track = LabelTrack((LabelInterval(0.0, duration_s, MachiningClass.CHATTER),))
    return sig, track


def test_single_signal_seventy_thirty():
    sig, track = one_chatter_signal()
    ds = cd.build_dataset([(sig, track, False)], CFG, split_seed=0, test_fraction=0.0)
    assert len(ds) == 10
    assert cd.class_distribution(ds, Split.TRAIN) == {
        MachiningClass.CHATTER: 7,
        MachiningClass.MACHINING_NO_CHATTER: 0,
        MachiningClass.ROTATION_NO_MACHINING: 0,
    }
    assert cd.class_distribution(ds, Split.VAL)[MachiningClass.CHATTER] == 3


def test_straddling_frames_are_dropped():
    sig, _ = one_chatter_signal()
    track = LabelTrack(
        (
            LabelInterval(0.0, 0.35, MachiningClass.CHATTER),
            LabelInterval(0.35, 1.0, MachiningClass.MACHINING_NO_CHATTER),
        )
    )
    ds = cd.build_dataset([(sig, track, False)], CFG, split_seed=0, test_fraction=0.0)
    # frames at 0.0/0.1/0.2 fit the first interval, 0.4..0.9 the second;
    # the frame spanning [0.3, 0.4) straddles the boundary and is dropped
    assert len(ds) == 9
    assert ds.manifest["dropped_frames"] == 1
    labels = ds.records["label"].tolist()
    assert labels.count(int(MachiningClass.CHATTER)) == 3
    assert labels.count(int(MachiningClass.MACHINING_NO_CHATTER)) == 6


def test_empty_dataset_when_nothing_labeled():
    sig, _ = one_chatter_signal()
    track = LabelTrack((LabelInterval(0.0, 0.05, MachiningClass.CHATTER),))
    with pytest.raises(EmptyDataset):
        cd.build_dataset([(sig, track, False)], CFG, split_seed=0, test_fraction=0.0)


def test_a_signal_with_no_labeled_frame_is_not_extracted(monkeypatch):
    extracted = []

    def recording_extract(signal, config):
        extracted.append(id(signal))
        return cd.extract_frames(signal, config)

    monkeypatch.setattr(dataset_module, "extract_frames", recording_extract)
    (sig, track), (unlabeled, _) = one_chatter_signal(seed=3), one_chatter_signal(seed=4)
    short = LabelTrack((LabelInterval(0.0, 0.05, MachiningClass.CHATTER),))
    ds = cd.build_dataset([(unlabeled, short, False), (sig, track, False)], CFG, test_fraction=0.0)
    assert extracted == [id(sig)]
    assert ds.records["source"].tolist() == [1] * 10 and ds.manifest["dropped_frames"] == 10
    with pytest.raises(EmptyDataset):
        cd.build_dataset([(unlabeled, short, False)], CFG)
    assert extracted == [id(sig)]


def stratified_floor_oracle(n, test_fraction=0.0, val_fraction=0.3):
    n_test = int(np.floor(test_fraction * n))
    n_val = int(np.floor(val_fraction * (n - n_test)))
    return n - n_test - n_val, n_val, n_test


def test_stratified_split_reproduces_published_totals():
    # per-class train+val totals of the published distribution table
    totals = {
        MachiningClass.CHATTER: 3087,
        MachiningClass.MACHINING_NO_CHATTER: 5513,
        MachiningClass.ROTATION_NO_MACHINING: 1580,
    }
    published_train = {
        MachiningClass.CHATTER: 2161,
        MachiningClass.MACHINING_NO_CHATTER: 3859,
        MachiningClass.ROTATION_NO_MACHINING: 1106,
    }
    labels = np.concatenate([np.full(n, int(c)) for c, n in totals.items()])
    splits = stratified_split(labels, np.zeros(labels.size, bool), split_seed=1, test_fraction=0.0)
    for cls, n in totals.items():
        train = int(((labels == int(cls)) & (splits == int(Split.TRAIN))).sum())
        val = int(((labels == int(cls)) & (splits == int(Split.VAL))).sum())
        want_train, want_val, _ = stratified_floor_oracle(n)
        assert (train, val) == (want_train, want_val)
        assert abs(train - published_train[cls]) <= 1
    total_train = int((splits == int(Split.TRAIN)).sum())
    assert abs(total_train - 7126) <= 3


def test_stratified_split_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 400))
        labels = rng.integers(0, 3, n)
        ambiguous = rng.random(n) < 0.2
        tf = float(rng.uniform(0.0, 0.5))
        splits = stratified_split(labels, ambiguous, int(rng.integers(1e6)), tf)
        # ambiguous samples all land in the held-out ambiguous split
        assert np.all((splits == int(Split.TEST2_AMBIGUOUS)) == ambiguous)
        for cls in range(3):
            mask = (labels == cls) & ~ambiguous
            n_cls = int(mask.sum())
            train = int((splits[mask] == int(Split.TRAIN)).sum())
            val = int((splits[mask] == int(Split.VAL)).sum())
            test = int((splits[mask] == int(Split.TEST)).sum())
            want_train, want_val, want_test = stratified_floor_oracle(n_cls, tf)
            assert (train, val, test) == (want_train, want_val, want_test)
            # train:val within one sample of 70:30
            if train + val:
                assert abs(val - 0.3 * (train + val)) <= 1.0


@pytest.mark.parametrize(
    "test_fraction",
    [0.0, 0.2, 0.9, np.nextafter(1.0, 0.0), np.nextafter(np.float32(1.0), np.float32(0.0))],
    ids=["0", "0.2", "0.9", "float64-below-1", "float32-below-1"],
)
def test_every_class_with_an_unambiguous_frame_keeps_a_train_frame(test_fraction):
    # floor(f * n) < n for f < 1, and floor(0.3 * r) < r for the r left
    for n in range(1, 400):
        # chatter has n unambiguous frames, machining n // 2, rotation only
        # ambiguous ones
        labels = np.repeat([0, 1, 2], [n, n // 2, 3])
        ambiguous = labels == 2
        splits = stratified_split(labels, ambiguous, split_seed=n, test_fraction=test_fraction)
        for cls in MachiningClass:
            unambiguous = (labels == cls) & ~ambiguous
            if unambiguous.any():
                assert (splits[unambiguous] == Split.TRAIN).any(), (n, cls)


def test_split_assignment_is_deterministic():
    labels = np.random.default_rng(0).integers(0, 3, 500)
    ambiguous = np.zeros(500, bool)
    a = stratified_split(labels, ambiguous, split_seed=42, test_fraction=0.25)
    b = stratified_split(labels, ambiguous, split_seed=42, test_fraction=0.25)
    assert np.array_equal(a, b)
    c = stratified_split(labels, ambiguous, split_seed=43, test_fraction=0.25)
    assert not np.array_equal(a, c)


def test_splits_partition_dataset(small_dataset):
    seen = sorted(i for s in Split for i in small_dataset.split_indices(s))
    assert seen == list(range(len(small_dataset)))
    # a frame is in the ambiguous split exactly when its recording is ambiguous
    sources, records = small_dataset.manifest["sources"], small_dataset.records
    ambiguous = np.array([source["ambiguous"] for source in sources])
    assert ambiguous.any() and not ambiguous.all()
    assert np.array_equal(ambiguous[records["source"]], records["split"] == Split.TEST2_AMBIGUOUS)


def test_save_load_round_trip(tmp_path, small_dataset):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    back = cd.load_dataset(tmp_path / "ds")
    assert back == small_dataset


def test_numpy_scalar_config_round_trips(tmp_path):
    # the config holds plain numbers, so the manifest states them as JSON numbers
    config = SpectralConfig(hop_s=np.float64(0.1), n_lines=np.int64(1024),
                            crop_db=np.float32(20.0))
    sig, track = one_chatter_signal()
    ds = cd.build_dataset([(sig, track, False)], config, test_fraction=np.float64(0.2))
    cd.save_dataset(ds, tmp_path / "ds")
    back = cd.load_dataset(tmp_path / "ds")
    assert back == ds
    manifest = json.loads((tmp_path / "ds" / MANIFEST_FILE).read_text())
    assert (manifest["hop_s"], manifest["n_lines"], manifest["test_fraction"]) == (0.1, 1024, 0.2)
    cd.save_model(cd.build_model(0, config), tmp_path / "m.chmd")
    assert cd.load_model(tmp_path / "m.chmd").config == back.config


@pytest.mark.parametrize("text", ["a\nb", "a\r", "a\u2028b"])
def test_source_id_holding_a_line_break_round_trips(tmp_path, text):
    # JSON escapes line breaks, so no id can split the manifest
    sig, track = one_chatter_signal()
    ds = cd.build_dataset([(sig, track, False)] * 2, CFG, test_fraction=0.0,
                          source_ids=[text, "c"])
    cd.save_dataset(ds, tmp_path / "ds")
    back = cd.load_dataset(tmp_path / "ds")
    assert back == ds and back.manifest["sources"][0]["id"] == text


@pytest.mark.parametrize("text", [pytest.param('{"a": 1}\nsplit_seed=5', id="split_seed-line"),
                                  "a\r", "a\u2028b"])
def test_source_spec_holding_a_line_break_round_trips(tmp_path, text):
    # a manifest read line by line would take the note's second line as split_seed=5
    sig, track = one_chatter_signal()
    specs = [{"note": text, "bar": "a|b", "seed": 3}, None]
    ds = cd.build_dataset([(sig, track, False)] * 2, CFG, test_fraction=0.0,
                          source_specs=specs)
    cd.save_dataset(ds, tmp_path / "ds")
    back = cd.load_dataset(tmp_path / "ds")
    assert back == ds and [s["spec"] for s in back.manifest["sources"]] == specs
    assert back.manifest["split_seed"] == 0


@pytest.mark.parametrize("field", ["source_ids", "source_specs"])
@pytest.mark.parametrize("n", [1, 3])
def test_source_ids_and_specs_must_parallel_pairs(field, n):
    sig, track = one_chatter_signal()
    with pytest.raises(ValueError, match=f"{field} must parallel pairs"):
        cd.build_dataset([(sig, track, False)] * 2, CFG, test_fraction=0.0,
                         **{field: ["x"] * n})


def test_source_id_holding_a_bar_round_trips(tmp_path):
    sig, track = one_chatter_signal()
    ds = cd.build_dataset([(sig, track, False)] * 2, CFG, test_fraction=0.0,
                          source_ids=["a|b", "|"])
    cd.save_dataset(ds, tmp_path / "ds")
    back = cd.load_dataset(tmp_path / "ds")
    assert back == ds
    assert [source["id"] for source in back.manifest["sources"]] == ["a|b", "|"]


def test_records_name_their_own_recording_when_a_source_keeps_no_frame():
    # source 0's labels are too short to hold a 0.1 s frame
    pairs, ids, specs = [], [], []
    for i, seed in enumerate((3, 4, 5)):
        sig, track = one_chatter_signal(seed=seed)
        if i == 0:
            track = LabelTrack((LabelInterval(0.0, 0.05, MachiningClass.CHATTER),))
        pairs.append((sig, track, i == 2))
        ids.append(f"chatter-{i:04d}")
        specs.append({"seed": seed})
    ds = cd.build_dataset(pairs, CFG, test_fraction=0.0, source_ids=ids, source_specs=specs)
    assert len(ds.manifest["sources"]) == 3
    assert sorted(set(ds.records["source"].tolist())) == [1, 2]
    frames = [cd.extract_frames(sig, CFG) for sig, _, _ in pairs]
    for rec in ds.records:
        i = int(rec["source"])
        # the frame is one of recording i's, and the manifest names that recording
        assert np.array_equal(rec["lines"], frames[i][rec["frame_index"]].lines)
        assert ds.manifest["sources"][i] == {"id": ids[i], "ambiguous": i == 2, "spec": specs[i]}
        assert (rec["split"] == Split.TEST2_AMBIGUOUS) == (i == 2)


def test_frames_file_size_formula(tmp_path, small_dataset):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    size = (tmp_path / "ds" / FRAMES_FILE).stat().st_size
    assert size == 8 + len(small_dataset) * (4 * 1024 + 20)


def test_frames_file_layout(tmp_path, small_dataset):
    # the documented layout, packed field by field
    cd.save_dataset(small_dataset, tmp_path / "ds")
    parts = [struct.pack("<4sI", b"CHDS", 3)]
    for rec in small_dataset.records:
        parts.append(
            struct.pack(
                "<IIdBBxx1024f",
                rec["source"], rec["frame_index"], rec["t_start"],
                rec["label"], rec["split"], *rec["lines"].tolist(),
            )
        )
    assert (tmp_path / "ds" / FRAMES_FILE).read_bytes() == b"".join(parts)


def test_large_dataset_size_is_exact(tmp_path):
    # 10180 frames of the degenerate all-floor spectrum
    records = np.zeros(10180, dtype=record_dtype(1024))
    records["frame_index"] = np.arange(10180)
    records["t_start"] = np.arange(10180) * 0.1
    records["label"] = MachiningClass.CHATTER
    records["split"] = Split.TEST2_AMBIGUOUS
    records["lines"] = -20.0
    manifest = {"hop_s": 0.1, "window_s": 0.1, "n_lines": 1024, "f_max_hz": 2500.0,
                "crop_db": 20.0, "n_samples": 10180,
                "sources": [{"id": "x", "ambiguous": True, "spec": None}]}
    ds = cd.LabeledDataset(records, manifest)
    cd.save_dataset(ds, tmp_path / "big")
    size = (tmp_path / "big" / FRAMES_FILE).stat().st_size
    assert size == 8 + 10180 * (1024 * 4 + 20)
    assert cd.load_dataset(tmp_path / "big") == ds


def test_truncated_file_is_rejected(tmp_path, small_dataset):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")


def test_bad_magic_and_version_are_rejected(tmp_path, small_dataset):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")

    cd.save_dataset(small_dataset, tmp_path / "ds")
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")


def test_version_1_frames_file_is_rejected(tmp_path, small_dataset):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(CorruptDataset, match="unsupported version 1$"):
        cd.load_dataset(tmp_path / "ds")


def test_version_2_dataset_is_rejected(tmp_path, small_dataset):
    # the layout earlier code wrote: a 16-byte header that restated n_lines
    # and n_samples, and a key=value manifest
    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    header = struct.pack("<4sIII", b"CHDS", 2, 1024, len(small_dataset))
    path.write_bytes(header + path.read_bytes()[8:])
    (tmp_path / "ds" / MANIFEST_FILE).write_text("format=chatterdetect-dataset\nversion=2\n")
    with pytest.raises(CorruptDataset, match="unsupported version 2$"):
        cd.load_dataset(tmp_path / "ds")


def _edit_manifest(directory, edit):
    path = directory / MANIFEST_FILE
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(n_samples=m["n_samples"] + 1),
        lambda m: m.update(n_samples=str(m["n_samples"])),
        lambda m: m.pop("n_samples"),
        lambda m: m["sources"].pop(),
        lambda m: m.pop("sources"),
    ],
    ids=["n_samples-differs", "n_samples-not-int", "no-n_samples", "too-few-sources",
         "no-sources"],
)
def test_manifest_counts_must_match_frames_file(tmp_path, small_dataset, edit):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", edit)
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(n_samples=float(m["n_samples"])),
        lambda m: m.update(n_samples=True),
        lambda m: m.update(n_samples=-1),
        lambda m: m.update(sources={"0": m["sources"][0]}),
        lambda m: m["sources"].__setitem__(0, "chatter-0000"),
        lambda m: m["sources"][0].pop("id"),
        lambda m: m["sources"][0].update(id=7),
        lambda m: m["sources"][0].pop("ambiguous"),
        lambda m: m["sources"][0].update(ambiguous=1),
        lambda m: m["sources"][0].update(ambiguous="false"),
        lambda m: m.update(hop_s=10**400),
        lambda m: m.update(hop_s="0.1"),
        lambda m: m.update(hop_s=None),
        lambda m: m.update(hop_s=[0.1]),
    ],
    ids=["n_samples-a-float", "n_samples-a-bool", "n_samples-negative", "sources-an-object",
         "source-a-string", "no-id", "id-a-number", "no-ambiguous", "ambiguous-a-number",
         "ambiguous-a-string", "hop_s-past-float-range", "hop_s-a-string", "hop_s-null",
         "hop_s-a-list"],
)
def test_manifest_values_must_have_their_types(tmp_path, small_dataset, edit):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", edit)
    with pytest.raises(CorruptDataset, match="^manifest"):
        cd.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "text", ["", "key=value\n", "[]", "null", "[" * 100_000, '{"n_samples": 1,'],
    ids=["empty", "key-value", "a-list", "null", "nested-100000-deep", "truncated"],
)
def test_manifest_that_is_no_json_object_is_corrupt(tmp_path, small_dataset, text):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    (tmp_path / "ds" / MANIFEST_FILE).write_text(text)
    with pytest.raises(CorruptDataset, match="^manifest: "):
        cd.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("field", ["hop_s", "window_s", "n_lines", "f_max_hz", "crop_db"])
def test_manifest_must_state_every_spectral_field(tmp_path, small_dataset, field):
    # a default read in its place would frame predictions unlike the dataset
    cd.save_dataset(small_dataset, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", lambda m: m.pop(field))
    with pytest.raises(CorruptDataset, match=field):
        cd.load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("n_lines", [512, "many"])
def test_manifest_line_count_must_match_frames_file(tmp_path, small_dataset, n_lines):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", lambda m: m.update(n_lines=n_lines))
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")


def _set_lines(values):
    def corrupt(records):
        records["lines"][0] = values
    return corrupt


def _set_field(field, value):
    def corrupt(records):
        # on the first frame outside the ambiguous split
        records[field][np.argmax(records["split"] != Split.TEST2_AMBIGUOUS)] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _set_lines(5.0),
        _set_lines(np.where(np.arange(1024) == 7, np.nan, 0.0)),
        _set_lines(np.where(np.arange(1024) == 7, np.inf, 0.0)),
        _set_lines(np.where(np.arange(1024) == 7, -np.inf, 0.0)),
        _set_lines(-10.0),  # in range, not at the floor, peak below 0 dB
        _set_field("label", 3),
        _set_field("split", 4),
        _set_field("source", 10**6),
    ],
    ids=["above-0db", "nan", "inf", "-inf", "peak-below-0db", "label-3", "split-4",
         "source-out-of-range"],
)
def test_corrupt_frame_values_are_rejected(tmp_path, small_dataset, corrupt):
    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    blob = bytearray(path.read_bytes())
    corrupt(np.frombuffer(blob, dtype=record_dtype(1024), offset=8))
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptDataset):
        cd.load_dataset(tmp_path / "ds")


def test_class_distribution_empty_split():
    sig, track = one_chatter_signal()
    ds = cd.build_dataset([(sig, track, False)], CFG, split_seed=0, test_fraction=0.0)
    assert cd.class_distribution(ds, Split.TEST2_AMBIGUOUS) == {
        cls: 0 for cls in cd.MachiningClass
    }


def test_build_dataset_determinism(small_corpus):
    pairs = [(it.signal, it.labels, it.ambiguous) for it in small_corpus]
    ids = [it.item_id for it in small_corpus]
    a = cd.build_dataset(pairs, CFG, split_seed=5, test_fraction=0.2, source_ids=ids)
    b = cd.build_dataset(pairs, CFG, split_seed=5, test_fraction=0.2, source_ids=ids)
    assert a == b
