import pytest

import chatterdetect as cd


@pytest.fixture(scope="session")
def small_corpus():
    """18 signals (6 ambiguous), two spindle speeds; shared across tests."""
    return cd.generate_corpus(6, 1.0 / 3.0, [1800, 3000], seed=1234)


@pytest.fixture(scope="session")
def small_dataset(small_corpus):
    return cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in small_corpus],
        split_seed=99,
        test_fraction=0.25,
        source_ids=[it.item_id for it in small_corpus],
    )


@pytest.fixture(scope="session")
def real_frames(small_corpus):
    """A handful of genuine renormalized frames, one per corpus signal."""
    return [cd.extract_frames(it.signal)[0].lines for it in small_corpus[:6]]


@pytest.fixture(scope="session")
def trained_small_model(small_dataset):
    model = cd.build_model(7)
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=4, rng_seed=7))
    return model

