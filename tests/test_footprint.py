"""Peak memory of the calls whose arrays grow with the data, by tracemalloc.

tracemalloc counts the bytes numpy allocates, so these bounds do not depend
on the host's speed or on its C allocator.  Each bound is a count of the
arrays the call has to hold, in bytes of float64.
"""

import tracemalloc

import numpy as np
import pytest

from lddg.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from lddg.experiments import evaluate, train
from lddg.model import TrainConfig, init_params

F8 = 8  # bytes per float64

# criterion 09's data and training settings, for 3 epochs: one 600-row step each
SWEEP_DATA = SyntheticConfig(offset_scale=0.6)
SWEEP_TRAIN = TrainConfig(
    lambda1=0.5, lambda2=0.01, learning_rate=1e-2, weight_decay=0.0, epochs=3,
    batch_per_domain=200, lr_decay_every=300, rank_target=4,
)


@pytest.fixture(scope="module")
def sweep_data():
    return generate_synthetic(SWEEP_DATA)


def _peak_bytes(fn, *args):
    """The most bytes ``fn(*args)`` held at once beyond what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_evaluate_holds_two_trunk_layers_at_a_time(sweep_data):
    # a trunk layer's output and its activation's temporary (the layer's
    # input is released first), and 128 KiB for the narrower arrays
    _, target = sweep_data
    cfg = TrainConfig()
    params = init_params(target.feature_dim, target.num_classes, cfg,
                         np.random.default_rng(0))
    width = max(*cfg.encoder_dims, cfg.head_hidden_dim)
    n = len(target)
    assert n == 1600
    bound = 2 * n * width * F8 + 128 * 1024  # 0.91 MiB
    assert _peak_bytes(evaluate, params, target) <= bound


def test_training_holds_one_step_at_a_time(sweep_data):
    # In units of one (rows, trunk width) array, a step holds its trace: the
    # three trunk activations, 8 latent-width arrays (half as wide: the
    # batch, its noise, the posterior, z and the KL and penalty gradients)
    # and two class-width ones, 7.25 units; backward's temporaries at their
    # peak, two trunk-width and three latent-width arrays, 3.5 units; and
    # the parameters with Adam's moments, 0.6 units.  That is 11.35 units;
    # the previous step's trace would add 7.25 more.
    sources, _ = sweep_data
    n, width = len(sources), 32
    assert n == 600 and SWEEP_TRAIN.latent_dim == width // 2
    bound = 13 * n * width * F8  # 1.90 MiB
    assert _peak_bytes(train, SWEEP_TRAIN, sources) <= bound


def test_load_dataset_holds_its_arrays_and_one_line(sweep_data, tmp_path):
    # the features, labels and domain ids, and 64 KiB for one line's text,
    # its tokens and the file's buffer
    _, target = sweep_data
    path = tmp_path / "target.txt"
    save_dataset(path, target)
    n, fd = len(target), target.feature_dim
    bound = n * (fd + 2) * F8 + 64 * 1024  # 0.28 MiB
    assert _peak_bytes(load_dataset, path) <= bound
