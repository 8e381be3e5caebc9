"""Peak memory of the calls whose arrays grow with the data, by tracemalloc.

tracemalloc counts the bytes numpy allocates, so these bounds do not depend
on the host's speed or on its C allocator.  Each bound is a count of the
arrays the call has to hold, in bytes of float64.
"""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from lddg.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from lddg.experiments import ABLATION_CELLS, evaluate, train
from lddg.model import TrainConfig, backward, forward, init_params, total_loss
from lddg.theory import _RISK_SAMPLES, _RISK_SOURCES, make_risk_bound_trial, verify_risk_bound

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
    # In units of one (rows, trunk width) array, a run allocates its step's
    # buffers once: the three trunk activations, two trunk-width arrays the
    # trunk's gradients alternate between, five latent-width ones (half as
    # wide: the posterior's mean and log-variance, backward's d_z, d_mu and
    # std) and the logits, 7.6 units; the batch and its noise, 1 unit; and
    # the parameters, Adam's moments and scratch, the gradients and the
    # initial parameters, 1.2 units.  A step adds its latent sample, the
    # KL and penalty gradients and the CE gradient, 2.1 units, and at its
    # peak about 0.6 units of the KL's or the SVD's temporaries: 12.5 in
    # all.  The previous step's arrays would add 2.1 more.
    sources, _ = sweep_data
    n, width = len(sources), 32
    assert n == 600 and SWEEP_TRAIN.latent_dim == width // 2
    bound = 13 * n * width * F8  # 1.90 MiB
    assert _peak_bytes(train, SWEEP_TRAIN, sources) <= bound


def test_a_lone_forward_and_backward_hold_only_the_arrays_they_write():
    # In units of one (rows, trunk width) array.  forward writes the three
    # trunk activations, the leaky ReLU's temporary, the posterior's mean
    # and log-variance and the latent sample (half a unit each) and the
    # logits: 5.6 units.  backward writes d_z, d_mu and std (half a unit
    # each), the two trunk-width arrays its gradients alternate between and
    # the gradients: 3.5 units.  A whole step's set would add about 3 units
    # to each.
    cfg = TrainConfig()
    rng = np.random.default_rng(0)
    params = init_params(16, 4, cfg, rng)
    n, width = 1600, 32
    x = rng.standard_normal((n, 16))
    noise = rng.standard_normal((n, cfg.latent_dim))
    labels = rng.integers(0, 4, n)
    unit = n * width * F8  # 0.39 MiB
    assert _peak_bytes(forward, params, x, noise) <= 6 * unit
    trace = forward(params, x, noise)
    total_loss(trace, labels, cfg)
    assert _peak_bytes(backward, params, trace, labels, cfg) <= 4 * unit


def _group_bound(members, rows, width, n_params):
    # Per member, the 13 units of one (rows, trunk width) array that bound
    # a lone run (a stacked step holds the same arrays for each member,
    # with a copy of its batch and noise where members share a seed), and
    # five parameter-sized vectors that a 48-row unit is too small to
    # hold: the parameters, Adam's two moments, the gradients and Adam's
    # scratch.
    return members * (13 * rows * width + 5 * n_params) * F8


def test_a_12_member_48_row_group_holds_one_step_per_member():
    sources, _ = generate_synthetic(SyntheticConfig())
    base = TrainConfig(epochs=2)
    members = {f"{cell} {seed}": replace(base, seed=seed, **overrides)
               for cell, overrides in ABLATION_CELLS.items() for seed in (0, 1)}
    n_params = sum(a.size for a in init_params(16, 4, base, np.random.default_rng(0)).flat())
    bound = _group_bound(12, 48, 32, n_params)  # 3.56 MiB
    assert _peak_bytes(train, base, sources, members) <= bound


def test_a_2_member_600_row_group_holds_one_step_per_member(sweep_data):
    sources, _ = sweep_data
    members = {rank: replace(SWEEP_TRAIN, rank_target=rank, seed=rank) for rank in (2, 5)}
    n_params = sum(a.size for a in init_params(16, 4, SWEEP_TRAIN, np.random.default_rng(0)).flat())
    bound = _group_bound(2, 600, 32, n_params)  # 4.10 MiB
    assert _peak_bytes(train, SWEEP_TRAIN, sources, members) <= bound


def test_load_dataset_holds_its_arrays_and_one_line(sweep_data, tmp_path):
    # the features, labels and domain ids, and 64 KiB for one line's text,
    # its tokens and the file's buffer
    _, target = sweep_data
    path = tmp_path / "target.txt"
    save_dataset(path, target)
    n, fd = len(target), target.feature_dim
    bound = n * (fd + 2) * F8 + 64 * 1024  # 0.28 MiB
    assert _peak_bytes(load_dataset, path) <= bound


def test_a_second_theorem_2_trial_holds_only_its_loss_arrays():
    # The latent, score and combined-score blocks are kept from the first
    # trial, so a second allocates only its losses' arrays.  The larger set
    # is the trial builder's, over its K sources of 3000 draws each at once:
    # the (K, 3000, C) exponentials and five (K, 3000) vectors' worth for
    # the row maxima, row sums, losses, label logits and row indices.  The
    # verifier's, over (4000, C), is smaller.  Fresh blocks would add the
    # verifier's (K, 4000, C) scores and (4000, C) combined scores.
    c, samples, k, n = 7, 4000, _RISK_SOURCES, _RISK_SAMPLES

    def trial(i):
        verify_risk_bound(make_risk_bound_trial(0, c, index=i), samples=samples, seed=0, index=i)

    trial(0)
    bound = (k * n * c + 5 * k * n) * F8  # 0.82 MiB
    assert _peak_bytes(trial, 1) <= bound
