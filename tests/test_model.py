import copy
import json
import mmap
import multiprocessing
import os
import pickle
import resource
import signal
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from msmda.data import BatchSampler, SynthConfig, generate_synthetic, synthetic_task
from msmda.errors import DataError, ShapeError, ValidationError
from msmda.losses import KernelSpec, classification_loss
from msmda.model import (
    CHECKPOINT_MAGIC,
    LEAKY_SLOPE,
    ModelConfig,
    TrainConfig,
    _forward,
    arena_size,
    branch_forward,
    branch_lanes,
    compute_losses,
    extract_branch_features,
    init_model,
    load_checkpoint,
    loss_weights,
    predict,
    save_checkpoint,
    step_buffers,
    train_step,
)
from msmda.neuralcore import (
    LinearLayer,
    Parameter,
    adam_step,
    fan_in_uniform,
    finite_difference_check,
    leaky_relu,
    softmax,
)

TOY = ModelConfig(num_branches=3, input_dim=6, cfe_dims=(8, 6, 5),
                  dsfe_dim=4, num_classes=3, rng_seed=11)
FIXED_KERNEL = KernelSpec(kind="rbf_fixed", fixed_bandwidth=1.0)
ROOT = Path(__file__).resolve().parents[1]

# the CPU flags each OpenBLAS core's kernels need
BLAS_CORES = {"Haswell": {"avx2", "fma"}, "SkylakeX": {"avx512f", "avx512bw", "avx512vl"},
              "Sandybridge": {"avx"}, "Nehalem": {"sse4_2"}}

# Prints the BLAS core in use and each (extractor depth, rows, k) whose arena
# bytes after three steps with Adam differ from one process's. Four sources
# and a target of 35, 37 or 50 rows stack 175, 185 or 250 rows: odd halves
# and thirds, so a share cut at n * j // k would start at an odd row.
CORE_MATRIX = """
import json
import numpy as np
from msmda.errors import DataError
from msmda.losses import KernelSpec
from msmda.model import ModelConfig, branch_lanes, init_model, train_step
from output_digests import blas_core

kernel, differ = KernelSpec(kind="rbf_multiscale"), []
for depth in (1, 2, 3, 5):
    config = ModelConfig(num_branches=4, input_dim=9, cfe_dims=(12, 11, 10, 9, 8)[:depth],
                         dsfe_dim=6, num_classes=3, rng_seed=depth)
    for rows in (35, 37, 50):
        rng = np.random.default_rng(rows)
        steps = [([(rng.uniform(-1, 1, (rows, 9)), rng.integers(0, 3, rows)) for _ in range(4)],
                  rng.uniform(-1, 1, (rows, 9))) for _ in range(3)]
        arenas = []
        for k in (1, 2, 3, 4):
            model = init_model(config)
            with branch_lanes(model, (rows,) * 5, [{j} for j in range(k)], DataError):
                for batches, target in steps:
                    train_step(model, batches, target, alpha=0.5, beta=0.01, kernel=kernel)
                assert len(model.step_buffers.lanes) == k - 1
            arenas.append(model.arena.value.tobytes())
        differ += [[depth, 5 * rows, k] for k, a in zip((2, 3, 4), arenas[1:]) if a != arenas[0]]
print(json.dumps([blas_core(), differ]))
"""


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((set(line.partition(":")[2].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def toy_batches(rng, num_branches=3, rows=5, dim=6, num_classes=3):
    batches = [
        (rng.uniform(-1, 1, (rows, dim)), rng.integers(0, num_classes, rows))
        for _ in range(num_branches)
    ]
    target = rng.uniform(-1, 1, (rows, dim))
    return batches, target


class TestInitModel:
    def test_deterministic_given_seed(self):
        a, b = init_model(TOY), init_model(TOY)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert_array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self):
        a = init_model(TOY)
        b = init_model(ModelConfig(num_branches=3, input_dim=6, cfe_dims=(8, 6, 5),
                                   dsfe_dim=4, num_classes=3, rng_seed=12))
        assert any(
            not np.array_equal(pa.value, pb.value)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_default_dimensions(self):
        model = init_model(ModelConfig(num_branches=2))
        shapes = [layer.weight.shape for layer in model.cfe]
        assert shapes == [(310, 256), (256, 128), (128, 64)]
        for branch in model.branches:
            assert branch.dsfe.weight.shape == (64, 32)
            assert branch.dsc.weight.shape == (32, 3)

    def test_fourteen_branches_are_independent(self):
        model = init_model(ModelConfig(num_branches=14, rng_seed=0))
        assert len(model.branches) == 14
        weights = [b.dsfe.weight.value for b in model.branches]
        for i in range(14):
            for j in range(i + 1, 14):
                assert weights[i] is not weights[j]
                assert not np.array_equal(weights[i], weights[j])

    def test_init_bounds_follow_fan_in(self):
        model = init_model(ModelConfig(num_branches=1, rng_seed=3))
        first = model.cfe[0].weight.value
        bound = np.sqrt(1.0 / 310)
        assert np.max(np.abs(first)) <= bound
        assert_array_equal(model.cfe[0].bias.value, np.zeros((1, 256)))

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            ModelConfig(num_branches=0)
        with pytest.raises(ValidationError):
            ModelConfig(num_branches=1, num_classes=1)
        with pytest.raises(ValidationError):
            ModelConfig(num_branches=1, cfe_dims=())


def traversal(model):
    """Every layer in checkpoint order, from the public structure."""
    return model.cfe + [layer for b in model.branches for layer in (b.dsfe, b.dsc)]


class TestArena:
    BUFFERS = ("value", "grad", "adam_m", "adam_v")

    def test_layer_buffers_are_views_tiling_the_arena_in_order(self):
        model = init_model(TOY)
        layers = traversal(model)
        size = model.arena.value.size
        for name in self.BUFFERS:
            getattr(model.arena, name)[0] = np.arange(size)  # seen through every view
            flat = np.concatenate([getattr(p, name).ravel() for layer in layers
                                   for p in (layer.weight, layer.bias)])
            assert_array_equal(flat, np.arange(size))

    def test_init_draws_follow_layer_order(self):
        rng = np.random.default_rng(TOY.rng_seed)
        shapes = [(6, 8), (8, 6), (6, 5)] + [(5, 4), (4, 3)] * 3
        expected = [fan_in_uniform(i, o, rng) for i, o in shapes]
        layers = traversal(init_model(TOY))
        assert len(layers) == len(expected)
        for layer, ref in zip(layers, expected):
            assert_array_equal(layer.weight.value, ref)
            assert_array_equal(layer.bias.value, np.zeros((1, ref.shape[1])))

    def test_train_step_makes_one_adam_call(self, monkeypatch):
        calls = []

        def counting(param, lr, **kwargs):
            calls.append(param)
            adam_step(param, lr, **kwargs)

        monkeypatch.setattr("msmda.model.adam_step", counting)
        model = init_model(TOY)
        batches, target = toy_batches(np.random.default_rng(20))
        train_step(model, batches, target, alpha=0.5, beta=0.01, lr=0.01)
        assert calls == [model.arena]

    def test_flat_adam_equals_per_parameter_adam(self):
        rng = np.random.default_rng(21)
        model = init_model(TOY)
        separate = [Parameter(p.value.copy()) for p in model.parameters()]
        for _ in range(5):
            for p, q in zip(model.parameters(), separate):
                g = rng.normal(0.0, 1.0, p.shape)
                p.grad += g
                q.grad += g
            adam_step(model.arena, lr=0.01)
            for q in separate:
                adam_step(q, lr=0.01)
        for p, q in zip(model.parameters(), separate):
            for name in self.BUFFERS:
                assert getattr(p, name).tobytes() == getattr(q, name).tobytes()

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda m: pickle.loads(pickle.dumps(m))])
    def test_copy_trains_like_the_original(self, duplicate):
        rng = np.random.default_rng(22)
        model = init_model(TOY)
        steps = [toy_batches(rng) for _ in range(4)]
        train_step(model, *steps[0], alpha=0.5, beta=0.01, lr=0.01)
        clone = duplicate(model)
        for name in self.BUFFERS:
            for p in [model.arena] + model.parameters():
                for q in [clone.arena] + clone.parameters():
                    assert not np.shares_memory(getattr(p, name), getattr(q, name))
        for batches, target in steps[1:]:
            a = train_step(model, batches, target, alpha=0.5, beta=0.01, lr=0.01)
            b = train_step(clone, batches, target, alpha=0.5, beta=0.01, lr=0.01)
            assert a == b
        assert clone.arena.step_count == model.arena.step_count == 4
        for name in self.BUFFERS:
            assert getattr(clone.arena, name).tobytes() == getattr(model.arena, name).tobytes()


class TestComputeLosses:
    def test_classification_only_matches_manual_composition(self):
        rng = np.random.default_rng(0)
        model = init_model(TOY)
        reference = copy.deepcopy(model)
        batches, target = toy_batches(rng)

        compute_losses(model, batches, target, alpha=0.0, beta=0.0, kernel=FIXED_KERNEL)

        # manual oracle: push each source batch through its own forward and
        # backward, one branch at a time, cross-entropy only
        slope = LEAKY_SLOPE
        for i, branch in enumerate(reference.branches):
            feats, labels = batches[i]
            h = feats
            acts = []
            for layer in reference.cfe:
                z = layer.forward(h)
                acts.append((h, z))
                h = leaky_relu(z, slope)
            z1 = branch.dsfe.forward(h)
            r = leaky_relu(z1, slope)
            logits = branch.dsc.forward(r)
            _, grads = classification_loss([logits], [labels])
            g = branch.dsc.backward(r, grads[0])
            g = g * np.where(z1 > 0, 1.0, slope)
            g = branch.dsfe.backward(h, g)
            for layer, (x, z) in zip(reversed(reference.cfe), reversed(acts)):
                g = g * np.where(z > 0, 1.0, slope)
                g = layer.backward(x, g)

        for p, q in zip(model.parameters(), reference.parameters()):
            assert_allclose(p.grad, q.grad, rtol=1e-10, atol=1e-14)

    def test_skipped_input_gradient_leaves_every_gradient_bit_identical(self, monkeypatch):
        # the first extractor layer forms no input gradient; every parameter
        # gradient must equal, byte for byte, a backward that forms it
        rng = np.random.default_rng(17)
        model = init_model(TOY)
        reference = copy.deepcopy(model)
        batches, target = toy_batches(rng, rows=20)
        compute_losses(model, batches, target, alpha=0.7, beta=0.05)

        backward, flags = LinearLayer.backward, []

        def always_input_grad(layer, x, grad_out, input_grad=True, out=None, **kwargs):
            if any(layer is c for c in reference.cfe):
                flags.append(input_grad)
            return backward(layer, x, grad_out, out=out, **kwargs)

        monkeypatch.setattr(LinearLayer, "backward", always_input_grad)
        compute_losses(reference, batches, target, alpha=0.7, beta=0.05)
        assert flags == [True, True, False]  # cfe layers, last first
        assert model.arena.grad.tobytes() == reference.arena.grad.tobytes()
        assert np.any(model.arena.grad != 0.0)

    def test_identical_source_and_target_zero_mmd(self):
        rng = np.random.default_rng(1)
        model = init_model(TOY)
        shared = rng.uniform(-1, 1, (6, 6))
        batches = [(shared.copy(), rng.integers(0, 3, 6)) for _ in range(3)]
        bd = compute_losses(model, batches, shared.copy(), alpha=1.0, beta=0.0)
        assert 0.0 <= bd.mmd <= 1e-12

    def test_full_loss_gradcheck_three_branch_toy(self):
        from msmda.harness import composite_gradcheck_case

        model, batches, target, margin = composite_gradcheck_case()
        assert margin > 1e-4  # probes stay away from every kink

        def loss_fn():
            bd = compute_losses(model, batches, target, alpha=0.7, beta=0.05,
                                kernel=FIXED_KERNEL)
            return bd.total

        report = finite_difference_check(loss_fn, model.parameters())
        assert report.passed, report.describe()

    def test_breakdown_identity(self):
        rng = np.random.default_rng(3)
        model = init_model(TOY)
        batches, target = toy_batches(rng)
        bd = compute_losses(model, batches, target, alpha=0.3, beta=0.02)
        assert bd.total == bd.cls + 0.3 * bd.mmd + 0.02 * bd.disc

    def test_non_finite_total_skips_backward(self):
        rng = np.random.default_rng(16)
        model = init_model(TOY)
        model.branches[1].dsc.weight.value[...] = np.inf  # overflowing logits
        batches, target = toy_batches(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            bd = compute_losses(model, batches, target, alpha=0.3, beta=0.02)
        assert np.isnan(bd.total)
        assert_array_equal(model.arena.grad, np.zeros_like(model.arena.grad))

    def test_branch_count_mismatch(self):
        rng = np.random.default_rng(4)
        model = init_model(TOY)
        batches, target = toy_batches(rng, num_branches=2)
        with pytest.raises(ValidationError):
            compute_losses(model, batches, target, alpha=0.0, beta=0.0)

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(5)
        model = init_model(TOY)
        batches, _ = toy_batches(rng)
        with pytest.raises(ShapeError):
            compute_losses(model, batches, rng.uniform(-1, 1, (5, 4)),
                           alpha=0.0, beta=0.0)


def owner(array):
    """The object that owns ``array``'s memory (a mapping's, not a view of it)."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return getattr(array, "obj", array)  # np.frombuffer's base is a memoryview


class TestStepBuffers:
    """The extractor's big arrays live in buffers the model keeps across steps."""

    @staticmethod
    def pointers(model):
        buf = model.step_buffers
        return [a.ctypes.data for a in [buf.x, *buf.outs, *buf.grads, *buf.logits,
                                        *buf.logit_grads, *buf.inputs, *buf.features,
                                        *buf.mmd_grads]]

    def test_consecutive_steps_reuse_the_buffers(self):
        rng = np.random.default_rng(30)
        model = init_model(TOY)
        compute_losses(model, *toy_batches(rng), alpha=0.7, beta=0.05)
        first = self.pointers(model)
        compute_losses(model, *toy_batches(rng), alpha=0.7, beta=0.05)
        assert self.pointers(model) == first

    def test_every_step_array_is_a_view_of_one_shared_mapping(self):
        # branch lanes forked after the buffers work on all of them in place
        rng = np.random.default_rng(34)
        model = init_model(TOY)
        compute_losses(model, *toy_batches(rng), alpha=0.7, beta=0.05)
        buf = model.step_buffers
        owners = {id(owner(a)) for a in [buf.x, *buf.outs, *buf.grads, buf.mmd,
                                         *buf.logits, *buf.logit_grads, *buf.inputs,
                                         *buf.features, *buf.mmd_grads]}
        assert owners == {id(owner(buf.x))}
        assert isinstance(owner(buf.x), mmap.mmap)

    def test_last_output_gradient_is_a_view_of_the_gradient_block(self):
        # each layer's gradient is dead once the next is formed: one block holds them all
        rng = np.random.default_rng(35)
        model = init_model(TOY)
        compute_losses(model, *toy_batches(rng), alpha=0.7, beta=0.05)
        buf = model.step_buffers
        assert np.shares_memory(buf.grads[-1], buf.grads[0])

    def test_changed_batch_size_trains_as_a_fresh_model(self):
        # each step's result must not depend on what the buffers held before
        rng = np.random.default_rng(31)
        model = init_model(TOY)
        for rows in (5, 7, 5, 2):
            batches, target = toy_batches(rng, rows=rows)
            fresh = copy.deepcopy(model)
            assert fresh.step_buffers is None
            expected = train_step(fresh, batches, target, alpha=0.7, beta=0.05)
            assert train_step(model, batches, target, alpha=0.7, beta=0.05) == expected
            assert model.step_buffers.x.shape == (4 * rows, TOY.input_dim)
            assert model.arena.value.tobytes() == fresh.arena.value.tobytes()

    def test_copies_and_checkpoints_carry_no_buffer_bytes(self, tmp_path):
        rng = np.random.default_rng(32)
        model, untouched = init_model(TOY), init_model(TOY)
        compute_losses(model, *toy_batches(rng, rows=50), alpha=0.7, beta=0.05)
        assert model.step_buffers is not None
        assert len(pickle.dumps(model)) == len(pickle.dumps(untouched))
        assert pickle.loads(pickle.dumps(model)).step_buffers is None
        assert copy.deepcopy(model).step_buffers is None
        save_checkpoint(model, tmp_path / "model.ckpt")
        save_checkpoint(untouched, tmp_path / "untouched.ckpt")
        assert ((tmp_path / "model.ckpt").read_bytes()
                == (tmp_path / "untouched.ckpt").read_bytes())
        assert (tmp_path / "model.ckpt").stat().st_size < 8 * arena_size(TOY) + 64

    def test_paper_shape_step_takes_few_page_faults(self):
        # the buffers are reused, so a warm step faults no fresh pages in for them;
        # freeing and reallocating them cost about 2,300-3,300 faults a step
        rng = np.random.default_rng(33)
        model = init_model(ModelConfig(num_branches=14, rng_seed=1))
        faults = []
        for _ in range(5):
            batches, target = toy_batches(rng, num_branches=14, rows=256, dim=310)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train_step(model, batches, target, alpha=0.5, beta=0.01,
                       kernel=KernelSpec(kind="rbf_multiscale"))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert np.median(faults[2:]) < 100, faults


class TestBranchLanes:
    def test_lanes_run_the_steps_kernel(self):
        # the kernel travels in the forward's ask: a step with another kernel
        # keeps its lane, and the lane runs that kernel
        config = ModelConfig(num_branches=4, input_dim=6, cfe_dims=(8, 6, 5), dsfe_dim=4,
                             num_classes=3, rng_seed=11)
        rng = np.random.default_rng(36)
        steps = [toy_batches(rng, num_branches=4) for _ in range(3)]
        kernels = [KernelSpec(), FIXED_KERNEL, KernelSpec(kind="linear")]
        serial, laned = init_model(config), init_model(config)
        for (batches, target), kernel in zip(steps, kernels):
            train_step(serial, batches, target, alpha=0.5, beta=0.01, kernel=kernel)
        with branch_lanes(laned, (5,) * 5, [{0}, {1}], DataError):
            for (batches, target), kernel in zip(steps, kernels):
                train_step(laned, batches, target, alpha=0.5, beta=0.01, kernel=kernel)
                assert len(laned.step_buffers.lanes) == 1
        assert multiprocessing.active_children() == []
        assert laned.arena.value.tobytes() == serial.arena.value.tobytes()

    def test_step_without_backward_leaves_the_lanes_nothing(self):
        # a non-finite total runs no backward: the next step's backward must
        # read only its own forward, on a lane as in this process
        rng = np.random.default_rng(38)
        steps = [toy_batches(rng) for _ in range(2)]
        arenas = []
        for cpus in ([{0}], [{0}, {1}]):
            model = init_model(TOY)
            with branch_lanes(model, (5,) * 4, cpus, DataError):
                totals = [train_step(model, batches, target, alpha=0.5, beta=beta).total
                          for (batches, target), beta in zip(steps, (float("inf"), 0.01))]
            assert np.isnan(totals[0]) and np.isfinite(totals[1])
            arenas.append(model.arena.value.tobytes())
        assert multiprocessing.active_children() == []
        assert arenas[1] == arenas[0]

    def test_paper_shape_step_equals_one_process(self):
        # 15 stacked batches of 256 x 310 in two or three row shares, 14 branches,
        # the extractor's upper weight gradients formed by lane 1
        rng = np.random.default_rng(37)
        batches, target = toy_batches(rng, num_branches=14, rows=256, dim=310)
        kernel = KernelSpec(kind="rbf_multiscale")
        results = []
        for cpus in ([{0}], [{0}, {1}], [{0}, {1}, {2}]):
            model = init_model(ModelConfig(num_branches=14, rng_seed=1))
            with branch_lanes(model, (256,) * 15, cpus, DataError):
                bd = compute_losses(model, batches, target, alpha=0.5, beta=0.01,
                                    kernel=kernel)
                assert len(model.step_buffers.lanes) == len(cpus) - 1
                grad = model.arena.grad.tobytes()
                adam_step(model.arena, 0.01)
            results.append((bd, grad, model.arena.value.tobytes()))
        assert multiprocessing.active_children() == []
        assert results[1:] == [results[0]] * 2

    @pytest.mark.parametrize("core", BLAS_CORES)
    def test_lane_bytes_equal_one_process_on_every_blas_core(self, core):
        # OpenBLAS reads OPENBLAS_CORETYPE when numpy loads it: one interpreter per core
        if not BLAS_CORES[core] <= cpu_flags():
            pytest.skip(f"this CPU lacks the flags OpenBLAS's {core} kernels need")
        env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]))
        proc = subprocess.run([sys.executable, "-c", CORE_MATRIX], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode == -signal.SIGILL:
            pytest.skip(f"OpenBLAS's {core} kernels die with SIGILL on this CPU")
        assert proc.returncode == 0, proc.stderr
        used, differ = json.loads(proc.stdout)
        if used != core:
            pytest.skip(f"this numpy's BLAS runs {used} kernels, not {core}")
        assert differ == [], f"[depth, rows, k] unlike one process under {core}"


class TestTrainStep:
    def test_every_parameter_steps_once(self):
        rng = np.random.default_rng(6)
        model = init_model(TOY)
        batches, target = toy_batches(rng)
        train_step(model, batches, target, alpha=0.5, beta=0.01, lr=0.01)
        assert model.arena.step_count == 1  # every parameter is a view of it
        for p in model.parameters():
            assert np.all(np.isfinite(p.value))
            assert_array_equal(p.grad, np.zeros_like(p.grad))  # consumed

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        batches, target = toy_batches(rng)
        results = []
        for _ in range(2):
            model = init_model(TOY)
            bd = train_step(model, batches, target, alpha=0.5, beta=0.01, lr=0.01)
            results.append((bd, [p.value.copy() for p in model.parameters()]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert_array_equal(a, b)

    def test_loss_decreases_on_fixed_batch(self):
        rng = np.random.default_rng(8)
        model = init_model(TOY)
        batches, target = toy_batches(rng, rows=12)
        first = train_step(model, batches, target, alpha=0.0, beta=0.0, lr=0.01)
        for _ in range(60):
            last = train_step(model, batches, target, alpha=0.0, beta=0.0, lr=0.01)
        assert last.cls < first.cls


class TestLossWeights:
    def test_ramp_and_relative_beta(self):
        cfg = TrainConfig(epochs=10, beta_weight=0.01)
        w_mmd, w_disc = loss_weights(cfg, 0)
        assert w_mmd == 0.0 and w_disc == 0.0  # ramp starts at zero
        w_mmd, w_disc = loss_weights(cfg, 5)
        assert w_mmd > 0.0
        assert w_disc == pytest.approx(0.01 * w_mmd, rel=1e-15)

    def test_absolute_beta(self):
        cfg = TrainConfig(epochs=10, beta_weight=0.02, beta_absolute=True)
        _, w_disc = loss_weights(cfg, 5)
        assert w_disc == 0.02

    def test_disc_start_fraction(self):
        cfg = TrainConfig(epochs=10, disc_start_fraction=0.8)
        assert loss_weights(cfg, 7)[1] == 0.0
        assert loss_weights(cfg, 8)[1] > 0.0

    def test_ablations(self):
        cfg = TrainConfig(epochs=10, ablate_mmd=True, ablate_disc=True)
        w_mmd, w_disc = loss_weights(cfg, 9)
        assert w_mmd == 0.0 and w_disc == 0.0

    def test_ablate_mmd_keeps_disc_ramp(self):
        cfg = TrainConfig(epochs=10, ablate_mmd=True)
        w_mmd, w_disc = loss_weights(cfg, 9)
        assert w_mmd == 0.0 and w_disc > 0.0


class TestPredict:
    def test_identical_branches_average_to_same(self):
        model = init_model(TOY)
        clone = model.branches[0]
        for i in range(1, len(model.branches)):
            model.branches[i] = copy.deepcopy(clone)
        x = np.random.default_rng(9).uniform(-1, 1, (8, 6))
        avg, labels, per_branch = predict(model, x)
        for p in per_branch:
            assert_allclose(p, per_branch[0], rtol=0, atol=0)
        assert_allclose(avg, per_branch[0], rtol=1e-15)

    def test_tie_break_to_lowest_class(self):
        model = init_model(ModelConfig(num_branches=2, input_dim=4, cfe_dims=(4, 4, 4),
                                       dsfe_dim=3, num_classes=3, rng_seed=0))
        # zero the classifier weights and pin opposite confident biases
        for branch, hot in zip(model.branches, (0, 1)):
            branch.dsc.weight.value[...] = 0.0
            branch.dsc.bias.value[...] = -50.0
            branch.dsc.bias.value[0, hot] = 50.0
        avg, labels, per_branch = predict(model, np.zeros((3, 4)))
        assert_allclose(avg[:, 0], 0.5, atol=1e-12)
        assert_allclose(avg[:, 1], 0.5, atol=1e-12)
        assert_array_equal(labels, [0, 0, 0])  # exact tie goes to class 0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        model = init_model(TOY)
        avg, _, per_branch = predict(model, rng.uniform(-1, 1, (20, 6)))
        assert np.max(np.abs(avg.sum(axis=1) - 1.0)) < 1e-12
        for p in per_branch:
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_labels_invariant_to_positive_rescale(self):
        rng = np.random.default_rng(11)
        model = init_model(TOY)
        avg, labels, _ = predict(model, rng.uniform(-1, 1, (15, 6)))
        rescaled = np.argmax(3.7 * avg, axis=1)
        assert_array_equal(labels, rescaled)

    def test_dim_mismatch(self):
        model = init_model(TOY)
        with pytest.raises(ShapeError):
            predict(model, np.zeros((2, 5)))

    def test_predict_leaves_no_cached_state(self):
        rng = np.random.default_rng(12)
        model = init_model(TOY)
        batches, target = toy_batches(rng)
        train_step(model, batches, target, alpha=0.5, beta=0.01)
        predict(model, rng.uniform(-1, 1, (4, 6)))
        for layer in model.layers:
            assert set(vars(layer)) == {"weight", "bias"}


class TestExtractBranchFeatures:
    def test_output_width_is_feature_dim(self):
        rng = np.random.default_rng(13)
        model = init_model(TOY)
        outs = list(extract_branch_features(model, rng.uniform(-1, 1, (7, 6))))
        assert [out.shape for out in outs] == [(7, 4)] * 3
        default_model = init_model(ModelConfig(num_branches=1))
        [out] = extract_branch_features(default_model, rng.uniform(-1, 1, (2, 310)))
        assert out.shape == (2, 32)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        model = init_model(TOY)
        x = rng.uniform(-1, 1, (5, 6))
        for a, b in zip(extract_branch_features(model, x), extract_branch_features(model, x)):
            assert_array_equal(a, b)

    def test_matches_train_step_internals(self):
        rng = np.random.default_rng(15)
        model = init_model(TOY)
        batches, target = toy_batches(rng)
        # the step buffers and per-branch forward that compute_losses runs
        feats = [f for f, _ in batches] + [target]
        buf = step_buffers(model, tuple(f.shape[0] for f in feats))
        _forward(model, np.concatenate(feats, out=buf.x), buf.outs)
        for i in range(3):
            branch_forward(model, buf, i, KernelSpec())
        branch_features = buf.features
        target_features = list(extract_branch_features(model, target))
        for i in range(3):
            n_src = batches[i][0].shape[0]
            assert_allclose(
                list(extract_branch_features(model, batches[i][0]))[i],
                branch_features[i][:n_src], rtol=1e-12, atol=1e-15,
            )
            assert_allclose(
                target_features[i],
                branch_features[i][n_src:], rtol=1e-12, atol=1e-15,
            )


def write_checkpoint_header(path, input_dim=6, cfe_dims=(8, 6, 5), dsfe_dim=4,
                            num_classes=3, num_branches=3, slope=0.01, payload=b""):
    path.write_bytes(
        CHECKPOINT_MAGIC
        + struct.pack("<IIIIIdq", input_dim, len(cfe_dims), dsfe_dim, num_classes,
                      num_branches, slope, 0)
        + struct.pack(f"<{len(cfe_dims)}I", *cfe_dims)
        + payload
    )


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert p.value.tobytes() == q.value.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = init_model(TOY)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_huge_dims_rejected_before_allocating(self, tmp_path):
        # (2**32-1)**2 weights: sized from the header, never allocated
        path = tmp_path / "huge.ckpt"
        write_checkpoint_header(path, input_dim=2**32 - 1, cfe_dims=(2**32 - 1,),
                                payload=b"\x00" * 64)
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_huge_branch_count_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "branches.ckpt"
        write_checkpoint_header(path, num_branches=2**32 - 1, payload=b"\x00" * 64)
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_zero_branches_is_data_error(self, tmp_path):
        path = tmp_path / "zero.ckpt"
        write_checkpoint_header(path, num_branches=0)
        with pytest.raises(DataError, match="num_branches"):
            load_checkpoint(path)

    @pytest.mark.parametrize("slope", [5.0, 0.02, float("nan")])
    def test_bad_leaky_slope_is_data_error(self, tmp_path, slope):
        # the slope is a constant; its header slot must hold exactly that value
        path = tmp_path / "slope.ckpt"
        write_checkpoint_header(path, slope=slope)
        with pytest.raises(DataError, match="leaky_slope"):
            load_checkpoint(path)

    def test_non_finite_weight_is_data_error(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        first_weight = len(CHECKPOINT_MAGIC) + struct.calcsize("<IIIIIdq") + 4 * 3
        blob[first_weight:first_weight + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="non-finite"):
            load_checkpoint(path)

    def test_payload_is_layer_values_in_traversal_order(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        layers = traversal(model)
        payload = b"".join(p.value.astype("<f8").tobytes() for layer in layers
                           for p in (layer.weight, layer.bias))
        header = len(CHECKPOINT_MAGIC) + struct.calcsize("<IIIIIdq") + 4 * 3
        assert path.read_bytes()[header:] == payload

    def test_oversized_file_rejected_without_reading_it(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with open(path, "r+b") as fh:  # a sparse 64 MiB tail
            fh.truncate(path.stat().st_size + 64 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="trailing"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_loaded_parameters_are_writable_copies(self, tmp_path):
        model = init_model(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.arena.value.flags.owndata  # a copy, not the file buffer
        for p in loaded.parameters():
            assert p.value.flags.writeable
            assert np.shares_memory(p.value, loaded.arena.value)


class TestTrainingBehaviour:
    def test_separable_two_class_task_reaches_full_source_accuracy(self):
        # N = 2 branches, wide margins: sources should be memorized quickly
        wins = 0
        for seed in range(10):
            cfg = SynthConfig(num_domains=3, samples_per_domain=40, num_classes=2,
                              feature_dim=4, class_separation=6.0,
                              domain_shift_scale=0.2, noise_std=0.4, rng_seed=seed)
            task = synthetic_task(generate_synthetic(cfg))
            model = init_model(ModelConfig(
                num_branches=2, input_dim=4, cfe_dims=(8, 6, 4), dsfe_dim=3,
                num_classes=2, rng_seed=seed,
            ))
            sampler = BatchSampler(task, batch_size=20, seed=np.random.SeedSequence(seed))
            source_feats = np.vstack([s.features for s in task.sources])
            source_labels = np.concatenate([s.labels for s in task.sources])
            solved = False
            for epoch in range(200):
                alpha = 0.0
                for _ in range(2):
                    batches, target = sampler.next_batch()
                    train_step(model, batches, target, alpha=alpha, beta=0.0, lr=0.01)
                _, pred, _ = predict(model, source_feats)
                if np.all(pred == source_labels):
                    solved = True
                    break
            wins += solved
        assert wins >= 9, f"only {wins}/10 seeds reached full source accuracy"
