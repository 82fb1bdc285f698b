"""Unit tests for the tensor/tape engine.

Every differentiable op is checked against the central finite-difference
oracle on random float64 inputs, alongside the hand-computed examples.
"""

import ast
import itertools
import math
import os
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metaseq import tensor_core as tc
from metaseq.errors import (
    ContractError,
    DimensionError,
    LabelError,
    NumericError,
    ParameterError,
    StateError,
)

from helpers import fd_gradient, masked_sigmoid, op_pool, peak_bytes, sum_all, zero_grads


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grads(build, tensors, tol=1e-4, h=1e-6):
    """Compare tape gradients of scalar ``build()`` against finite differences."""
    zero_grads(tensors)
    with tc.Tape() as tape:
        loss = build()
    tc.backward(loss, tape, parameters=tensors)
    analytic = [t.grad.copy() for t in tensors]
    numeric = fd_gradient(lambda: build().data, tensors, h=h)
    for a, n in zip(analytic, numeric):
        assert rel_err(a, n) < tol
    zero_grads(tensors)


class TestTensor:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            tc.Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            tc.Tensor([float("inf")])

    def test_shape_matches_data(self):
        t = tc.Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6


class TestMatmul:
    def test_identity(self):
        a = tc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = tc.Tensor(np.eye(2))
        np.testing.assert_array_equal(tc.matmul(eye, a).data, a.data)

    def test_hand_product(self):
        a = tc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tc.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(tc.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self):
        z = tc.Tensor(np.zeros((2, 3)))
        b = tc.Tensor(np.arange(12.0).reshape(3, 4))
        assert not tc.matmul(z, b).data.any()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            tc.matmul(tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.zeros((2, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(0)
        a = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = tc.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        check_grads(lambda: sum_all(tc.tanh_act(tc.matmul(a, b))), [a, b])


class TestConvSeq:
    """Single-kernel sequence convolution: conv_bank with a (c, d, w, 1) kernel."""

    def test_zero_kernel(self):
        rng = np.random.default_rng(1)
        stack = tc.Tensor(rng.normal(size=(2, 5, 3)))
        k = tc.Tensor(np.zeros((2, 3, 3, 1)))
        assert not tc.conv_bank(stack, [k]).data.any()

    def test_identity_window(self):
        stack = tc.Tensor(np.array([5.0, -2.0, 7.0]).reshape(1, 3, 1))
        k = tc.Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(tc.conv_bank(stack, [k]).data[:, 0], [5.0, -2.0, 7.0])

    def test_window_two_right_pad(self):
        # direct-summation oracle over every (position, offset) pair
        seq = np.array([1.0, 2.0, 3.0])
        stack = tc.Tensor(seq.reshape(1, 3, 1))
        k = tc.Tensor(np.ones((1, 1, 2, 1)))
        expected = []
        padded = np.concatenate([seq, [0.0]])
        for i in range(3):
            expected.append(sum(padded[i + o] for o in range(2)))
        assert expected == [3.0, 5.0, 3.0]
        np.testing.assert_allclose(tc.conv_bank(stack, [k]).data[:, 0], expected)

    def test_brute_force_oracle_random(self):
        rng = np.random.default_rng(7)
        c, n, d, w = 3, 6, 4, 3
        inp = rng.normal(size=(c, n, d))
        kern = rng.normal(size=(c, w, d))
        padded = np.concatenate([inp, np.zeros((c, w - 1, d))], axis=1)
        expected = np.zeros(n)
        for i in range(n):
            for ci in range(c):
                for o in range(w):
                    for di in range(d):
                        expected[i] += padded[ci, i + o, di] * kern[ci, o, di]
        got = tc.conv_bank(tc.Tensor(inp), [tc.Tensor(kern.transpose(0, 2, 1)[..., None])]
                           ).data[:, 0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_output_length_equals_input_length(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 9):
            for w in (1, 2, 5):
                stack = tc.Tensor(rng.normal(size=(2, n, 3)))
                k = tc.Tensor(rng.normal(size=(2, 3, w, 1)))
                assert tc.conv_bank(stack, [k]).shape == (n, 1)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            tc.conv_bank(tc.Tensor(np.zeros((2, 4, 3))), [tc.Tensor(np.zeros((3, 3, 2, 1)))])

    def test_empty_sequence_is_window_error(self):
        from metaseq.errors import WindowError
        with pytest.raises(WindowError):
            tc.conv_bank(tc.Tensor(np.zeros((1, 0, 2))), [tc.Tensor(np.zeros((1, 2, 2, 1)))])

    def test_gradient(self):
        rng = np.random.default_rng(3)
        stack = tc.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        k = tc.Tensor(rng.normal(size=(2, 3, 3, 1)), requires_grad=True)

        def build():
            f = tc.conv_bank(stack, [k])
            return sum_all(tc.mul(f, f))

        check_grads(build, [stack, k])

    def test_bank_matches_single_kernels(self):
        rng = np.random.default_rng(4)
        stack = tc.Tensor(rng.normal(size=(3, 7, 4)))
        kernels = tc.Tensor(rng.normal(size=(3, 4, 2, 5)))
        bank = tc.conv_bank(stack, [kernels]).data
        for j in range(5):
            single = tc.conv_bank(stack, [tc.Tensor(kernels.data[..., j:j + 1])]).data[:, 0]
            np.testing.assert_allclose(bank[:, j], single, atol=1e-12)

    def test_bank_gradient(self):
        rng = np.random.default_rng(5)
        stack = tc.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        kernels = tc.Tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True)
        check_grads(lambda: sum_all(tc.tanh_act(tc.conv_bank(stack, [kernels]))),
                    [stack, kernels])


class TestConvBankTrainableChannels:
    """A three-matrix stack with one trainable matrix, through dropout and
    conv_bank: the input gradient is computed for that channel only."""

    @staticmethod
    def _graph(w, trainable):
        rng = np.random.default_rng(40 + w)
        mats = [tc.Tensor(rng.normal(size=(5, 3)), requires_grad=trainable in (i, "all"))
                for i in range(3)]
        kernels = tc.Tensor(rng.normal(size=(3, 3, w, 4)), requires_grad=True)

        def build():
            # a fresh stream per call: the same dropout mask every time
            block = tc.dropout(tc.stack_mats(mats), 0.3, tc.RngStream(5), training=True)
            out = tc.conv_bank(block, [kernels])
            return sum_all(tc.tanh_act(out)), block, out

        return mats, kernels, build

    @pytest.mark.parametrize("trainable", [0, 1, 2])
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_gradient_matches_finite_differences(self, w, trainable):
        mats, kernels, build = self._graph(w, trainable)
        check_grads(lambda: build()[0], [mats[trainable], kernels])

    @pytest.mark.parametrize("trainable", [0, 1, 2])
    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_gradient_is_bit_equal_to_full_channel_computation(self, w, trainable):
        mats, kernels, build = self._graph(w, trainable)
        with tc.Tape() as tape:
            loss, block, out = build()
        tc.backward(loss, tape)
        assert block.grad_channels == (trainable,)

        # oracle: the input gradient of every channel from one matmul of the
        # shifted map gradient and every kernel row
        c, n, d = block.shape
        shifted = np.zeros((n, w, 4))
        for o in range(min(w, n)):
            shifted[o:, o] = out.grad[:n - o]
        every = (shifted.reshape(n, -1) @ kernels.data.reshape(c * d, -1).T).reshape(n, c, d)
        assert block.grad[trainable].tobytes() == every[:, trainable].tobytes()
        assert not np.delete(block.grad, trainable, axis=0).any()
        for i, m in enumerate(mats):
            assert (m.grad is None) == (i != trainable)

        full_mats, _, full_build = self._graph(w, "all")
        with tc.Tape() as tape:
            full_loss = full_build()[0]
        tc.backward(full_loss, tape)
        assert mats[trainable].grad.tobytes() == full_mats[trainable].grad.tobytes()


class TestConvBankWindows:
    """Several window sizes in one conv_bank call: one tape node whose
    output and gradients are bit-equal to one node per window."""

    WINDOWS = (2, 3, 1)
    COUNTS = (3, 2, 4)

    def _inputs(self, seed=50):
        rng = np.random.default_rng(seed)
        stack = tc.Tensor(rng.normal(size=(3, 6, 4)), requires_grad=True)
        kernels = [tc.Tensor(rng.normal(size=(3, 4, w, k)), requires_grad=True)
                   for w, k in zip(self.WINDOWS, self.COUNTS)]
        return stack, kernels

    @pytest.mark.parametrize("width", [1, 2])
    def test_each_window_is_its_own_product(self, width):
        stack, kernels = self._inputs()
        with op_pool(width):
            bank = tc.conv_bank(stack, kernels).data
        assert bank.shape == (6, sum(self.COUNTS))
        at = 0
        for kern in kernels:
            single = tc.conv_bank(stack, [kern]).data
            for col in range(kern.shape[3]):
                assert bank[:, at + col].tobytes() == single[:, col].tobytes()
            at += kern.shape[3]

    def test_gradient_matches_finite_differences(self):
        stack, kernels = self._inputs(51)
        check_grads(lambda: sum_all(tc.tanh_act(tc.conv_bank(stack, kernels))),
                    [stack, *kernels])

    @pytest.mark.parametrize("width", [1, 2])
    def test_gradients_are_bit_equal_to_one_node_per_window(self, width):
        def grads(build):
            stack, kernels = self._inputs(52)
            with tc.Tape() as tape:
                loss = sum_all(tc.tanh_act(build(stack, kernels)))
            tc.backward(loss, tape)
            return [t.grad.tobytes() for t in (stack, *kernels)]

        with op_pool(width):
            got = grads(tc.conv_bank)
        want = grads(lambda stack, kernels: tc.concat_cols(
            [tc.conv_bank(stack, [kern]) for kern in kernels]))
        assert got == want

    def test_a_long_sequence_peaks_below_one_window_matrix(self):
        """Training's conv builds no (n, c * w * d) window matrix: a forward
        and backward over 400 positions hold less than the widest window's
        would take."""
        rng = np.random.default_rng(53)
        c, n, d, widest = 3, 400, 64, 6
        stack = tc.Tensor(rng.normal(size=(c, n, d)), requires_grad=True)
        kernels = [tc.Tensor(rng.normal(size=(c, d, w, 8)), requires_grad=True)
                   for w in (2, widest)]

        def step():
            with tc.Tape() as tape:
                loss = sum_all(tc.conv_bank(stack, kernels))
            tc.backward(loss, tape)

        for width in (1, 2):
            with op_pool(width):
                assert peak_bytes(step) < n * c * widest * d * 8

    def test_records_one_tape_node(self):
        stack, kernels = self._inputs()
        with tc.Tape() as tape:
            tc.conv_bank(stack, kernels)
        assert [node.op for node in tape.nodes] == ["conv_bank"]
        assert tape.nodes[0].inputs == (stack, *kernels)

    def test_empty_kernel_list_is_contract_error(self):
        with pytest.raises(ContractError, match="at least one kernel"):
            tc.conv_bank(tc.Tensor(np.zeros((2, 4, 3))), [])

    def test_repeated_kernel_tensor_is_contract_error(self):
        stack, kernels = self._inputs()
        with pytest.raises(ContractError, match="given twice"):
            tc.conv_bank(stack, [kernels[0], kernels[1], kernels[0]])

    def test_mismatch_names_the_window(self):
        stack, kernels = self._inputs()
        wrong = tc.Tensor(np.zeros((2, 4, 5, 2)))
        with pytest.raises(DimensionError, match=r"window 5: kernel channels/dim \(2, 4\)"):
            tc.conv_bank(stack, [kernels[0], wrong])


class TestConvMaps:
    """Scoring's conv: ``conv_maps`` of the channels' rows side by side
    over ``fold_kernels``' offset-major kernels is ``conv_bank``'s forward
    on the stack with the mapped channel projected, within 1e-12, and its
    bits do not depend on the pool width."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(windows=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
           c=st.integers(1, 3), d=st.integers(1, 16), mapped_dim=st.integers(1, 16),
           mapped=st.one_of(st.none(), st.integers(0, 2)), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    @example(windows=[6, 1], c=3, d=4, mapped_dim=5, mapped=1, n=1, seed=0)
    @example(windows=[2, 5, 3], c=2, d=16, mapped_dim=1, mapped=None, n=4, seed=1)
    def test_matches_conv_bank_on_the_projected_stack(self, windows, c, d, mapped_dim,
                                                      mapped, n, seed):
        mapped = None if mapped is None else mapped % c    # the mapped channel, if any
        rng = np.random.default_rng(seed)
        linear = {} if mapped is None else {mapped: rng.normal(size=(mapped_dim, d))}
        mats = [rng.normal(size=(n, mapped_dim if ch == mapped else d)) for ch in range(c)]
        kernels = [rng.normal(size=(c, d, w, int(rng.integers(1, 5)))) for w in windows]
        stack = np.stack([m @ linear[ch] if ch in linear else m for ch, m in enumerate(mats)])
        want = tc.conv_bank(tc.Tensor(stack), [tc.Tensor(kern) for kern in kernels]).data
        got = []
        for width in (1, 2):
            with op_pool(width):
                got.append(tc.conv_maps(np.concatenate(mats, axis=1),
                                        tc.fold_kernels(kernels, linear), windows))
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)
        assert got[0].tobytes() == got[1].tobytes()


class TestOpPool:
    @pytest.mark.parametrize("environ, cpus, width", [
        ({}, 2, 1),
        ({}, 64, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 4),
        ({"MKL_NUM_THREADS": "3"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 2, 1),
    ])
    def test_width_rule(self, environ, cpus, width):
        assert tc._width_for(environ, cpus) == width

    def test_usable_cpus_from_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
        assert tc.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert tc.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert tc.usable_cpus() == 1

    def test_usable_memory_is_the_lowest_cgroup_limit_below_physical_memory(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}.get)
        root, cgroups = tmp_path / "cgroup", tmp_path / "self_cgroup"
        physical = (4_096_000, "physical memory")
        assert tc.usable_memory(str(root), str(cgroups)) == physical   # no cgroup file
        cgroups.write_text("0::/a/b/c\n")
        (root / "a" / "b" / "c").mkdir(parents=True)
        assert tc.usable_memory(str(root), str(cgroups)) == physical   # no limit file
        (root / "a" / "b" / "c" / "memory.max").write_text("max\n")
        (root / "a" / "memory.max").write_text("3000000\n")
        assert tc.usable_memory(str(root), str(cgroups)) == (          # an ancestor's
            3_000_000, f"the memory limit in {root / 'a' / 'memory.max'}")
        (root / "a" / "b" / "memory.max").write_text("2000000\n")
        lowest = (2_000_000, f"the memory limit in {root / 'a' / 'b' / 'memory.max'}")
        assert tc.usable_memory(str(root), str(cgroups)) == lowest
        (root / "memory.max").write_text("9000000\n")                 # above physical
        assert tc.usable_memory(str(root), str(cgroups)) == lowest
        cgroups.write_text("7:pids:/a/b/c\n4:memory:/a/b/c\n0::/\n")   # v1 memory
        assert tc.usable_memory(str(root), str(cgroups)) == physical
        (root / "memory" / "a").mkdir(parents=True)
        (root / "memory" / "a" / "memory.limit_in_bytes").write_text("1000000\n")
        assert tc.usable_memory(str(root), str(cgroups)) == (
            1_000_000, f"the memory limit in {root / 'memory' / 'a' / 'memory.limit_in_bytes'}")

    def test_width_comes_from_affinity_then_cpu_count(self, monkeypatch):
        threads = threading.active_count()
        for var in tc.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
        monkeypatch.setattr(tc, "_pool_width", None)
        assert tc.pool_width() == 3
        monkeypatch.setenv("OMP_NUM_THREADS", "7")          # fixed at first use
        assert tc.pool_width() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setattr(tc, "_pool_width", None)
        assert tc.pool_width() == 5
        monkeypatch.delenv("OMP_NUM_THREADS")
        monkeypatch.setattr(tc, "_pool_width", None)
        assert tc.pool_width() == 1
        assert threading.active_count() == threads

    @staticmethod
    def _step():
        rng = np.random.default_rng(60)
        stack = tc.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        kernels = [tc.Tensor(rng.normal(size=(2, 3, w, 2)), requires_grad=True)
                   for w in (1, 2, 3, 4)]
        with tc.Tape() as tape:
            loss = sum_all(tc.tanh_act(tc.conv_bank(stack, kernels)))
        tc.backward(loss, tape)
        tc.sgd_step([stack, *kernels], lr=0.1)

    def test_width_one_starts_no_thread(self):
        before = set(threading.enumerate())
        with op_pool(1):
            self._step()
            assert tc._pool is None
            assert set(threading.enumerate()) == before

    def test_width_two_starts_one_pool_thread(self):
        before = set(threading.enumerate())
        with op_pool(2):
            self._step()
            started = set(threading.enumerate()) - before
            # one pool thread: the caller is the other one
            assert [t.name.startswith("metaseq-op") for t in started] == [True]
        assert not any(t.is_alive() for t in started)

    def test_concurrent_callers_share_the_pool_without_crosstalk(self):
        """Six threads each train their own conv bank on one 4-wide pool (more
        threads than cores, rapid switching); each ends where a lone run does."""
        def run(seed, log=None):
            rng = np.random.default_rng(seed)
            stack = tc.Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
            kernels = [tc.Tensor(rng.normal(size=(2, 3, w, 3)), requires_grad=True)
                       for w in (1, 2, 3, 4)]
            for _ in range(20):
                with tc.Tape() as tape:
                    loss = sum_all(tc.tanh_act(tc.conv_bank(stack, kernels)))
                tc.backward(loss, tape)
                tc.sgd_step([stack, *kernels], lr=0.01)
            result = b"".join(t.data.tobytes() for t in (stack, *kernels))
            if log is not None:
                log[seed] = result
            return result

        want = {seed: run(seed) for seed in range(6)}
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with op_pool(4):
                threads = [threading.Thread(target=run, args=(seed, got)) for seed in want]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_forked_child_starts_its_own_pool(self):
        with op_pool(2), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)   # fork with threads alive
            self._step()
            pid = os.fork()
            if pid == 0:                      # child: a hang ends at the alarm
                import signal
                signal.alarm(30)
                try:
                    self._step()
                    os._exit(0 if tc._pool is not None else 1)
                finally:
                    os._exit(2)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_failing_task_is_raised_after_every_task_finished(self):
        done = []

        def job(i):
            if i == 0:
                raise ValueError("task 0")
            done.append(i)

        with op_pool(2):
            with pytest.raises(ValueError, match="task 0"):
                tc._largest_first(job, [0, 1, 2], [3, 2, 1])
            assert sorted(done) == [1, 2]


class TestTanh:
    def test_odd_at_zero(self):
        assert tc.tanh_act(tc.Tensor([0.0])).data[0] == 0.0

    def test_saturation(self):
        v = tc.tanh_act(tc.Tensor([50.0])).data[0]
        assert 1.0 - 1e-9 < v <= 1.0

    def test_reference_scalar(self):
        assert tc.tanh_act(tc.Tensor([1.0])).data[0] == pytest.approx(0.7615941559557649, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = tc.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_grads(lambda: sum_all(tc.tanh_act(x)), [x])


class TestSigmoid:
    def test_extremes_stay_finite(self):
        out = tc.sigmoid(tc.Tensor([-800.0, 0.0, 800.0])).data
        assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = tc.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        check_grads(lambda: sum_all(tc.sigmoid(x)), [x])

    def test_bit_equal_to_masked_formula(self):
        edges = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 800.0, -800.0]
        rng = np.random.default_rng(9)
        draws = np.concatenate([rng.normal(0.0, 10.0, 50_000),
                                rng.uniform(-800.0, 800.0, 50_000)])
        for z in (np.array(edges), draws):
            assert tc._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()



class TestLstm:
    @staticmethod
    def _weights(rng, f, hidden):
        return (tc.Tensor(rng.normal(size=(f, 4 * hidden))),
                tc.Tensor(rng.normal(size=(hidden, 4 * hidden))),
                tc.Tensor(rng.normal(size=4 * hidden)))

    def test_single_step_closed_form(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(1, 3))
        wx, wh, bias = self._weights(rng, 3, 2)
        z = x[0] @ wx.data + bias.data
        sig = 1.0 / (1.0 + np.exp(-z))
        expected = sig[6:] * np.tanh(sig[:2] * np.tanh(z[4:6]))
        got = tc.lstm(tc.Tensor(x), [(wx, wh, bias, False)]).data
        np.testing.assert_allclose(got[0], expected, rtol=0, atol=1e-15)

    def test_reverse_is_forward_over_reversed_rows(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(6, 3))
        wx, wh, bias = self._weights(rng, 3, 2)
        backward = tc.lstm(tc.Tensor(x), [(wx, wh, bias, True)]).data
        forward = tc.lstm(tc.Tensor(x[::-1]), [(wx, wh, bias, False)]).data
        np.testing.assert_array_equal(backward, forward[::-1])
        assert not np.allclose(backward, tc.lstm(tc.Tensor(x), [(wx, wh, bias, False)]).data)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(32)
        wx, wh, bias = self._weights(rng, 3, 2)
        with pytest.raises(DimensionError):
            tc.lstm(tc.Tensor(np.zeros((4, 5))), [(wx, wh, bias, False)])
        with pytest.raises(DimensionError):
            tc.lstm(tc.Tensor(np.zeros((4, 3))), [(wx, wh, tc.Tensor(np.zeros(7)), False)])


class TestLstmDirections:
    """Several directions in one lstm call: one tape node whose states and
    gradients are bit-equal to one node per direction."""

    HIDDEN = (3, 2, 3)
    REVERSE = (False, True, True)

    def _inputs(self, seed=60):
        rng = np.random.default_rng(seed)
        x = tc.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        directions = [(tc.Tensor(rng.normal(size=(4, 4 * h)), requires_grad=True),
                       tc.Tensor(rng.normal(size=(h, 4 * h)), requires_grad=True),
                       tc.Tensor(rng.normal(size=4 * h), requires_grad=True),
                       reverse)
                      for h, reverse in zip(self.HIDDEN, self.REVERSE)]
        return x, directions

    @staticmethod
    def _tensors(x, directions):
        return [x, *(t for direction in directions for t in direction[:3])]

    @pytest.mark.parametrize("width", [1, 2])
    def test_each_direction_is_its_own_recurrence(self, width):
        x, directions = self._inputs()
        with op_pool(width):
            states = tc.lstm(x, directions).data
        assert states.shape == (6, sum(self.HIDDEN))
        at = 0
        for direction in directions:
            single = tc.lstm(x, [direction]).data
            hidden = single.shape[1]
            assert states[:, at:at + hidden].tobytes() == single.tobytes()
            at += hidden

    def test_gradient_matches_finite_differences(self):
        x, directions = self._inputs(61)
        probe = tc.Tensor(np.random.default_rng(62).normal(size=(6, sum(self.HIDDEN))))
        check_grads(lambda: sum_all(tc.mul(tc.lstm(x, directions), probe)),
                    self._tensors(x, directions))

    @pytest.mark.parametrize("width", [1, 2])
    def test_gradients_are_bit_equal_to_one_node_per_direction(self, width):
        def grads(build):
            x, directions = self._inputs(63)
            with tc.Tape() as tape:
                loss = sum_all(tc.tanh_act(build(x, directions)))
            tc.backward(loss, tape)
            return [t.grad.tobytes() for t in self._tensors(x, directions)]

        with op_pool(width):
            got = grads(tc.lstm)
            started = tc._pool is not None
        want = grads(lambda x, directions: tc.concat_cols(
            [tc.lstm(x, [direction]) for direction in directions]))
        assert started == (width > 1)
        assert got == want

    def test_records_one_tape_node(self):
        x, directions = self._inputs()
        with tc.Tape() as tape:
            tc.lstm(x, directions)
        assert [node.op for node in tape.nodes] == ["lstm"]
        assert tape.nodes[0].inputs == tuple(self._tensors(x, directions))

    def test_empty_direction_list_is_contract_error(self):
        with pytest.raises(ContractError, match="at least one direction"):
            tc.lstm(tc.Tensor(np.zeros((2, 4))), [])

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_weight_repeated_across_directions_is_contract_error(self, which):
        x, directions = self._inputs()
        first, second = directions[0], list(directions[2])
        second[which] = first[which]
        with pytest.raises(ContractError, match="given twice"):
            tc.lstm(x, [first, directions[1], tuple(second)])

    def test_mismatch_names_the_direction(self):
        x, directions = self._inputs()
        wx, wh, bias, reverse = directions[1]
        wrong = (wx, wh, tc.Tensor(np.zeros(7)), reverse)
        with pytest.raises(DimensionError, match=r"direction 1: weights \(4, 8\)"):
            tc.lstm(x, [directions[0], wrong])


class TestSoftmax:
    def test_equal_logits(self):
        np.testing.assert_allclose(tc.softmax(tc.Tensor([3.0, 3.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = tc.softmax(tc.Tensor([0.0, math.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=7)
        a = tc.softmax(tc.Tensor(z)).data
        b = tc.softmax(tc.Tensor(z + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        p = tc.softmax(tc.Tensor(rng.normal(size=(50, 4)) * 10)).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all() and (p < 1).all()

    def test_needs_two_classes(self):
        with pytest.raises(DimensionError):
            tc.softmax(tc.Tensor([1.0]))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        z = tc.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = tc.Tensor(rng.normal(size=(4, 3)))
        check_grads(lambda: sum_all(tc.mul(tc.softmax(z), w)), [z])


class TestWeightedCrossEntropy:
    W = (1.0, 2.0)  # (literal, metaphor)

    def test_perfect_prediction_zero_loss(self):
        probs = tc.Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = tc.weighted_cross_entropy(probs, [0, 1], self.W)
        assert loss.data == pytest.approx(0.0, abs=1e-9)

    def test_metaphor_weight_doubles(self):
        probs = tc.Tensor([[0.5, 0.5]])
        met = tc.weighted_cross_entropy(probs, [1], self.W).data
        lit = tc.weighted_cross_entropy(probs, [0], self.W).data
        assert met == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert lit == pytest.approx(math.log(2.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            tc.weighted_cross_entropy(tc.Tensor([[0.5, 0.5]]), [2], self.W)

    def test_clamp_keeps_loss_finite(self):
        probs = tc.Tensor([[1.0, 0.0]])
        loss = tc.weighted_cross_entropy(probs, [1], self.W)
        assert np.isfinite(loss.data)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        z = tc.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        labels = [0, 1, 1, 0, 1]

        def build():
            return tc.weighted_cross_entropy(tc.softmax(z), labels, self.W)

        check_grads(build, [z])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = tc.Tensor([[1.0, 2.0]])
        assert tc.dropout(x, 0.0, tc.RngStream(0), training=True) is x

    def test_inference_is_identity(self):
        x = tc.Tensor([[1.0, 2.0]])
        assert tc.dropout(x, 0.9, tc.RngStream(0), training=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            tc.dropout(tc.Tensor([1.0]), 1.0, tc.RngStream(0), training=True)

    def test_mean_preserved_law_of_large_numbers(self):
        x = tc.Tensor(np.ones(1_000_000))
        out = tc.dropout(x, 0.5, tc.RngStream(123), training=True)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_gradient_with_fixed_mask(self):
        rng = np.random.default_rng(13)
        x = tc.Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def build():
            # identical stream key -> identical mask on every evaluation
            return sum_all(tc.mul(out := tc.dropout(x, 0.3, tc.RngStream(7, 1), True), out))

        check_grads(build, [x])


class TestBackward:
    def test_sum_gives_ones(self):
        x = tc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with tc.Tape() as tape:
            loss = sum_all(x)
        tc.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_power_rule(self):
        x = tc.Tensor([3.0], requires_grad=True)
        with tc.Tape() as tape:
            loss = sum_all(tc.mul(x, x))
        tc.backward(loss, tape)
        assert x.grad[0] == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        x = tc.Tensor([1.0, 2.0], requires_grad=True)
        with tc.Tape() as tape:
            y = tc.mul(x, x)
        with pytest.raises(ContractError):
            tc.backward(y, tape)

    def test_unused_parameter_gets_zero_grad(self):
        x = tc.Tensor([1.0], requires_grad=True)
        unused = tc.Tensor([5.0], requires_grad=True)
        with tc.Tape() as tape:
            loss = sum_all(tc.mul(x, x))
        tc.backward(loss, tape, parameters=[x, unused])
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_grads_accumulate_over_shared_input(self):
        x = tc.Tensor([2.0], requires_grad=True)
        with tc.Tape() as tape:
            loss = sum_all(tc.add(tc.mul(x, x), tc.mul(x, x)))
        tc.backward(loss, tape)
        assert x.grad[0] == pytest.approx(8.0)

    def test_each_node_visited_once(self):
        x = tc.Tensor([1.0, 2.0], requires_grad=True)
        with tc.Tape() as tape:
            y = tc.mul(x, x)
            z = tc.add(y, y)
            loss = sum_all(z)
        assert len(tape.nodes) == 3
        tc.backward(loss, tape)
        # grad of sum(2*x^2) = 4x
        np.testing.assert_allclose(x.grad, [4.0, 8.0])


# Each public op: the name it records, its inputs' shapes, and a call on them.
_RECORDED = {
    "matmul": ("matmul", [(2, 3), (3, 4)], lambda a, b: tc.matmul(a, b)),
    "transpose": ("transpose", [(2, 3)], lambda x: tc.transpose(x)),
    "add": ("add", [(2, 3), (2, 3)], lambda a, b: tc.add(a, b)),
    "mul": ("mul", [(2, 3), (2, 3)], lambda a, b: tc.mul(a, b)),
    "add_bias": ("add_bias", [(2, 3), (3,)], lambda m, b: tc.add_bias(m, b)),
    "tanh_act": ("tanh", [(2, 3)], lambda x: tc.tanh_act(x)),
    "sigmoid": ("sigmoid", [(2, 3)], lambda x: tc.sigmoid(x)),
    "softmax": ("softmax", [(2, 3)], lambda x: tc.softmax(x)),
    "weighted_cross_entropy": ("weighted_cross_entropy", [(2, 3)],
                               lambda p: tc.weighted_cross_entropy(p, [0, 2], [1.0, 2.0, 0.5])),
    "dropout": ("dropout", [(2, 3)], lambda x: tc.dropout(x, 0.5, tc.RngStream(0), True)),
    "row": ("row", [(2, 3)], lambda x: tc.row(x, 1)),
    "slice_cols": ("slice_cols", [(2, 3)], lambda x: tc.slice_cols(x, 1, 3)),
    "concat_cols": ("concat_cols", [(2, 3), (2, 1)], lambda *parts: tc.concat_cols(parts)),
    "stack_rows": ("stack_rows", [(1, 3), (1, 3)], lambda *rows: tc.stack_rows(rows)),
    "stack_mats": ("stack_mats", [(2, 3), (2, 3)], lambda *mats: tc.stack_mats(mats)),
    "conv_bank": ("conv_bank", [(2, 4, 3), (2, 3, 2, 2), (2, 3, 3, 1)],
                  lambda x, *kernels: tc.conv_bank(x, kernels)),
    "lstm": ("lstm", [(4, 3), (3, 8), (2, 8), (8,)],
             lambda x, wx, wh, b: tc.lstm(x, [(wx, wh, b, False)])),
}


class TestTapeRecord:
    """What each op records is what ``bench/hooks.py`` reads: the node's
    op name and its inputs, by identity and in order."""

    @pytest.mark.parametrize("name,mask", [
        pytest.param(name, mask, id=f"{name}-{''.join('g' if r else '.' for r in mask)}")
        for name, (_, shapes, _) in _RECORDED.items()
        for mask in itertools.product([False, True], repeat=len(shapes))])
    def test_a_node_is_recorded_when_an_input_requires_a_gradient(self, name, mask):
        op, shapes, call = _RECORDED[name]
        rng = np.random.default_rng(0)

        def inputs():
            return [tc.Tensor(rng.uniform(0.1, 1.0, size=shape), requires_grad=r)
                    for shape, r in zip(shapes, mask)]

        given = inputs()
        with tc.Tape() as tape:
            out = call(*given)
        assert out.requires_grad == any(mask)
        if any(mask):
            [node] = tape.nodes
            assert node.op == op and node.output is out
            assert list(map(id, node.inputs)) == list(map(id, given))
        else:
            assert tape.nodes == []
        assert tc.active_tape() is None
        assert call(*inputs()).requires_grad == any(mask)
        assert tape.nodes == ([node] if any(mask) else [])

    def test_only_the_node_builder_records(self):
        """No function in ``tensor_core`` but ``_node`` makes a ``_Node`` or
        adds to a tape's ``nodes``, and each public op that builds a node
        has its case above."""
        tree = ast.parse(Path(tc.__file__).read_text(encoding="utf-8"))

        def records(node) -> bool:
            if isinstance(node, ast.AugAssign):
                node = node.target
            elif isinstance(node, ast.Call):
                node = node.func
                if isinstance(node, ast.Name):
                    return node.id == "_Node"
                node = getattr(node, "value", None)
            else:
                return False
            return isinstance(node, ast.Attribute) and node.attr == "nodes"

        def builds(node) -> bool:
            return isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "_node", "_joined", "_pooled_node")

        recorders = {getattr(node, "name", "<module>") for node in tree.body
                     if any(records(inner) for inner in ast.walk(node))}
        assert recorders == {"_node"}
        ops = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_") and any(map(builds, ast.walk(node)))}
        assert ops == set(_RECORDED)


class TestSgdStep:
    def test_zero_grad_keeps_parameters(self):
        p = tc.Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        tc.sgd_step([p], lr=0.2)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_hand_arithmetic(self):
        p = tc.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        tc.sgd_step([p], lr=0.2)
        assert p.data[0] == pytest.approx(0.9)
        assert p.grad is None

    def test_missing_gradient_is_state_error(self):
        p = tc.Tensor([1.0], requires_grad=True)
        with pytest.raises(StateError):
            tc.sgd_step([p], lr=0.1)

    def test_parameter_listed_twice_is_contract_error(self):
        p = tc.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        with pytest.raises(ContractError, match="listed twice"):
            tc.sgd_step([p, p], lr=0.1)
        assert p.data[0] == 1.0

    def test_two_identical_steps_identical_result(self):
        def run():
            p = tc.Tensor([1.0, -2.0], requires_grad=True)
            for _ in range(3):
                with tc.Tape() as tape:
                    loss = sum_all(tc.mul(p, p))
                tc.backward(loss, tape)
                tc.sgd_step([p], lr=0.1)
            return p.data.tobytes()

        assert run() == run()

    def test_released_storage_is_rebuilt_with_the_same_bits(self):
        def run(release):
            p = tc.Tensor([1.0, -2.0, 0.5], requires_grad=True)
            for _ in range(3):
                with tc.Tape() as tape:
                    loss = sum_all(tc.mul(tc.mul(p, p), p))
                tc.backward(loss, tape, [p])
                tc.sgd_step([p], lr=0.1)
                if release:
                    tc.release_gradients([p])
                    assert (p.grad, p._grad_store) == (None, None)
            return p.data.tobytes()

        assert run(True) == run(False)


class TestNestedTapes:
    def test_an_inner_tape_records_in_place_of_the_outer_until_it_exits(self):
        x = tc.Tensor([1.0, 2.0], requires_grad=True)
        with tc.Tape() as outer:
            before = tc.mul(x, x)
            with tc.Tape() as inner:
                assert tc.active_tape() is inner
                inside = tc.add(x, x)
            assert tc.active_tape() is outer
            after = tc.sigmoid(x)
        assert tc.active_tape() is None
        assert [node.output for node in inner.nodes] == [inside]
        assert [node.output for node in outer.nodes] == [before, after]

    def test_a_tape_left_by_an_exception_gives_its_place_back(self):
        with tc.Tape() as outer:
            with pytest.raises(DimensionError):
                with tc.Tape():
                    tc.add(tc.Tensor([1.0], requires_grad=True), tc.Tensor([1.0, 2.0]))
            assert tc.active_tape() is outer
        assert tc.active_tape() is None


class TestThreadIsolation:
    def test_tapes_do_not_leak_across_threads(self):
        import threading

        results = {}

        def worker(name, value):
            x = tc.Tensor([value], requires_grad=True)
            with tc.Tape() as tape:
                loss = sum_all(tc.mul(x, x))
            tc.backward(loss, tape)
            results[name] = (len(tape.nodes), float(x.grad[0]))

        threads = [threading.Thread(target=worker, args=(f"t{i}", float(i + 2)))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            nodes, grad = results[f"t{i}"]
            assert nodes == 2                      # mul + sum, nothing foreign
            assert grad == pytest.approx(2.0 * (i + 2))


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = tc.RngStream(42, 3).uniform(100)
        b = tc.RngStream(42, 3).uniform(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = tc.RngStream(42, 0).uniform(100)
        b = tc.RngStream(42, 1).uniform(100)
        assert not np.array_equal(a, b)


class TestOpGradientsAgainstFiniteDifferences:
    """Sweep of remaining ops against the finite-difference oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elementwise_and_structural(self, seed):
        rng = np.random.default_rng(seed)
        a = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bias = tc.Tensor(rng.normal(size=4), requires_grad=True)
        v = tc.Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        w = tc.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        check_grads(lambda: sum_all(tc.mul(tc.add(a, b), a)), [a, b])
        check_grads(lambda: sum_all(tc.tanh_act(tc.add_bias(a, bias))), [a, bias])
        check_grads(lambda: sum_all(tc.tanh_act(tc.transpose(a))), [a])
        check_grads(lambda: sum_all(tc.sigmoid(tc.matmul(v, w))), [w, v])
        check_grads(lambda: sum_all(tc.row(a, 1)), [a])
        check_grads(lambda: sum_all(tc.mul(s := tc.slice_cols(a, 1, 3), s)), [a])
        check_grads(lambda: sum_all(tc.tanh_act(tc.concat_cols([a, b]))), [a, b])
        check_grads(lambda: sum_all(tc.tanh_act(
            tc.stack_rows([tc.row(a, 0), tc.row(b, 2)]))), [a, b])
        check_grads(lambda: sum_all(tc.mul(m := tc.stack_mats([a, b]), m)), [a, b])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 5])
    def test_lstm(self, n, reverse):
        rng = np.random.default_rng(10 * n + reverse)
        hidden = 3
        x = tc.Tensor(rng.normal(size=(n, 4)), requires_grad=True)
        wx = tc.Tensor(rng.normal(size=(4, 4 * hidden)), requires_grad=True)
        wh = tc.Tensor(rng.normal(size=(hidden, 4 * hidden)), requires_grad=True)
        bias = tc.Tensor(rng.normal(size=4 * hidden), requires_grad=True)
        probe = tc.Tensor(rng.normal(size=(n, hidden)))   # weights every output

        check_grads(lambda: sum_all(tc.mul(tc.lstm(x, [(wx, wh, bias, reverse)]), probe)),
                    [x, wx, wh, bias])

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_conv_bank(self, w):
        rng = np.random.default_rng(20 + w)
        stack = tc.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        kernels = tc.Tensor(rng.normal(size=(2, 3, w, 3)), requires_grad=True)
        check_grads(lambda: sum_all(tc.tanh_act(tc.conv_bank(stack, [kernels]))),
                    [stack, kernels])
