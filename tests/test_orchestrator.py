import json
import os
import signal
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from petseg import cli, nifti, orchestrator
from petseg.discriminator import DiscriminatorModel, Tracer
from petseg.errors import PredictorFailure, ValidationError
from petseg.manifest import span
from petseg.orchestrator import (
    ALL_FLIPS,
    EnsembleConfig,
    ExternalPredictor,
    Predictor,
    SuvThresholdPredictor,
    ensemble_predict,
    flip_stack,
    flip_volume,
    make_suv_ensemble,
    parse_flip,
    route,
    select_flips,
    threshold_mask,
    tta_predict,
)
from petseg.preprocess import ChannelStack, WindowSpec, build_channels
from petseg.synthdata import PhantomSpec, TracerStyle, make_phantom
from petseg.volume import BinaryMask, Volume3D, VolumeKind

from conftest import random_volume
from oracles import stacked_ensemble_mean


def make_stack(rng, shape=(6, 5, 4), spacing=(2.0, 2.0, 2.0)):
    ct = random_volume(rng, shape=shape, spacing=spacing, lo=-500, hi=900,
                       kind=VolumeKind.CT_HU)
    pet = random_volume(rng, shape=shape, spacing=spacing, lo=0, hi=30)
    return build_channels(ct, pet)


class ConstantPredictor(Predictor):
    def __init__(self, value, name="constant"):
        self.value = value
        self.name = name

    def predict(self, stack):
        return Volume3D(np.full(stack.shape, self.value), stack.spacing,
                        VolumeKind.PROBABILITY)


class IndexPredictor(Predictor):
    """Not flip-equivariant: the probability depends on the array index and
    the fold, so a different summation order shows in the last bits."""

    def __init__(self, fold):
        self.fold = fold
        self.name = f"index_f{fold}"

    def predict(self, stack):
        pet = stack.pet_clipped.data
        idx = np.arange(pet.size, dtype=np.float64).reshape(pet.shape)
        prob = 0.5 + 0.5 * np.sin(0.37 * (self.fold + 1) * idx + pet)
        return Volume3D(prob, stack.spacing, VolumeKind.PROBABILITY)


def index_oracle(stack, n_folds, flips):
    """Stack-then-mean reference for IndexPredictor folds, flipping copies."""
    def predict(fold, axes):
        flipped = ChannelStack(tuple(ch.with_data(np.flip(ch.data, axes).copy())
                                     for ch in stack.channels))
        return IndexPredictor(fold).predict(flipped).data

    return stacked_ensemble_mean(predict, n_folds, [parse_flip(f) for f in flips])


class TestFlips:
    def test_parse(self):
        assert parse_flip("identity") == ()
        assert parse_flip("x") == (0,)
        assert parse_flip("zx") == (0, 2)
        assert parse_flip("xyz") == (0, 1, 2)
        with pytest.raises(ValidationError):
            parse_flip("q")

    def test_flip_is_involution(self, rng):
        vol = random_volume(rng)
        for flip in ALL_FLIPS:
            twice = flip_volume(flip_volume(vol, flip), flip)
            assert np.array_equal(twice.data, vol.data)

    def test_flip_stack_flips_all_channels(self, rng):
        stack = make_stack(rng)
        flipped = flip_stack(stack, "xz")
        for orig, flip in zip(stack.channels, flipped.channels):
            assert np.array_equal(flip.data, np.flip(orig.data, axis=(0, 2)))


class TestTtaPredict:
    def test_constant_predictor_any_flips(self, rng):
        stack = make_stack(rng)
        out = tta_predict(ConstantPredictor(0.3), stack, ALL_FLIPS)
        assert np.allclose(out.data, 0.3, atol=0, rtol=0)

    def test_identity_only_single_call(self, rng):
        stack = make_stack(rng)
        calls = []
        out = tta_predict(SuvThresholdPredictor(), stack, ("identity",),
                          on_invoke=calls.append)
        assert len(calls) == 1
        assert calls[0].flip == "identity"
        ref = SuvThresholdPredictor().predict(stack)
        assert np.array_equal(out.data, ref.data)

    def test_flip_equivariant_backend_equals_single_pass(self, rng):
        # voxelwise threshold commutes with flips, so the 8-flip mean must
        # equal the single pass
        stack = make_stack(rng, shape=(7, 6, 5))
        single = SuvThresholdPredictor().predict(stack)
        tta = tta_predict(SuvThresholdPredictor(), stack, ALL_FLIPS)
        assert np.max(np.abs(tta.data - single.data)) < 1e-12

    def test_flip_order_permutation_invariant(self, rng):
        stack = make_stack(rng)
        a = tta_predict(SuvThresholdPredictor(), stack, ALL_FLIPS)
        b = tta_predict(SuvThresholdPredictor(), stack, tuple(reversed(ALL_FLIPS)))
        assert np.array_equal(a.data, b.data)

    def test_identity_required(self, rng):
        with pytest.raises(ValidationError):
            tta_predict(ConstantPredictor(0.1), make_stack(rng), ("x", "y"))

    def test_contract_violation_shape(self, rng):
        class Bad(Predictor):
            name = "bad"

            def predict(self, stack):
                return Volume3D(np.zeros((2, 2, 2)), stack.spacing, VolumeKind.PROBABILITY)

        with pytest.raises(PredictorFailure):
            tta_predict(Bad(), make_stack(rng), ("identity",))

    def test_contract_violation_range(self, rng):
        with pytest.raises(PredictorFailure):
            tta_predict(ConstantPredictor(1.5), make_stack(rng), ("identity",))


class TestEnsemblePredict:
    def test_single_fold_identity_equals_bare(self, rng):
        stack = make_stack(rng)
        cfg = EnsembleConfig(folds=(SuvThresholdPredictor(),), tta_flips=("identity",),
                             reduced_flips=("identity",))
        out = ensemble_predict(cfg, stack)
        assert np.array_equal(out.data, SuvThresholdPredictor().predict(stack).data)

    def test_two_constant_folds_mean(self, rng):
        stack = make_stack(rng)
        cfg = EnsembleConfig(folds=(ConstantPredictor(0.2), ConstantPredictor(0.6)),
                             tta_flips=("identity",), reduced_flips=("identity",))
        out = ensemble_predict(cfg, stack)
        assert np.all(out.data == 0.4)

    def test_reduced_branch_triggers_strictly_above_threshold(self, rng):
        stack = make_stack(rng, shape=(6, 5, 4))  # 120 voxels
        base = dict(folds=(SuvThresholdPredictor(),), tta_flips=ALL_FLIPS,
                    reduced_flips=("identity", "z"))
        at = EnsembleConfig(**base, tta_reduction_threshold=120)
        above = EnsembleConfig(**base, tta_reduction_threshold=119)
        assert select_flips(at, stack.voxel_count) == ALL_FLIPS
        assert select_flips(above, stack.voxel_count) == ("identity", "z")

        calls = []
        ensemble_predict(at, stack, on_invoke=calls.append)
        assert sorted({c.flip for c in calls}, key=ALL_FLIPS.index) == list(ALL_FLIPS)
        calls.clear()
        ensemble_predict(above, stack, on_invoke=calls.append)
        assert sorted({c.flip for c in calls}, key=ALL_FLIPS.index) == ["identity", "z"]

    def test_fold_and_flip_log_canonical_order(self, rng):
        stack = make_stack(rng)
        cfg = make_suv_ensemble(n_folds=3, tta_flips=("identity", "x"),
                                reduced_flips=("identity",))
        calls = []
        ensemble_predict(cfg, stack, on_invoke=calls.append)
        assert [(c.fold, c.flip) for c in calls] == [
            (0, "identity"), (0, "x"), (1, "identity"), (1, "x"), (2, "identity"), (2, "x"),
        ]

    def test_range_contract_holds(self, rng):
        stack = make_stack(rng)
        out = ensemble_predict(make_suv_ensemble(n_folds=6), stack)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    def test_soft_deadline_downgrades(self, rng):
        stack = make_stack(rng)

        class Slow(SuvThresholdPredictor):
            def predict(self, stack):
                import time

                time.sleep(0.05)
                return super().predict(stack)

        cfg = EnsembleConfig(folds=(Slow(), Slow()), tta_flips=ALL_FLIPS,
                             reduced_flips=("identity", "z"), time_budget_s=0.2,
                             soft_deadline=True)
        calls = []
        ensemble_predict(cfg, stack, on_invoke=calls.append)
        flips_used = {c.flip for c in calls}
        assert flips_used == {"identity", "z"}

    def test_nan_output_fails_loudly(self, rng):
        class NanPredictor(Predictor):
            name = "nan_backend"

            def predict(self, stack):
                prob = np.full(stack.shape, 0.3)
                prob[1, 2, 3] = np.nan
                return Volume3D(prob, stack.spacing, VolumeKind.PROBABILITY)

        cfg = EnsembleConfig(folds=(NanPredictor(),))
        with pytest.raises(PredictorFailure, match="nan_backend"):
            ensemble_predict(cfg, make_stack(rng))

    def test_predictor_sees_read_only_input(self, rng):
        stack = make_stack(rng)
        before = [ch.data.copy() for ch in stack.channels]

        class Writer(SuvThresholdPredictor):
            def predict(self, stack):
                stack.pet_clipped.data[...] = 0.0
                return super().predict(stack)

        for run in (lambda: ensemble_predict(EnsembleConfig(folds=(Writer(),)), stack),
                    lambda: tta_predict(Writer(), stack, ALL_FLIPS)):
            with pytest.raises(PredictorFailure):
                run()
        for ch, data in zip(stack.channels, before):
            assert np.array_equal(ch.data, data)

    def test_peak_memory_at_most_8_volumes(self):
        stack = make_stack(np.random.default_rng(0), shape=(64, 64, 48))
        cfg = make_suv_ensemble(n_folds=6)
        assert len(select_flips(cfg, stack.voxel_count)) == 8
        volume_bytes = stack.voxel_count * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ensemble_predict(cfg, stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * volume_bytes, f"peak {peak / volume_bytes:.1f} volume-equivalents"

    @pytest.mark.parametrize("soft_deadline", [False, True])
    def test_peak_memory_at_most_4_5_volumes(self, soft_deadline):
        # total + fold sum + two calls in flight, each one output volume;
        # the soft deadline's probe output is freed once it is added
        stack = make_stack(np.random.default_rng(0), shape=(64, 64, 48))
        cfg = make_suv_ensemble(n_folds=6, soft_deadline=soft_deadline)
        assert len(select_flips(cfg, stack.voxel_count)) == 8
        volume_bytes = stack.voxel_count * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ensemble_predict(cfg, stack)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * volume_bytes, f"peak {peak / volume_bytes:.1f} volume-equivalents"

    def test_reduced_must_be_subset(self):
        with pytest.raises(ValidationError):
            EnsembleConfig(folds=(ConstantPredictor(0.1),), tta_flips=("identity", "x"),
                           reduced_flips=("identity", "y"))


class TestStackedMeanOracle:
    """Running sums must equal np.mean over the stacked outputs bit for bit."""

    def test_six_folds_eight_flips(self, rng):
        stack = make_stack(rng, shape=(7, 6, 5))
        cfg = EnsembleConfig(folds=tuple(IndexPredictor(f) for f in range(6)))
        expected = index_oracle(stack, 6, ALL_FLIPS)
        assert np.array_equal(ensemble_predict(cfg, stack).data, expected)
        # the predictor makes summation order visible in the bits
        assert not np.array_equal(index_oracle(stack, 6, tuple(reversed(ALL_FLIPS))), expected)

    def test_reduced_flips(self, rng):
        stack = make_stack(rng, shape=(7, 6, 5))
        cfg = EnsembleConfig(folds=tuple(IndexPredictor(f) for f in range(6)),
                             tta_reduction_threshold=stack.voxel_count - 1)
        assert select_flips(cfg, stack.voxel_count) == ("identity", "z")
        expected = index_oracle(stack, 6, ("identity", "z"))
        assert np.array_equal(ensemble_predict(cfg, stack).data, expected)

    @pytest.mark.parametrize("budget, flips", [(1e9, ALL_FLIPS), (1e-12, ("identity", "z"))])
    def test_soft_deadline_reuses_first_output(self, rng, budget, flips):
        stack = make_stack(rng, shape=(7, 6, 5))
        cfg = EnsembleConfig(folds=tuple(IndexPredictor(f) for f in range(6)),
                             time_budget_s=budget, soft_deadline=True)
        calls = []
        out = ensemble_predict(cfg, stack, on_invoke=calls.append)
        assert len(calls) == 6 * len(flips)  # fold 0's identity output is reused
        assert np.array_equal(out.data, index_oracle(stack, 6, flips))

    def test_tta_predict_single_fold(self, rng):
        stack = make_stack(rng, shape=(7, 6, 5))
        out = tta_predict(IndexPredictor(0), stack, tuple(reversed(ALL_FLIPS)))
        assert np.array_equal(out.data, index_oracle(stack, 1, ALL_FLIPS))


class TestLayout:
    def test_ensemble_bytes_do_not_depend_on_layout(self, rng, layout):
        # the SUV folds keep the input's layout, the index fold gives C order
        stack = make_stack(rng, shape=(7, 6, 5))
        laid = ChannelStack(tuple(ch.with_data(np.asarray(ch.data, order=layout)) for ch in stack.channels))
        folds = (SuvThresholdPredictor(cap=7.0), IndexPredictor(1), SuvThresholdPredictor(cap=3.0))

        def predict(fold, axes):
            flipped = ChannelStack(tuple(ch.with_data(np.flip(ch.data, axes).copy()) for ch in stack.channels))
            return folds[fold].predict(flipped).data

        out = ensemble_predict(EnsembleConfig(folds=folds), laid).data
        expected = stacked_ensemble_mean(predict, len(folds), [parse_flip(f) for f in ALL_FLIPS])
        assert out.tobytes() == expected.tobytes()
        assert out.flags[layout + "_CONTIGUOUS"]

    @pytest.mark.parametrize("flip", ALL_FLIPS)
    def test_suv_output_keeps_its_input_layout(self, rng, layout, flip):
        # so the un-flipped output the ensemble checks and adds walks memory forward
        stack = make_stack(rng, shape=(7, 6, 5))
        laid = ChannelStack(tuple(ch.with_data(np.asarray(ch.data, order=layout)) for ch in stack.channels))
        flipped = flip_stack(laid, flip)
        out = SuvThresholdPredictor(cap=7.0).predict(flipped)
        assert all(step > 0 for step in flip_volume(out, flip).data.strides)
        expected = np.clip(flipped.pet_clipped.data / 7.0, 0, 1)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [np.nan, -1e-12, 1 + 1e-12])
    def test_range_check_reads_reversed_outputs(self, rng, layout, value):
        class Reversed(Predictor):
            name = "reversed"

            def predict(self, stack):
                bad = np.full(stack.shape, 0.5, order=layout)
                bad[1, 2, 3] = value
                return Volume3D(np.flip(bad, 0), stack.spacing, VolumeKind.PROBABILITY)

        with pytest.raises(PredictorFailure, match="outside"):
            tta_predict(Reversed(), make_stack(rng), ("identity",))


def flip_of(stack):
    """Name of the flip a predictor's input was made with, from its strides."""
    axes = [a for a, step in enumerate(stack.pet_clipped.data.strides) if step < 0]
    return "".join("xyz"[a] for a in axes) or "identity"


def ensemble_threads():
    return [t for t in threading.enumerate() if t.name.startswith("petseg-ensemble")]


class TestPipeline:
    """Two predictor calls in flight, results taken in canonical order."""

    def test_two_calls_overlap(self, rng):
        barrier = threading.Barrier(2, timeout=5)

        class Rendezvous(SuvThresholdPredictor):
            def predict(self, stack):
                barrier.wait()  # broken unless a second call is in flight
                return super().predict(stack)

        stack = make_stack(rng)
        cfg = EnsembleConfig(folds=(Rendezvous(), Rendezvous()), tta_flips=("identity", "x"),
                             reduced_flips=("identity",))
        out = ensemble_predict(cfg, stack)
        assert np.array_equal(out.data, SuvThresholdPredictor().predict(stack).data)

    def test_out_of_order_finish_keeps_canonical_sum_and_log(self, rng):
        finished = []

        class Uneven(IndexPredictor):
            def predict(self, stack):
                flip = flip_of(stack)
                time.sleep(0.03 if ALL_FLIPS.index(flip) % 2 == 0 else 0.0)
                finished.append((self.fold, flip))
                return super().predict(stack)

        stack = make_stack(rng, shape=(7, 6, 5))
        cfg = EnsembleConfig(folds=tuple(Uneven(f) for f in range(3)))
        calls = []
        out = ensemble_predict(cfg, stack, on_invoke=calls.append)
        canonical = [(f, flip) for f in range(3) for flip in ALL_FLIPS]
        assert finished != canonical  # the odd flips overtook the even ones
        assert [(c.fold, c.flip) for c in calls] == canonical
        assert np.array_equal(out.data, index_oracle(stack, 3, ALL_FLIPS))

    def test_failure_raises_for_that_call_and_stops_the_workers(self, rng):
        class FailsOnX(IndexPredictor):
            def predict(self, stack):
                if flip_of(stack) == "x":
                    raise RuntimeError("backend crashed")
                return super().predict(stack)

        folds = (IndexPredictor(0), IndexPredictor(1), FailsOnX(2), IndexPredictor(3))
        calls = []
        with pytest.raises(PredictorFailure, match="index_f2.*backend crashed"):
            ensemble_predict(EnsembleConfig(folds=folds), make_stack(rng), on_invoke=calls.append)
        assert [(c.fold, c.flip) for c in calls] == [
            (f, flip) for f in range(2) for flip in ALL_FLIPS] + [(2, "identity")]
        assert ensemble_threads() == []


    def test_first_failure_in_task_order_is_raised(self, rng):
        # flip y fails while flip x, the task before it, is still running
        class SlowThenFast(IndexPredictor):
            def predict(self, stack):
                flip = flip_of(stack)
                if flip == "x":
                    time.sleep(0.2)
                if flip in ("x", "y"):
                    raise RuntimeError(f"flip {flip} crashed")
                return super().predict(stack)

        calls = []
        with pytest.raises(PredictorFailure, match="flip x crashed"):
            ensemble_predict(EnsembleConfig(folds=(SlowThenFast(0),)), make_stack(rng), on_invoke=calls.append)
        assert [(c.fold, c.flip) for c in calls] == [(0, "identity")]
        assert ensemble_threads() == []

    def test_calls_started_after_a_failing_one_are_bounded(self, rng, monkeypatch):
        # each thread that takes a task after the failing one waits on the
        # chain, so it starts one call at most; queued tasks then skip theirs
        monkeypatch.setattr(orchestrator, "_IN_FLIGHT", 3)
        started = []

        class SlowFailure(IndexPredictor):
            def predict(self, stack):
                started.append((self.fold, flip_of(stack)))
                if (self.fold, flip_of(stack)) == (1, "x"):
                    time.sleep(0.2)
                    raise RuntimeError("backend crashed")
                return super().predict(stack)

        with pytest.raises(PredictorFailure, match="index_f1.*backend crashed"):
            ensemble_predict(EnsembleConfig(folds=tuple(SlowFailure(f) for f in range(4))), make_stack(rng))
        assert len(started) - started.index((1, "x")) - 1 <= orchestrator._IN_FLIGHT - 1, started
        assert ensemble_threads() == []

    def test_interrupt_while_tasks_are_queued_stops_the_calls(self, rng):
        # the first call interrupts the caller, which is then still queueing
        # tasks or waiting on them; every queued task must skip its call
        calls = []

        class Interrupting(SuvThresholdPredictor):
            def predict(self, stack):
                calls.append(flip_of(stack))
                if len(calls) == 1:
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    time.sleep(0.3)
                return super().predict(stack)

        cfg = EnsembleConfig(folds=tuple(Interrupting() for _ in range(6)))
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                ensemble_predict(cfg, make_stack(rng))
        finally:
            signal.signal(signal.SIGINT, handler)
        for thread in ensemble_threads():
            thread.join(timeout=30)
        assert ensemble_threads() == []
        assert len(calls) <= orchestrator._IN_FLIGHT, calls

    def test_no_worker_outlives_an_interrupt(self, rng):
        # the interrupt tends to land in the pool starting its second thread,
        # which then never joins that thread's set; the call must still end
        # every thread it started before it raises
        stack = make_stack(rng, shape=(6, 5, 4))

        class Interrupting(SuvThresholdPredictor):
            def predict(self, stack):
                if not calls:
                    calls.append(flip_of(stack))
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    time.sleep(0.3)
                return super().predict(stack)

        cfg = EnsembleConfig(folds=tuple(Interrupting() for _ in range(6)))
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        leaks = []
        try:
            for _ in range(10):
                calls = []
                with pytest.raises(KeyboardInterrupt):
                    ensemble_predict(cfg, stack)
                leaks.append([t.name for t in ensemble_threads()])
                for thread in ensemble_threads():
                    thread.join(timeout=30)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert leaks == [[]] * 10

    def test_many_workers_under_fast_thread_switching(self, rng, monkeypatch):
        # more workers than cores, switching threads every few microseconds:
        # a lost or reordered add shows in the bits, a lost hand-over hangs
        monkeypatch.setattr(orchestrator, "_IN_FLIGHT", 5)

        class Jittery(IndexPredictor):
            def predict(self, stack):
                time.sleep(0.001 * ((7 * self.fold + ALL_FLIPS.index(flip_of(stack))) % 4))
                return super().predict(stack)

        stack = make_stack(rng, shape=(7, 6, 5))
        cfg = EnsembleConfig(folds=tuple(Jittery(f) for f in range(4)))
        calls, results = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(
                target=lambda: results.append(ensemble_predict(cfg, stack, on_invoke=calls.append)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert [(c.fold, c.flip) for c in calls] == [(f, flip) for f in range(4) for flip in ALL_FLIPS]
        assert np.array_equal(results[0].data, index_oracle(stack, 4, ALL_FLIPS))


class TestThresholdMask:
    def test_nan_rejected(self):
        data = np.full((2, 3, 4), 0.9)
        data[1, 1, 1] = np.nan
        with pytest.raises(ValidationError):
            threshold_mask(Volume3D(data, (1, 1, 1), VolumeKind.PROBABILITY))

    def test_at_threshold_is_foreground(self):
        prob = Volume3D(np.full((2, 2, 2), 0.5), (1, 1, 1), VolumeKind.PROBABILITY)
        mask = threshold_mask(prob, 0.5)
        assert mask.mask.all()

    def test_all_zero(self):
        prob = Volume3D(np.zeros((2, 2, 2)), (1, 1, 1), VolumeKind.PROBABILITY)
        assert threshold_mask(prob).voxel_count == 0

    def test_cardinality_matches_counting_oracle(self, rng):
        data = rng.random((5, 6, 7))
        prob = Volume3D(data, (1, 1, 1), VolumeKind.PROBABILITY)
        mask = threshold_mask(prob, 0.5)
        count = sum(
            1
            for x in range(5) for y in range(6) for z in range(7)
            if data[x, y, z] >= 0.5
        )
        assert mask.voxel_count == count


BACKEND_SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, {src!r})
    from petseg import nifti, orchestrator
    from petseg.volume import Volume3D, VolumeKind

    request = json.loads(open(sys.argv[1]).read())
    pet_clipped = nifti.read_volume(request["channel_paths"][3])
    prob = Volume3D(pet_clipped.data / 20.0, pet_clipped.spacing, VolumeKind.PROBABILITY)
    nifti.write_volume(prob, request["output_path"])
""")


def running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestExternalPredictor:
    def write_backend(self, tmp_path, body=None):
        script = tmp_path / "backend.py"
        src = str((tmp_path / ".." ).resolve())
        script.write_text(body if body is not None else BACKEND_SCRIPT.format(src="."))
        return script

    def test_file_contract_round_trip(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text(BACKEND_SCRIPT.format(src="."))
        stack = make_stack(rng, shape=(5, 4, 3))
        pred = ExternalPredictor([sys.executable, str(script)], name="toy_backend",
                                 case_id="case_7")
        out = pred.predict(stack)
        expected = stack.pet_clipped.data / 20.0
        assert np.allclose(out.data, expected, atol=1e-7)
        assert out.kind is VolumeKind.PROBABILITY

    def test_request_fields(self, tmp_path, rng):
        capture = tmp_path / "request_copy.json"
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent(f"""
            import json, shutil, sys
            shutil.copy(sys.argv[1], {str(capture)!r})
            request = json.loads(open(sys.argv[1]).read())
            shutil.copy(request["channel_paths"][3], request["output_path"])
        """))
        stack = make_stack(rng, shape=(3, 3, 3))
        pred = ExternalPredictor([sys.executable, str(script)], case_id="case_9")
        try:
            pred.predict(stack)
        except PredictorFailure:
            pass  # the copied channel may not satisfy [0,1]; the request copy is what matters
        request = json.loads(capture.read_text())
        assert request["case_id"] == "case_9"
        assert request["fold"] == 0
        assert len(request["channel_paths"]) == 4
        assert request["target_spacing"] == [3.3, 3.3, 3.3]
        assert "output_path" in request
        # plain .nii: gzip would cost far more than the write itself
        assert all(p.endswith(".nii") for p in request["channel_paths"])
        assert request["output_path"].endswith(".nii")

    def test_each_fold_gets_its_index(self, tmp_path, rng):
        # a backend whose fold model outputs 0.1 * (fold + 1) everywhere
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent("""
            import json, sys
            import numpy as np
            from petseg import nifti
            from petseg.volume import Volume3D, VolumeKind

            request = json.loads(open(sys.argv[1]).read())
            shape = nifti.read_volume(request["channel_paths"][3]).shape
            prob = np.full(shape, 0.1 * (request.get("fold", 0) + 1))
            nifti.write_volume(Volume3D(prob, (1, 1, 1), VolumeKind.PROBABILITY), request["output_path"])
        """))
        backend = {"kind": "external", "command": [sys.executable, str(script)]}
        ens, _ = cli._build_ensemble({**cli._RUN_DEFAULTS, "folds": 3, "backend": backend,
                                      "tta_flips": ("identity", "x")}, "c1")
        calls = []
        out = ensemble_predict(ens, make_stack(rng, shape=(5, 4, 3)), on_invoke=calls.append)
        assert [c.fold for c in calls] == [0, 0, 1, 1, 2, 2]
        assert np.allclose(out.data, 0.2, rtol=0, atol=1e-7)

    def test_fold_token_in_the_command(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text("import json, shutil, sys\n"
                          "request = json.loads(open(sys.argv[2]).read())\n"
                          "assert sys.argv[1] == f'fold-{request[\"fold\"]}'\n"
                          "shutil.copy(request['channel_paths'][3], request['output_path'])\n")
        backend = {"kind": "external", "command": [sys.executable, str(script), "fold-{fold}"]}
        ens, opts = cli._build_ensemble({**cli._RUN_DEFAULTS, "folds": 2, "backend": backend}, "c1")
        assert opts["fold_commands"] == [(sys.executable, str(script), f"fold-{i}") for i in range(2)]
        stack = make_stack(rng, shape=(3, 3, 3))
        stack = ChannelStack((*stack.channels[:3], stack.pet_clipped.with_data(stack.pet_clipped.data / 30)))
        for fold in ens.folds:
            assert np.allclose(fold.predict(stack).data, stack.pet_clipped.data, rtol=0, atol=1e-7)

    def test_nonzero_exit_raises(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text("import sys; sys.stderr.write('boom'); sys.exit(3)")
        pred = ExternalPredictor([sys.executable, str(script)], name="broken")
        with pytest.raises(PredictorFailure) as err:
            pred.predict(make_stack(rng, shape=(3, 3, 3)))
        assert "broken" in str(err.value)
        assert "exit 3" in str(err.value)

    def test_non_utf8_stderr_does_not_fail_a_run(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text(BACKEND_SCRIPT.format(src=".") + "sys.stderr.buffer.write(b'progress \\xe9\\xff done')\n")
        stack = make_stack(rng, shape=(5, 4, 3))
        out = ExternalPredictor([sys.executable, str(script)], name="noisy").predict(stack)
        assert np.allclose(out.data, stack.pet_clipped.data / 20.0, atol=1e-7)

    def test_non_utf8_stderr_keeps_the_exit_code(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text("import sys; sys.stderr.buffer.write(b'bad \\xe9\\xff'); sys.exit(1)")
        pred = ExternalPredictor([sys.executable, str(script)], name="noisy")
        with pytest.raises(PredictorFailure, match="exit 1"):
            pred.predict(make_stack(rng, shape=(3, 3, 3)))

    def test_missing_output_raises(self, tmp_path, rng):
        script = tmp_path / "backend.py"
        script.write_text("import sys")
        pred = ExternalPredictor([sys.executable, str(script)])
        with pytest.raises(PredictorFailure):
            pred.predict(make_stack(rng, shape=(3, 3, 3)))

    def test_timeout_kills_the_backends_children(self, tmp_path, rng):
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "backend.sh"
        script.write_text(f"sleep 60 &\necho $! > {pid_file}\nwait\n")
        pred = ExternalPredictor(["sh", str(script)], name="slow", timeout=1.0)
        child = None
        try:
            with pytest.raises(PredictorFailure):
                pred.predict(make_stack(rng, shape=(3, 3, 3)))
            child = int(pid_file.read_text())
            deadline = time.monotonic() + 2.0
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(child)
        finally:
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)

    def test_ensemble_runs_backend_calls_one_at_a_time(self, tmp_path, rng):
        busy = str(tmp_path / "busy")
        script = tmp_path / "backend.py"
        script.write_text(
            # creating the file fails while another call holds it
            f"import os, time\nfd = os.open({busy!r}, os.O_CREAT | os.O_EXCL)\ntime.sleep(0.2)\n"
            + BACKEND_SCRIPT.format(src=".")
            + f"os.close(fd)\nos.remove({busy!r})\n")
        folds = tuple(ExternalPredictor([sys.executable, str(script)], name=f"toy_f{i}")
                      for i in range(2))
        cfg = EnsembleConfig(folds=folds, tta_flips=("identity", "x"), reduced_flips=("identity",))
        stack = make_stack(rng, shape=(5, 4, 3))
        calls = []
        out = ensemble_predict(cfg, stack, on_invoke=calls.append)
        assert len(calls) == 4
        assert np.allclose(out.data, stack.pet_clipped.data / 20.0, atol=1e-7)


class TestRoute:
    def make_phantom_pair(self, style, seed=0):
        spec = PhantomSpec(shape=(48, 32, 80), spacing=(6.0, 6.0, 6.0),
                           body_semiaxes_mm=(120.0, 80.0, 230.0),
                           tracer_style=style, seed=seed, noise_sigma=0.02)
        return make_phantom(spec)

    def train_tiny_disc(self):
        # cheap separable training set from real phantom MIPs
        from petseg.discriminator import TrainConfig, train_fold
        from petseg.preprocess import discriminator_mip
        from petseg.discriminator import LabeledMip

        mips = []
        for i in range(12):
            style = TracerStyle.FDG_LIKE if i % 2 == 0 else TracerStyle.PSMA_LIKE
            pet, _, _ = self.make_phantom_pair(style, seed=100 + i)
            mips.append(LabeledMip(discriminator_mip(pet), i % 2, f"r{i}"))
        model, _ = train_fold(mips[:8], mips[8:],
                              TrainConfig(max_epochs=8, patience=3, batch_size=4, seed=0))
        return model

    def test_route_picks_tracer_specific_config(self):
        model = self.train_tiny_disc()
        pet, ct, _ = self.make_phantom_pair(TracerStyle.FDG_LIKE, seed=500)
        fdg_calls, psma_calls = [], []

        class Tagged(SuvThresholdPredictor):
            def __init__(self, log, name):
                super().__init__(name=name)
                self.log = log

            def predict(self, stack):
                self.log.append(self.name)
                return super().predict(stack)

        cfg_fdg = EnsembleConfig(folds=(Tagged(fdg_calls, "fdg_backend"),),
                                 tta_flips=("identity",), reduced_flips=("identity",))
        cfg_psma = EnsembleConfig(folds=(Tagged(psma_calls, "psma_backend"),),
                                  tta_flips=("identity",), reduced_flips=("identity",))
        with span("caller") as caller:
            result = route(ct, pet, model, cfg_fdg, cfg_psma)
        assert result.tracer is Tracer.FDG
        assert fdg_calls and not psma_calls
        assert [s["name"] for s in caller["spans"]] == ["route"] and caller["spans"][0]["s"] > 0
        assert result.mask.shape == pet.shape

    def test_zero_weight_model_routes_psma(self, rng):
        model = DiscriminatorModel.fresh(seed=0)
        for arr in model.network.parameters().values():
            arr[...] = 0.0
        pet, ct, _ = self.make_phantom_pair(TracerStyle.FDG_LIKE, seed=7)
        called = []

        class Probe(SuvThresholdPredictor):
            def predict(self, stack):
                called.append(self.name)
                return super().predict(stack)

        cfg_fdg = EnsembleConfig(folds=(Probe(name="fdg"),), tta_flips=("identity",),
                                 reduced_flips=("identity",))
        cfg_psma = EnsembleConfig(folds=(Probe(name="psma"),), tta_flips=("identity",),
                                  reduced_flips=("identity",))
        result = route(ct, pet, model, cfg_fdg, cfg_psma)
        assert result.tracer is Tracer.PSMA
        assert called == ["psma"]

    def test_shape_mismatch_before_any_predictor(self, rng):
        model = DiscriminatorModel.fresh(seed=0)
        ct = random_volume(rng, shape=(4, 4, 4), kind=VolumeKind.CT_HU)
        pet = random_volume(rng, shape=(4, 4, 5))
        called = []

        class Probe(SuvThresholdPredictor):
            def predict(self, stack):
                called.append(1)
                return super().predict(stack)

        cfg = EnsembleConfig(folds=(Probe(),), tta_flips=("identity",),
                             reduced_flips=("identity",))
        from petseg.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            route(ct, pet, model, cfg, cfg)
        assert not called

    def test_mask_respects_threshold_rule(self):
        model = self.train_tiny_disc()
        pet, ct, _ = self.make_phantom_pair(TracerStyle.PSMA_LIKE, seed=41)
        cfg = make_suv_ensemble(n_folds=2, tta_flips=("identity", "x"),
                                reduced_flips=("identity",), decision_threshold=0.5)
        result = route(ct, pet, model, cfg, cfg)
        assert np.array_equal(result.mask.mask, result.prob_map.data >= 0.5)
        assert result.tta_used == ("identity", "x")
