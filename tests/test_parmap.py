"""Deterministic process-pool map tests (:mod:`repro.utils.parmap`)."""

import pytest

from repro.utils.parmap import (
    ParallelMapError,
    effective_cpu_count,
    parallel_map,
    resolve_workers,
)


def _square(x):
    return x * x


def _maybe_fail(x):
    if x == 3:
        raise RuntimeError("boom at 3")
    return x


class TestResolveWorkers:
    def test_none_and_one_mean_serial(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_zero_means_one_per_core(self):
        assert resolve_workers(0, 1000) == effective_cpu_count()

    def test_clamped_to_items(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(8, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-1, 4)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(7))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_parallel_results_in_input_order(self):
        items = list(range(9))
        out = parallel_map(_square, items, workers=2)
        assert out == [x * x for x in items]

    def test_serial_progress_in_input_order(self):
        seen = []
        parallel_map(
            _square,
            [4, 5, 6],
            labels=["a", "b", "c"],
            on_progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        assert seen == [(1, 3, "a"), (2, 3, "b"), (3, 3, "c")]

    def test_parallel_progress_is_dense_and_complete(self):
        seen = []
        parallel_map(
            _square,
            list(range(6)),
            workers=2,
            labels=[f"p{i}" for i in range(6)],
            on_progress=lambda done, total, label: seen.append(
                (done, total, label)
            ),
        )
        assert [d for d, _, _ in seen] == [1, 2, 3, 4, 5, 6]
        assert {label for _, _, label in seen} == {f"p{i}" for i in range(6)}

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parallel_map(_square, [1, 2], labels=["only-one"])

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            parallel_map(_maybe_fail, list(range(6)), workers=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom at 3"):
            parallel_map(_maybe_fail, list(range(6)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_its_label_and_chains_the_cause(self, workers):
        labels = [f"item-{i}" for i in range(6)]
        with pytest.raises(ParallelMapError, match="item-3") as excinfo:
            parallel_map(_maybe_fail, list(range(6)), workers=workers, labels=labels)
        assert excinfo.value.label == "item-3"
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert str(excinfo.value.__cause__) == "boom at 3"
