"""The facade: one keyword-only topk(), removed v1 spellings, devices."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import A100, H100, Device, check_topk, get_spec, topk
from repro.api import resolve_device


class TestFacade:
    def test_default_is_auto_dispatch(self, rng):
        data = rng.standard_normal(4096).astype(np.float32)
        r = topk(data, 16)
        assert r.algo == "auto"
        check_topk(data, r.values, r.indices)

    def test_keyword_only(self, rng):
        data = rng.standard_normal(256).astype(np.float32)
        with pytest.raises(TypeError):
            topk(data, 8, "air_topk")  # algo must be keyword

    def test_largest_and_algo(self, rng):
        data = rng.standard_normal(4096).astype(np.float32)
        r = topk(data, 16, algo="grid_select", largest=True)
        check_topk(data, r.values, r.indices, largest=True)

    def test_params_reach_the_algorithm(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        fused = topk(data, 64, algo="air_topk", params={"fuse_last_filter": True})
        plain = topk(data, 64, algo="air_topk", params={"fuse_last_filter": False})
        assert np.array_equal(fused.values, plain.values)
        launches = lambda r: r.device.counters.kernel_launches  # noqa: E731
        assert launches(fused) == launches(plain) - 1

    def test_batch_reshapes_flat_buffer(self, rng):
        flat = rng.standard_normal(8 * 1024).astype(np.float32)
        r = topk(flat, 8, algo="sort", batch=8)
        assert r.values.shape == (8, 8)
        expected = topk(flat.reshape(8, 1024), 8, algo="sort")
        assert np.array_equal(r.values, expected.values)
        assert np.array_equal(r.indices, expected.indices)

    def test_batch_must_divide(self, rng):
        flat = rng.standard_normal(1000).astype(np.float32)
        with pytest.raises(ValueError):
            topk(flat, 4, batch=7)

    def test_batch_must_match_2d(self, rng):
        data = rng.standard_normal((4, 128)).astype(np.float32)
        with pytest.raises(ValueError):
            topk(data, 4, batch=3)
        assert topk(data, 4, algo="sort", batch=4).values.shape == (4, 4)


class TestInputBoundary:
    """``k`` and the dtype are checked where the call enters the package."""

    @pytest.mark.parametrize("algo", repro.algorithm_names())
    def test_numpy_integer_k_is_an_int(self, rng, algo):
        data = rng.standard_normal(4096).astype(np.float32)
        want = topk(data, 64, algo=algo)
        got = topk(data, np.int64(64), algo=algo)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.indices, want.indices)
        assert got.time == want.time

    @pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"])
    @pytest.mark.parametrize("algo", ["auto", "sort", "warp_select"])
    def test_non_integer_k_is_input_error(self, rng, algo, k):
        data = rng.standard_normal(256).astype(np.float32)
        with pytest.raises(repro.InputError, match="k must be an integer"):
            topk(data, k, algo=algo)

    @pytest.mark.parametrize(
        "dtype", ["bool", "int8", "uint8", "complex64", "object", "datetime64[s]"]
    )
    def test_unsupported_dtype_is_input_error(self, dtype):
        data = np.zeros(256, dtype=dtype)
        with pytest.raises(repro.InputError, match="unsupported radix key dtype"):
            topk(data, 4, algo="sort")

    @pytest.mark.parametrize("largest", [False, True])
    def test_non_native_byte_order_is_selected_like_native(self, rng, largest):
        data = rng.standard_normal(4096).astype(np.float32)
        want = topk(data, 16, algo="air_topk", largest=largest)
        got = topk(data.astype(">f4"), 16, algo="air_topk", largest=largest)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.indices, want.indices)


class TestDeviceResolution:
    def test_default_is_a100(self):
        run_device, spec = resolve_device(None)
        assert run_device is None and spec is A100

    def test_preset_name(self):
        _, spec = resolve_device("H100")
        assert spec is get_spec("H100")

    def test_spec_object(self):
        _, spec = resolve_device(H100)
        assert spec is H100

    def test_existing_device_is_reused(self, rng):
        dev = Device(A100)
        data = rng.standard_normal(512).astype(np.float32)
        r = topk(data, 4, algo="sort", device=dev)
        assert r.device is dev

    def test_bad_device_type(self):
        with pytest.raises(TypeError):
            resolve_device(3.14)

    def test_facade_accepts_preset_string(self, rng):
        data = rng.standard_normal(512).astype(np.float32)
        r = topk(data, 4, algo="sort", device="H100")
        assert r.device.spec is get_spec("H100")


class TestRemovedSpellings:
    def test_v1_spellings_fail(self, rng):
        """3.0 removed the v1 shims; each old spelling now fails loudly."""
        data = rng.standard_normal(2000).astype(np.float32)
        assert not hasattr(repro, "select_k")
        with pytest.raises(TypeError, match="spec"):
            topk(data, 8, algo="sort", spec=H100)
        with pytest.raises(TypeError, match="alpha"):
            topk(data, 8, algo="air_topk", alpha=64.0)
        with pytest.raises(TypeError, match="alpha"):
            repro.get_algorithm("air_topk", alpha=64.0)
        assert list(inspect.signature(topk).parameters) == [
            "data", "k", "algo", "device", "largest", "batch", "seed",
            "params", "mode", "min_recall",
        ]


class TestVersion:
    def test_pyproject_matches_package(self):
        """One version: pyproject.toml's must equal ``repro.__version__``."""
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__
