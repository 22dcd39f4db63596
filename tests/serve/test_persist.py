"""Artifact persistence: bit-exact round trips + schema checking.

The headline property: for every estimator in the family and every
serialisable kernel, ``load_model(save_model(est, p)).predict(q)`` is
**bit-identical** to ``est.predict(q)`` on held-out queries.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaselineCUDAKernelKMeans,
    DistributedPopcornKernelKMeans,
    ElkanKMeans,
    LloydKMeans,
    NystromKernelKMeans,
    PopcornKernelKMeans,
    PRMLTKernelKMeans,
    WeightedPopcornKernelKMeans,
)
from repro.core import OnTheFlyKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.kernels import LaplacianKernel, kernel_by_name
from repro.serve import (
    MODEL_SCHEMA_VERSION,
    inspect_model,
    load_model,
    save_model,
)

ALL_KERNELS = (
    "linear",
    "polynomial",
    "gaussian",
    "sigmoid",
    "cosine",
    "rational-quadratic",
)

POINT_ESTIMATORS = {
    "popcorn": lambda k, kern: PopcornKernelKMeans(
        k, kernel=kern, dtype=np.float64, max_iter=6, seed=0
    ),
    "baseline": lambda k, kern: BaselineCUDAKernelKMeans(
        k, kernel=kern, dtype=np.float64, max_iter=6, seed=0
    ),
    "distributed": lambda k, kern: DistributedPopcornKernelKMeans(
        k, kernel=kern, n_devices=2, max_iter=6, seed=0
    ),
    "nystrom": lambda k, kern: NystromKernelKMeans(
        k, kernel=kern, n_landmarks=32, seed=0
    ),
    "onthefly": lambda k, kern: OnTheFlyKernelKMeans(
        k, kernel=kern, block_rows=24, max_iter=6, seed=0
    ),
    "prmlt": lambda k, kern: PRMLTKernelKMeans(k, kernel=kern, max_iter=6, seed=0),
    "lloyd": lambda k, kern: LloydKMeans(k, seed=0),
    "elkan": lambda k, kern: ElkanKMeans(k, seed=0),
}


def _data(seed=3, n=70, d=4, k=3):
    x, _ = make_blobs(n, d, k, rng=seed)
    q = np.random.default_rng(seed + 100).standard_normal((17, d))
    return x.astype(np.float64), q, k


class TestRoundTripBitExact:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    @pytest.mark.parametrize("estimator", sorted(POINT_ESTIMATORS))
    def test_save_load_predict_identical(self, estimator, kernel, tmp_path):
        """save -> load -> predict matches in-memory predict bit for bit."""
        x, q, k = _data()
        est = POINT_ESTIMATORS[estimator](k, kernel_by_name(kernel)).fit(x)
        expected = est.predict(q)
        path = save_model(est, str(tmp_path / "m.npz"))
        loaded = load_model(path)
        assert type(loaded) is type(est)
        assert np.array_equal(loaded.predict(q), expected)
        assert np.array_equal(loaded.labels_, est.labels_)
        # batch path rides the same arrays
        assert np.array_equal(loaded.predict_batch([q[:5], q[5:]]), expected)

    def test_weighted_cross_kernel_round_trip(self, tmp_path):
        x, q, k = _data()
        kern = kernel_by_name("gaussian")
        km = kern.pairwise(x)
        w = np.random.default_rng(0).uniform(0.5, 2.0, size=x.shape[0])
        est = WeightedPopcornKernelKMeans(k, seed=0).fit(kernel_matrix=km, sample_weight=w)
        kc = kern.pairwise(q, x)
        expected = est.predict(cross_kernel=kc)
        loaded = load_model(save_model(est, str(tmp_path / "w.npz")))
        assert np.array_equal(loaded.predict(cross_kernel=kc), expected)

    def test_spectral_cross_kernel_round_trip(self, tmp_path):
        """With spectral, the tenth registered estimator round-trips too:
        queries supply cross-kernel rows in the normalized-cut space."""
        from repro import SpectralKernelKMeans
        from repro.data import make_moons
        from repro.graph import ncut_kernel
        import networkx as nx

        x, _ = make_moons(80, rng=1)
        est = SpectralKernelKMeans(2, seed=0).fit(x)
        a = nx.to_numpy_array(est.graph_, nodelist=range(x.shape[0]), weight="weight")
        km, _ = ncut_kernel(a)
        expected = est.predict(cross_kernel=km)  # training rows as queries
        loaded = load_model(save_model(est, str(tmp_path / "s.npz")))
        assert type(loaded) is SpectralKernelKMeans
        assert np.array_equal(loaded.predict(cross_kernel=km), expected)

    def test_laplacian_precomputed_round_trip(self, tmp_path):
        """The non-Gram-expressible kernel goes through the cross-kernel."""
        x, q, k = _data()
        kern = LaplacianKernel(gamma=0.5)
        est = PopcornKernelKMeans(k, kernel=kern, dtype=np.float64, seed=0).fit(
            kernel_matrix=kern.pairwise(x)
        )
        kc = kern.pairwise(q, x)
        expected = est.predict(cross_kernel=kc)
        loaded = load_model(save_model(est, str(tmp_path / "l.npz")))
        assert np.array_equal(loaded.predict(cross_kernel=kc), expected)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        kernel=st.sampled_from(ALL_KERNELS),
        tile=st.one_of(st.none(), st.integers(1, 11)),
    )
    def test_round_trip_property(self, seed, kernel, tile, tmp_path_factory):
        """Random data / kernel / tiling: the round trip never drifts a bit."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 3))
        q = rng.standard_normal((9, 3))
        est = PopcornKernelKMeans(
            3, kernel=kernel_by_name(kernel), dtype=np.float64, max_iter=4, seed=seed
        ).fit(x)
        path = str(tmp_path_factory.mktemp("rt") / "m.npz")
        loaded = load_model(save_model(est, path))
        assert np.array_equal(
            loaded.predict(q, chunk_rows=tile), est.predict(q, chunk_rows=tile)
        )


class TestSchemaChecking:
    def test_schema_version_mismatch_rejected(self, tmp_path):
        x, _, k = _data()
        path = save_model(LloydKMeans(k, seed=0).fit(x), str(tmp_path / "m.npz"))
        # rewrite the header with a future schema version
        with np.load(path) as npz:
            arrays = {key: npz[key] for key in npz.files if key != "__meta__"}
            meta = json.loads(bytes(npz["__meta__"]).decode())
        meta["schema_version"] = MODEL_SCHEMA_VERSION + 1
        header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=header, **arrays)
        with pytest.raises(ConfigError, match="schema version"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such"):
            load_model(str(tmp_path / "absent.npz"))

    def test_not_an_artifact(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01garbage" * 32)
        with pytest.raises(ConfigError, match="not a readable"):
            load_model(path)

    def test_npz_without_header_rejected(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        with open(path, "wb") as fh:
            np.savez(fh, a=np.zeros(3))
        with pytest.raises(ConfigError, match="metadata header"):
            load_model(path)

    def test_unknown_estimator_rejected(self, tmp_path):
        x, _, k = _data()
        path = save_model(LloydKMeans(k, seed=0).fit(x), str(tmp_path / "m.npz"))
        with np.load(path) as npz:
            arrays = {key: npz[key] for key in npz.files if key != "__meta__"}
            meta = json.loads(bytes(npz["__meta__"]).decode())
        meta["estimator"] = "EvilEstimator"
        header = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=header, **arrays)
        with pytest.raises(ConfigError, match="unknown estimator"):
            load_model(path)

    def test_unfitted_estimator_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not fitted"):
            save_model(LloydKMeans(3), str(tmp_path / "m.npz"))

    def test_custom_estimator_rejected(self, tmp_path):
        class Custom:
            labels_ = np.zeros(3, dtype=np.int32)
            n_clusters = 1

        with pytest.raises(ConfigError, match="cannot persist"):
            save_model(Custom(), str(tmp_path / "m.npz"))

    def test_custom_kernel_rejected(self, tmp_path):
        from repro.kernels import PolynomialKernel

        class MyKernel(PolynomialKernel):
            pass

        x, _, k = _data()
        est = PopcornKernelKMeans(k, kernel=MyKernel(), dtype=np.float64, seed=0).fit(x)
        with pytest.raises(ConfigError, match="custom kernel"):
            save_model(est, str(tmp_path / "m.npz"))

    def test_artifact_is_picklefree_zip(self, tmp_path):
        x, _, k = _data()
        path = save_model(
            PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x),
            str(tmp_path / "m.npz"),
        )
        assert zipfile.is_zipfile(path)
        loaded = np.load(path, allow_pickle=False)  # must not need pickle
        assert "__meta__" in loaded.files
        loaded.close()


class TestClassicalCentersAliasing:
    def test_centers_stored_once_and_realiased(self, tmp_path):
        """Lloyd/Elkan artifacts carry one centers matrix, not two."""
        x, _, k = _data()
        for cls in (LloydKMeans, ElkanKMeans):
            est = cls(k, seed=0).fit(x)
            path = save_model(est, str(tmp_path / f"{cls.__name__}.npz"))
            meta = inspect_model(path)
            assert "centers" not in meta["array_info"]
            assert "support_centers" in meta["array_info"]
            loaded = load_model(path)
            assert np.array_equal(loaded.centers_, est.centers_)
            assert loaded.centers_ is loaded._support_centers


class TestInspect:
    def test_metadata_surface(self, tmp_path):
        x, _, k = _data()
        est = PopcornKernelKMeans(
            k, kernel="gaussian", dtype=np.float64, max_iter=5, seed=0
        ).fit(x)
        meta = inspect_model(save_model(est, str(tmp_path / "m.npz")))
        assert meta["estimator"] == "popcorn"
        assert meta["schema_version"] == MODEL_SCHEMA_VERSION
        assert meta["params"]["n_clusters"] == k
        assert meta["params"]["kernel"]["name"] == "gaussian"
        assert meta["fit"]["n_iter"] == est.n_iter_
        assert meta["array_info"]["labels"]["shape"] == [x.shape[0]]
        assert meta["array_info"]["support_x"]["shape"] == list(x.shape)
        assert meta["file_bytes"] > 0
