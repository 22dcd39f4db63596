"""The introspectable-params protocol: get/set/clone/repr across the family.

Headline properties:

* ``clone(est)`` then ``fit`` is **bit-identical** to a fresh fit of the
  same configuration (the guarantee grid search rests on);
* ``set_params`` round-trips ``get_params`` for every registered
  estimator (and across backends);
* unknown parameter names raise :class:`~repro.errors.ConfigError`
  naming the valid set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    NotFittedError,
    check_is_fitted,
    clone,
    make_estimator,
    available_estimators,
    get_estimator_class,
)
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.kernels import GaussianKernel, PolynomialKernel, kernel_by_name

#: estimators whose uniform fit accepts a plain point matrix
POINT_FITTABLE = (
    "popcorn",
    "baseline",
    "onthefly",
    "prmlt",
    "lloyd",
    "elkan",
    "nystrom",
    "distributed",
    "spectral",
    "weighted",
)

#: backend values every estimator accepts (parse_shard_backend and the
#: engine registry both understand these)
BACKENDS = ("auto", "host", "sharded:2")


def _points(n=50, d=3, k=3, seed=1):
    x, _ = make_blobs(n, d, k, rng=seed)
    return x.astype(np.float64)


class TestGetSetRoundTrip:
    @pytest.mark.parametrize("name", sorted(available_estimators()))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_set_params_round_trips_get_params(self, name, backend):
        est = make_estimator(name, n_clusters=3, backend=backend, seed=7)
        params = est.get_params(deep=False)
        other = make_estimator(name, n_clusters=2)
        other.set_params(**params)
        assert other.get_params(deep=False).keys() == params.keys()
        for key, value in other.get_params(deep=False).items():
            assert repr(value) == repr(params[key]), key

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_unknown_param_names_valid_set(self, name):
        est = make_estimator(name, n_clusters=2)
        with pytest.raises(ConfigError) as err:
            est.set_params(definitely_not_a_param=1)
        message = str(err.value)
        assert "definitely_not_a_param" in message
        # the error names the valid set
        for param in est.param_names():
            assert param in message

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_make_estimator_rejects_unknown_params(self, name):
        with pytest.raises(ConfigError, match="valid parameters"):
            make_estimator(name, n_clusters=2, definitely_not_a_param=1)

    def test_nested_kernel_access(self):
        est = make_estimator("popcorn", n_clusters=2, kernel="gaussian")
        assert est.get_params()["kernel__gamma"] == 1.0
        est.set_params(kernel__gamma=0.25, kernel__sigma2=2.0)
        assert est.kernel.gamma == 0.25
        assert est.kernel.sigma2 == 2.0
        with pytest.raises(ConfigError, match="valid parameters"):
            est.set_params(kernel__bogus=1)

    def test_set_params_revalidates(self):
        est = make_estimator("popcorn", n_clusters=2)
        with pytest.raises(ConfigError):
            est.set_params(n_clusters=0)
        with pytest.raises(ConfigError):
            est.set_params(init="bogus")
        with pytest.raises(ConfigError):
            est.set_params(backend="fpga")
        with pytest.raises(ConfigError):
            est.set_params(kernel__gamma=-1.0)


class TestCloneFitBitIdentical:
    @pytest.mark.parametrize("name", sorted(POINT_FITTABLE))
    def test_clone_then_fit_matches_fresh_fit(self, name):
        x = _points()
        est = make_estimator(name, n_clusters=3, seed=0)
        c = clone(est)
        a = est.fit(x).labels_
        b = c.fit(x).labels_
        assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 2**16),
        gamma=st.floats(0.2, 4.0),
        k=st.integers(2, 4),
    )
    def test_clone_property_popcorn(self, seed, gamma, k):
        """clone -> fit is bit-identical to a fresh fit (property)."""
        x = _points(seed=2)
        est = make_estimator(
            "popcorn",
            n_clusters=k,
            kernel=GaussianKernel(gamma=gamma),
            dtype=np.float64,
            max_iter=6,
            seed=seed,
        )
        fresh = make_estimator(
            "popcorn",
            n_clusters=k,
            kernel=GaussianKernel(gamma=gamma),
            dtype=np.float64,
            max_iter=6,
            seed=seed,
        )
        assert np.array_equal(clone(est).fit(x).labels_, fresh.fit(x).labels_)
        # the original was never mutated by cloning
        assert not hasattr(est, "labels_")

    def test_clone_deep_copies_kernel(self):
        est = make_estimator("popcorn", n_clusters=2, kernel="polynomial")
        c = clone(est)
        c.set_params(kernel__degree=5)
        assert est.kernel.degree == 2

    def test_clone_of_fitted_is_unfitted(self):
        x = _points()
        est = make_estimator("lloyd", n_clusters=3, seed=0).fit(x)
        c = clone(est)
        with pytest.raises(NotFittedError):
            c.predict(x)

    def test_clone_rejects_non_protocol_objects(self):
        with pytest.raises(ConfigError, match="clone"):
            clone(object())


class TestReprAndFittedGuards:
    def test_repr_shows_only_non_default_params(self):
        assert repr(make_estimator("popcorn", n_clusters=3)) == (
            "PopcornKernelKMeans(n_clusters=3)"
        )
        text = repr(make_estimator("popcorn", n_clusters=3, backend="host", chunk_rows=32))
        assert "backend='host'" in text and "chunk_rows=32" in text
        assert "max_iter" not in text

    def test_repr_round_trips_kernels(self):
        k = kernel_by_name("polynomial", degree=4)
        assert repr(k) == "PolynomialKernel(degree=4)"
        assert repr(PolynomialKernel()) == "PolynomialKernel()"

    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_predict_before_fit_raises_not_fitted(self, name):
        est = make_estimator(name, n_clusters=2)
        with pytest.raises(NotFittedError, match="not fitted"):
            est.predict(np.zeros((2, 3)))
        with pytest.raises(NotFittedError):
            check_is_fitted(est)

    def test_not_fitted_error_is_config_and_attribute_error(self):
        est = make_estimator("popcorn", n_clusters=2)
        with pytest.raises(ConfigError):
            est.predict(np.zeros((2, 3)))
        with pytest.raises(AttributeError):
            est.predict(np.zeros((2, 3)))


class TestUniformFitContract:
    @pytest.mark.parametrize("name", sorted(available_estimators()))
    def test_fit_signature_is_uniform(self, name):
        import inspect

        sig = inspect.signature(get_estimator_class(name).fit)
        names = list(sig.parameters)
        assert names == [
            "self",
            "x",
            "kernel_matrix",
            "init_labels",
            "sample_weight",
        ], name

    def test_unsupported_inputs_raise_with_reason(self):
        x = _points()
        with pytest.raises(ConfigError, match="does not accept kernel_matrix"):
            make_estimator("lloyd", n_clusters=2).fit(x, kernel_matrix=np.eye(50))
        with pytest.raises(ConfigError, match="does not accept sample_weight"):
            make_estimator("elkan", n_clusters=2).fit(x, sample_weight=np.ones(50))
        with pytest.raises(ConfigError, match="does not accept kernel_matrix"):
            make_estimator("onthefly", n_clusters=2).fit(x, kernel_matrix=np.eye(50))
        with pytest.raises(ConfigError, match="does not accept init_labels"):
            make_estimator("nystrom", n_clusters=2).fit(
                x, init_labels=np.zeros(50, dtype=np.int32)
            )

    def test_fit_predict_shared_forwarding(self):
        x = _points()
        for name in ("popcorn", "lloyd", "onthefly", "prmlt", "elkan"):
            est = make_estimator(name, n_clusters=3, seed=0)
            labels = est.fit_predict(x)
            assert np.array_equal(labels, est.labels_)
        # and fit_predict is one shared implementation, not local overrides
        import repro.engine.base as base

        for name in available_estimators():
            cls = get_estimator_class(name)
            assert cls.fit_predict is base.OutOfSamplePredictor.fit_predict, name

    def test_popcorn_sample_weight_matches_weighted_estimator(self):
        from repro import PopcornKernelKMeans, WeightedPopcornKernelKMeans
        from repro.baselines import random_labels
        from repro.kernels import kernel_matrix

        x = _points()
        km = kernel_matrix(x, PolynomialKernel())
        w = np.random.default_rng(0).uniform(0.5, 2.0, x.shape[0])
        init = random_labels(x.shape[0], 3, np.random.default_rng(1))
        a = PopcornKernelKMeans(3, dtype=np.float64, backend="host", max_iter=8).fit(
            kernel_matrix=km, sample_weight=w, init_labels=init
        )
        b = WeightedPopcornKernelKMeans(3, max_iter=8).fit(
            kernel_matrix=km, sample_weight=w, init_labels=init
        )
        assert np.array_equal(a.labels_, b.labels_)

    def test_weighted_square_symmetric_x_rejected_as_ambiguous(self):
        """A legacy fit(km) positional call must fail loudly, not silently
        cluster the kernel matrix as points."""
        from repro.kernels import kernel_matrix

        x = _points()
        km = kernel_matrix(x, PolynomialKernel())
        with pytest.raises(ConfigError, match="kernel_matrix"):
            make_estimator("weighted", n_clusters=3).fit(km)

    def test_weighted_accepts_points_through_kernel(self):
        x = _points()
        est = make_estimator(
            "weighted", n_clusters=3, kernel="polynomial", seed=0
        ).fit(x)
        # fitted on points: held-out predict works without a cross kernel
        assert est.predict(x[:7]).shape == (7,)
