"""String-keyed estimator registry and factory.

Every estimator in the package registers under a short stable name
(``@register_estimator("popcorn")`` next to the class); downstream
layers — model persistence (:mod:`repro.serve.persist`), both console
scripts, the bench experiment specs, and the model-selection layer —
construct estimators exclusively through :func:`make_estimator` instead
of hardcoding name -> class -> kwargs mappings.  A new estimator becomes
persistable, servable, benchable, and grid-searchable by adding one
decorator line.

Because every registered class implements the params protocol
(:mod:`repro.params`), an estimator's full configuration round-trips
through JSON: :func:`estimator_config` encodes ``(name, get_params())``
with tagged encodings for the non-primitive parameter values (kernels,
dtypes, device/CPU/interconnect specs), and :func:`estimator_from_config`
rebuilds a validated, unfitted estimator — no pickling anywhere.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError

__all__ = [
    "CAPABILITY_TAGS",
    "register_estimator",
    "available_estimators",
    "get_estimator_class",
    "make_estimator",
    "estimator_name",
    "estimator_capabilities",
    "require_capability",
    "estimator_config",
    "estimator_from_config",
]

#: The recognised capability tags.  ``supports_partial_fit`` marks
#: estimators with an online mini-batch path, ``supports_sample_weight``
#: marks estimators whose ``fit`` honours per-point weights, and
#: ``requires_precomputed_kernel`` marks estimators that cannot build
#: their own Gram matrix from points (none of the bundled ones — every
#: kernel-family estimator grew a points path in the API redesign).
CAPABILITY_TAGS = (
    "supports_partial_fit",
    "supports_sample_weight",
    "requires_precomputed_kernel",
)

#: Modules imported by :func:`_load_builtins`; each registers its
#: estimators as an import side effect (the bench registry pattern).
_ESTIMATOR_MODULES = (
    "repro.core.popcorn",
    "repro.core.weighted",
    "repro.core.onthefly",
    "repro.baselines.cuda_baseline",
    "repro.baselines.cpu_prmlt",
    "repro.baselines.lloyd",
    "repro.baselines.elkan",
    "repro.approx.nystrom",
    "repro.distributed.dist_popcorn",
    "repro.graph.spectral",
)

_REGISTRY: Dict[str, type] = {}


def register_estimator(name: str, *, capabilities: Tuple[str, ...] = ()):
    """Class decorator adding an estimator to the registry.

    ``name`` is the stable string key (``"popcorn"``) used by
    :func:`make_estimator`, the CLIs, and persisted model artifacts.
    ``capabilities`` declares the subset of :data:`CAPABILITY_TAGS` the
    estimator supports; downstream layers query them through
    :func:`estimator_capabilities` / ``available_estimators(tag=...)``
    instead of sniffing for methods.  Duplicate names are a
    :class:`~repro.errors.ConfigError` unless they re-register the
    identical class (idempotent re-imports are fine).
    """
    bad = set(capabilities) - set(CAPABILITY_TAGS)
    if bad:
        raise ConfigError(
            f"unknown capability tag(s) {sorted(bad)} for estimator "
            f"{name!r}; recognised tags: {list(CAPABILITY_TAGS)}"
        )

    def decorate(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"estimator name {name!r} is already registered to "
                f"{existing.__name__}"
            )
        _REGISTRY[name] = cls
        cls._registry_name = name
        cls._capabilities = frozenset(capabilities)
        return cls

    return decorate


def _load_builtins() -> None:
    """Import every bundled estimator module (idempotent)."""
    for mod in _ESTIMATOR_MODULES:
        importlib.import_module(mod)


def available_estimators(tag: Optional[str] = None) -> Tuple[str, ...]:
    """Registered estimator names, sorted.

    ``tag`` restricts the listing to estimators declaring that
    capability: ``available_estimators(tag="supports_partial_fit")``.
    """
    _load_builtins()
    if tag is None:
        return tuple(sorted(_REGISTRY))
    if tag not in CAPABILITY_TAGS:
        raise ConfigError(
            f"unknown capability tag {tag!r}; recognised tags: "
            f"{list(CAPABILITY_TAGS)}"
        )
    return tuple(
        sorted(
            name
            for name, cls in _REGISTRY.items()
            if tag in getattr(cls, "_capabilities", frozenset())
        )
    )


def estimator_capabilities(obj) -> Tuple[str, ...]:
    """The capability tags of an estimator name, class, or instance."""
    if isinstance(obj, str):
        cls = get_estimator_class(obj)
    else:
        cls = obj if isinstance(obj, type) else type(obj)
    return tuple(sorted(getattr(cls, "_capabilities", frozenset())))


def require_capability(est, tag: str, *, method: str) -> None:
    """Uniform guard for capability-gated methods.

    Raises an explained :class:`~repro.errors.ConfigError` (never an
    ``AttributeError``) when ``est`` does not declare ``tag``, naming
    the estimators that do.
    """
    if tag not in CAPABILITY_TAGS:
        raise ConfigError(
            f"unknown capability tag {tag!r}; recognised tags: "
            f"{list(CAPABILITY_TAGS)}"
        )
    cls = type(est)
    if tag in getattr(cls, "_capabilities", frozenset()):
        return
    supporting = ", ".join(available_estimators(tag=tag)) or "none"
    raise ConfigError(
        f"{cls.__name__} does not support {method}() (missing capability "
        f"{tag!r}); estimators that do: {supporting}"
    )


def get_estimator_class(name: str) -> type:
    """Look up a registered estimator class by name."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown estimator {name!r}; available: {known}") from None


def make_estimator(name: str, **params):
    """Construct a registered estimator: ``make_estimator("popcorn", n_clusters=8)``.

    ``params`` go straight to the class constructor, so they run through
    the estimator's :class:`~repro.params.ParamSpec` validation; unknown
    names raise :class:`~repro.errors.ConfigError` naming the valid set.
    """
    cls = get_estimator_class(name)
    specs = cls.param_specs()
    unknown = set(params) - set(specs)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for estimator {name!r} "
            f"({cls.__name__}); valid parameters: {sorted(specs)}"
        )
    missing = [s.name for s in specs.values() if s.required and s.name not in params]
    if missing:
        raise ConfigError(
            f"estimator {name!r} ({cls.__name__}) requires parameter(s) "
            f"{missing}: make_estimator({name!r}, "
            + ", ".join(f"{m}=..." for m in missing)
            + ")"
        )
    return cls(**params)


def filter_params(name: str, params: Dict[str, object]) -> Dict[str, object]:
    """The subset of ``params`` the named estimator declares.

    The CLI idiom: offer one flag set for every model and forward only
    what the estimator's parameter surface accepts (``kernel`` for the
    kernel family but not Lloyd/Elkan, ``chunk_rows`` for Popcorn, ...).
    """
    supported = get_estimator_class(name).param_specs()
    return {key: value for key, value in params.items() if key in supported}


def estimator_name(obj) -> str:
    """The registry name of an estimator instance or class."""
    cls = obj if isinstance(obj, type) else type(obj)
    _load_builtins()
    name = getattr(cls, "_registry_name", None)
    if name is None or _REGISTRY.get(name) is not cls:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"{cls.__name__} is not a registered estimator; registered: {known}"
        )
    return name


# ----------------------------------------------------------------------
# JSON-safe parameter encoding (the persistence header format)
# ----------------------------------------------------------------------

_SPEC_KINDS = None  # lazily built: kind tag -> dataclass type


def _spec_kinds() -> Dict[str, type]:
    global _SPEC_KINDS
    if _SPEC_KINDS is None:
        from .distributed.comm import CommSpec
        from .gpu.spec import CPUSpec, DeviceSpec

        _SPEC_KINDS = {
            "device_spec": DeviceSpec,
            "cpu_spec": CPUSpec,
            "comm_spec": CommSpec,
        }
    return _SPEC_KINDS


def _canonical_kernel_name(kernel) -> str:
    from .kernels import _BY_NAME

    for name, cls in _BY_NAME.items():
        if cls is type(kernel):
            return name
    raise ConfigError(
        f"cannot encode custom kernel {type(kernel).__name__}; only kernels "
        "registered in repro.kernels.kernel_by_name are serialisable"
    )


def _encode_value(name: str, value):
    """One parameter value -> a JSON-safe representation."""
    from .engine.backends import Backend, get_backend
    from .gpu.device import Device
    from .kernels import Kernel

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.dtype):
        return {"__kind__": "dtype", "name": value.name}
    if isinstance(value, Device):
        # a live device is a runtime object; its spec is its identity
        return {"__kind__": "device_spec", "fields": dataclasses.asdict(value.spec)}
    if isinstance(value, Backend):
        # registry-resolvable backends (host/device/sharded:<g>) encode by
        # name — but only when the instance carries no configuration the
        # name would silently drop (e.g. a ShardedBackend with a custom
        # interconnect); otherwise fall through to the rejection below
        backend_name = getattr(value, "name", None)
        if isinstance(backend_name, str):
            try:
                resolved = get_backend(backend_name)
            except ConfigError:
                pass
            else:
                if type(resolved) is type(value) and vars(resolved) == vars(value):
                    return backend_name
    if isinstance(value, Kernel):
        return {
            "__kind__": "kernel",
            "name": _canonical_kernel_name(value),
            "params": {
                k: _encode_value(k, v) for k, v in value.get_params(deep=False).items()
            },
        }
    for kind, cls in _spec_kinds().items():
        if isinstance(value, cls):
            return {"__kind__": kind, "fields": dataclasses.asdict(value)}
    raise ConfigError(
        f"parameter {name}={value!r} is not JSON-serialisable; pass it by "
        "name/value (e.g. backend='sharded:4' instead of a Backend instance) "
        "to make the estimator persistable"
    )


def _decode_value(name: str, value):
    if not isinstance(value, dict):
        return value
    kind = value.get("__kind__")
    if kind == "dtype":
        return np.dtype(value["name"])
    if kind == "kernel":
        from .kernels import kernel_by_name

        try:
            params = {
                k: _decode_value(k, v) for k, v in value.get("params", {}).items()
            }
            return kernel_by_name(value["name"], **params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config names an unloadable kernel: {exc}") from exc
    spec_cls = _spec_kinds().get(kind)
    if spec_cls is not None:
        try:
            return spec_cls(**value["fields"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config carries a corrupt {kind}: {exc}") from exc
    raise ConfigError(f"parameter {name} carries unknown encoding {kind!r}")


def estimator_config(est) -> Dict[str, object]:
    """``{"estimator": name, "capabilities": [...], "params": {...}}`` —
    the JSON-safe identity of an estimator's configuration (what model
    artifacts store)."""
    return {
        "estimator": estimator_name(est),
        "capabilities": list(estimator_capabilities(est)),
        "params": {
            name: _encode_value(name, value)
            for name, value in est.get_params(deep=False).items()
        },
    }


def estimator_from_config(name: str, params: Optional[Dict[str, object]] = None):
    """Rebuild a validated, unfitted estimator from an encoded config."""
    decoded = {k: _decode_value(k, v) for k, v in (params or {}).items()}
    return make_estimator(name, **decoded)
