"""The introspectable-parameters protocol every estimator and kernel shares.

Before this module existed, each estimator hand-rolled its constructor
validation as an ``if``-chain and exposed no way to read its
configuration back, so every downstream layer (persistence, the CLIs,
the bench specs) re-encoded estimator-name -> class -> kwargs mappings by
hand.  The protocol centralises all of that:

* :class:`ParamSpec` — one declarative record per constructor parameter
  (default, type conversion, choices, bounds); a class lists its full
  parameter surface in a ``_params`` tuple and routes ``__init__``
  through :meth:`ParamsProtocol._init_params`, which validates and
  assigns every value in one place.
* :class:`ParamsProtocol` — the sklearn-style surface built on those
  specs: ``get_params(deep=)`` / ``set_params(**kw)`` (with nested
  ``kernel__gamma``-style access for parameter values that are
  themselves protocol objects), :func:`clone`, and a ``__repr__`` that
  shows only non-default parameters.
* :func:`check_is_fitted` — the uniform predict-before-fit guard; raises
  :class:`~repro.errors.NotFittedError` everywhere.

Adopters: every estimator in the package (through
:class:`repro.engine.base.OutOfSamplePredictor`) and every kernel class
(through :class:`repro.kernels.Kernel`).  The string-keyed estimator
registry (:mod:`repro.estimators`) and the model-selection layer
(:mod:`repro.select`) are built entirely on this protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigError, NotFittedError

__all__ = [
    "ParamSpec",
    "ParamsProtocol",
    "clone",
    "check_is_fitted",
    "optional",
]


def optional(convert: Callable[[object], object]) -> Callable[[object], object]:
    """Wrap a converter so None passes through (optional parameters)."""

    def convert_optional(value):
        return None if value is None else convert(value)

    return convert_optional


@dataclass(frozen=True)
class ParamSpec:
    """Declarative description of one constructor parameter.

    Attributes
    ----------
    name:
        The parameter (and attribute) name.
    default:
        The declared default; ``required=True`` parameters ignore it for
        repr purposes (they are always shown).
    convert:
        Optional ``value -> stored value`` conversion applied before
        assignment (e.g. ``np.dtype``, kernel-name resolution).  Raise
        :class:`~repro.errors.ConfigError` on bad input.
    choices:
        When set, the converted value must be one of these.
    low:
        Inclusive numeric lower bound on the converted value.
    required:
        True for parameters with no meaningful default (``n_clusters``).
    """

    name: str
    default: object = None
    convert: Optional[Callable[[object], object]] = None
    choices: Tuple[object, ...] = ()
    low: Optional[float] = None
    required: bool = field(default=False)

    def validate(self, value, owner: str) -> object:
        """Convert + validate one value; raises ConfigError with context."""
        if self.convert is not None:
            try:
                value = self.convert(value)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"invalid {self.name}={value!r} for {owner}: {exc}"
                ) from exc
        if self.choices and value not in self.choices:
            raise ConfigError(
                f"{self.name} must be one of {self.choices} for {owner}, got {value!r}"
            )
        if self.low is not None and value is not None and value < self.low:
            raise ConfigError(
                f"{self.name} must be >= {self.low} for {owner}, got {value!r}"
            )
        return value

    def converted_default(self, owner: str) -> object:
        """The default as it would be stored (for repr comparisons)."""
        return self.validate(self.default, owner)


def _seems_default(value, default) -> bool:
    """Best-effort 'is this the default?' for the non-default-only repr."""
    if value is default:
        return True
    try:
        eq = value == default
        if isinstance(eq, bool) and eq:
            return True
    except Exception:
        pass
    return repr(value) == repr(default)


class ParamsProtocol:
    """Mixin giving a class the introspectable-params surface.

    A subclass declares its **full** parameter surface as a ``_params``
    tuple of :class:`ParamSpec` (the nearest class in the MRO that
    defines ``_params`` wins — no implicit merging, so each concrete
    estimator documents exactly what it accepts) and funnels its
    ``__init__`` through :meth:`_init_params`.
    """

    #: full parameter surface of the class (nearest MRO definition wins)
    _params: Tuple[ParamSpec, ...] = ()

    # ------------------------------------------------------------------
    # spec plumbing
    # ------------------------------------------------------------------
    @classmethod
    def param_specs(cls) -> Dict[str, ParamSpec]:
        """Name -> :class:`ParamSpec` for this class's parameter surface."""
        return {spec.name: spec for spec in cls._params}

    @classmethod
    def param_names(cls) -> Tuple[str, ...]:
        """The declared parameter names, in declaration order."""
        return tuple(spec.name for spec in cls._params)

    def _init_params(self, **values) -> None:
        """Validate and assign every constructor parameter in one place.

        Replaces the per-``__init__`` if-chains: each value runs through
        its spec's conversion/choices/bounds, is assigned under the
        parameter name, and :meth:`_validate_params` then checks
        cross-parameter constraints (e.g. backend support).
        """
        specs = self.param_specs()
        owner = type(self).__name__
        unknown = set(values) - set(specs)
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {sorted(unknown)} for {owner}; "
                f"valid parameters: {sorted(specs)}"
            )
        for name, spec in specs.items():
            value = values.get(name, spec.default)
            setattr(self, name, spec.validate(value, owner))
        self._validate_params()

    def _validate_params(self) -> None:
        """Hook for cross-parameter validation (after assignment)."""

    # ------------------------------------------------------------------
    # the sklearn-style surface
    # ------------------------------------------------------------------
    def get_params(self, deep: bool = True) -> Dict[str, object]:
        """Current parameter values, by name.

        ``deep=True`` additionally expands parameter values that are
        themselves protocol objects (kernels) into ``kernel__gamma``-style
        entries, so nested configuration is addressable from the top.
        """
        out: Dict[str, object] = {}
        for name in self.param_names():
            value = getattr(self, name)
            out[name] = value
            if deep and isinstance(value, ParamsProtocol):
                for sub, sub_val in value.get_params(deep=True).items():
                    out[f"{name}__{sub}"] = sub_val
        return out

    def set_params(self, **params) -> "ParamsProtocol":
        """Update parameters (validated); returns self.

        Nested names (``kernel__gamma=0.5``) address parameters of
        protocol-valued parameters.  Unknown names raise
        :class:`~repro.errors.ConfigError` naming the valid set.
        """
        if not params:
            return self
        specs = self.param_specs()
        owner = type(self).__name__
        nested: Dict[str, Dict[str, object]] = {}
        flat: Dict[str, object] = {}
        for key, value in params.items():
            name, _, sub = key.partition("__")
            if name not in specs:
                raise ConfigError(
                    f"unknown parameter {key!r} for {owner}; "
                    f"valid parameters: {sorted(specs)}"
                )
            if sub:
                nested.setdefault(name, {})[sub] = value
            else:
                flat[name] = value
        for name, value in flat.items():
            setattr(self, name, specs[name].validate(value, owner))
        for name, sub_params in nested.items():
            target = getattr(self, name)
            if not isinstance(target, ParamsProtocol):
                raise ConfigError(
                    f"parameter {name!r} of {owner} does not support nested "
                    f"access (value {target!r} has no params protocol)"
                )
            target.set_params(**sub_params)
        self._validate_params()
        return self

    def clone(self) -> "ParamsProtocol":
        """A fresh **unfitted** instance with identical parameters.

        Protocol-valued parameters (kernels) are cloned recursively so
        the copy shares no mutable configuration with the original;
        fitted attributes are never copied.
        """
        kwargs = {}
        for name in self.param_names():
            value = getattr(self, name)
            if isinstance(value, ParamsProtocol):
                value = value.clone()
            kwargs[name] = value
        return type(self)(**kwargs)

    def __repr__(self) -> str:
        owner = type(self).__name__
        parts = []
        for spec in self._params:
            value = getattr(self, spec.name, spec.default)
            if not spec.required:
                try:
                    default = spec.converted_default(owner)
                except ConfigError:
                    default = spec.default
                if _seems_default(value, default):
                    continue
            parts.append(f"{spec.name}={value!r}")
        return f"{owner}({', '.join(parts)})"


def clone(obj: ParamsProtocol) -> ParamsProtocol:
    """Functional form of :meth:`ParamsProtocol.clone` (sklearn idiom)."""
    if not isinstance(obj, ParamsProtocol):
        raise ConfigError(
            f"cannot clone {type(obj).__name__}: it does not implement the "
            "params protocol"
        )
    return obj.clone()


def check_is_fitted(est, attributes: Tuple[str, ...] = ("labels_",)) -> None:
    """Raise :class:`~repro.errors.NotFittedError` unless ``est`` is fitted.

    An estimator counts as fitted when every named attribute exists
    (default: the universal ``labels_``).  This is the single
    predict-before-fit guard the whole package routes through.
    """
    missing = [a for a in attributes if not hasattr(est, a)]
    if missing:
        raise NotFittedError(
            f"{type(est).__name__} is not fitted; call fit() before using "
            f"{', '.join(missing)}"
        )
