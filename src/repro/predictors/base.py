"""The per-operation demand predictor stack.

When an application calls ``register_fidelity``, "Spectra creates
predictors for each resource type.  Each predictor reads the logged
resource usage data and generates a parameterized model of demand ...
When subsequent operations are performed, Spectra updates the in-memory
model in addition to logging resource usage" (paper §3.4).

:class:`OperationDemandPredictor` bundles, for one registered operation:

* a :class:`~repro.predictors.datamodel.DataSpecificPredictor` per
  numeric resource (CPU cycles, bytes, RPC count, energy), binned on
  fidelity + plan and regressed on the input parameters;
* a :class:`~repro.predictors.fileaccess.FileAccessPredictor` for the
  file working set; and
* the backing :class:`~repro.predictors.logs.UsageLog`.

Applications may override any resource's model via
:meth:`set_custom_predictor` — the paper's "interface through which
application-specific predictors may be specified."
"""

from __future__ import annotations

from typing import (Any, Dict, List, NamedTuple, Optional, Protocol,
                    Sequence, Tuple)

import numpy as np

from .datamodel import DataSpecificPredictor
from .fileaccess import FileAccessPredictor
from .linear import design_row
from .logs import DiscreteKey, UsageLog, UsageSample, discrete_key


class DemandModel(Protocol):
    """Interface application-specific predictors must satisfy.

    ``discrete`` is a plain dict of the canonical bin values
    (``dict(discrete_key(...))``), the same form on every call.
    """

    def observe(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                value: float, data_object: Optional[str] = None) -> None: ...

    def predict(self, discrete: Dict[str, Any], continuous: Dict[str, float],
                data_object: Optional[str] = None) -> float: ...


class DemandQuery(NamedTuple):
    """One alternative's demand context, prepared once for every resource.

    Built by :meth:`OperationDemandPredictor.query`: ``key`` is the
    canonical bin key, ``features`` the regression inputs by name,
    ``features_key`` their sorted items (the memo key's continuous part)
    and ``row`` their :func:`~repro.predictors.linear.design_row` in the
    operation's feature order.
    """

    key: DiscreteKey
    features: Dict[str, float]
    features_key: Tuple[Tuple[str, float], ...]
    row: np.ndarray
    data_object: Optional[str]


class NoModelError(LookupError):
    """A prediction was requested for a resource never yet observed."""


class OperationDemandPredictor:
    """All demand models for one registered operation."""

    #: prediction-memo entries before the cache is wholesale dropped —
    #: a guard against unbounded feature-value diversity, not an LRU.
    PREDICT_CACHE_MAX = 4096

    def __init__(self, feature_names: Sequence[str] = (),
                 decay: float = 0.95, window: int = 200,
                 log: Optional[UsageLog] = None):
        self.feature_names = tuple(feature_names)
        self.decay = decay
        self.window = window
        self.log = log if log is not None else UsageLog()
        self._models: Dict[str, DataSpecificPredictor] = {}
        self._custom: Dict[str, DemandModel] = {}
        self.files = FileAccessPredictor()
        # Demand is a pure function of (model state, context): models
        # change only through observe_operation / set_custom_predictor,
        # both of which bump _version and drop this memo.  The solver
        # asks for the same handful of (resource, bin, features) demands
        # on every decision, so steady-state predictions become dict
        # hits instead of bin lookups + regression evaluations.
        self._version = 0
        self._predict_cache: Dict[tuple, Any] = {}
        #: set False to evaluate every prediction from the models (the
        #: pre-memo behavior); ``repro bench`` uses this for its
        #: baseline leg, and it doubles as an escape hatch for a custom
        #: model that cannot honor the purity contract.
        self.memoize = True
        # Rebuild in-memory models from an inherited log ("each predictor
        # reads the logged resource usage data").
        for sample in self.log:
            self._absorb(sample, record=False)

    # -- model management -------------------------------------------------------

    def set_custom_predictor(self, resource: str, model: DemandModel) -> None:
        """Install an application-specific model for *resource*.

        Like the built-in models, a custom model's ``predict`` must be a
        pure function of its ``observe`` history — predictions are
        memoized between observations.
        """
        self._custom[resource] = model
        self._invalidate_predictions()

    def _invalidate_predictions(self) -> None:
        self._version += 1
        if self._predict_cache:
            self._predict_cache.clear()

    def _model_for(self, resource: str) -> DataSpecificPredictor:
        model = self._models.get(resource)
        if model is None:
            model = DataSpecificPredictor(
                self.feature_names, decay=self.decay, window=self.window
            )
            self._models[resource] = model
        return model

    # -- updating ----------------------------------------------------------------

    def observe_operation(
        self,
        timestamp: float,
        discrete: Dict[str, Any],
        continuous: Dict[str, float],
        usage: Dict[str, float],
        file_accesses: Optional[Dict[str, int]] = None,
        data_object: Optional[str] = None,
        concurrent: bool = False,
        skip_energy_when_concurrent: bool = True,
    ) -> UsageSample:
        """Log one completed operation and update every model.

        Energy samples from concurrently executing operations are skipped
        (paper §3.3.3: "Spectra ignores data gathered from concurrently
        executing operations when ... predicting future energy needs").
        """
        sample = UsageSample.build(
            timestamp=timestamp,
            discrete=discrete,
            continuous=continuous,
            usage=usage,
            data_object=data_object,
            concurrent=concurrent,
            file_accesses=file_accesses,
        )
        self.log.append(sample)
        self._absorb(
            sample,
            record=True,
            skip_energy_when_concurrent=skip_energy_when_concurrent,
        )
        return sample

    def _absorb(self, sample: UsageSample, record: bool,
                skip_energy_when_concurrent: bool = True) -> None:
        self._invalidate_predictions()
        # A sample's discrete tuple is already the canonical bin key.
        key = sample.discrete
        continuous = sample.continuous_dict()
        for resource, value in sample.usage_dict().items():
            if (sample.concurrent and skip_energy_when_concurrent
                    and resource.startswith("energy")):
                continue
            custom = self._custom.get(resource)
            if custom is None:
                self._model_for(resource).observe(
                    key, continuous, value, data_object=sample.data_object
                )
            else:
                custom.observe(dict(key), continuous, value,
                               data_object=sample.data_object)
        if sample.file_accesses:
            self.files.observe(
                key, sample.file_accesses_dict(),
                data_object=sample.data_object,
            )

    # -- predicting ---------------------------------------------------------------

    def query(self, key: DiscreteKey, features: Dict[str, float],
              data_object: Optional[str] = None) -> DemandQuery:
        """Prepare one context's demand query (see :class:`DemandQuery`)."""
        return DemandQuery(
            key, features, tuple(sorted(features.items())),
            design_row(self.feature_names, features), data_object,
        )

    def demand(self, resource: str, discrete: Dict[str, Any],
               continuous: Dict[str, float],
               data_object: Optional[str] = None) -> float:
        """:meth:`predict` for a discrete dict and a features dict."""
        return self.predict(
            resource, self.query(discrete_key(discrete), continuous,
                                 data_object))

    def predict(self, resource: str, query: DemandQuery) -> float:
        """Predicted demand for *resource* under the query's context."""
        if self.memoize:
            key = (resource, query.key, query.features_key, query.data_object)
            cached = self._predict_cache.get(key)
            if cached is not None:
                if type(cached) is float:
                    return cached
                raise NoModelError(cached[0])
        custom = self._custom.get(resource)
        model = self._models.get(resource) if custom is None else custom
        if model is None:
            # A never-observed resource stays model-less until observe()
            # creates its model, which invalidates the memo — cache this
            # miss too, or every solver search point rebuilds the
            # exception from scratch.
            message = f"no demand model for resource {resource!r} yet"
            if self.memoize:
                if len(self._predict_cache) >= self.PREDICT_CACHE_MAX:
                    self._predict_cache.clear()
                self._predict_cache[key] = (message,)
            raise NoModelError(message)
        if custom is None:
            context = (query.key, query.row)
        else:
            context = (dict(query.key), query.features)
        try:
            value = float(
                model.predict(*context, data_object=query.data_object)
            )
        except ValueError as exc:
            if self.memoize:
                # An untrained bin stays untrained until observe() fills
                # it, which invalidates the memo — cache the miss too.
                if len(self._predict_cache) >= self.PREDICT_CACHE_MAX:
                    self._predict_cache.clear()
                self._predict_cache[key] = (str(exc),)
            raise NoModelError(str(exc)) from exc
        if self.memoize:
            if len(self._predict_cache) >= self.PREDICT_CACHE_MAX:
                self._predict_cache.clear()
            self._predict_cache[key] = value
        return value

    def has_bin(self, resource: str, key: DiscreteKey) -> bool:
        """Has *resource* been observed under this exact bin key?"""
        custom = self._custom.get(resource)
        if custom is None:
            model = self._models.get(resource)
            return model is not None and model.has_bin(key)
        has_bin = getattr(custom, "has_bin", None)
        if has_bin is None:
            return True  # custom models without bin tracking: assume yes
        return bool(has_bin(dict(key)))

    def resources(self) -> List[str]:
        return sorted(set(self._models) | set(self._custom))
