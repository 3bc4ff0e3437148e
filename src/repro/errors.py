"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ShapeError(ReproError):
    """An operation received tensors with incompatible shapes."""


class GradientError(ReproError):
    """Autograd failure: backward on a non-scalar, missing graph, etc."""


class TokenizerError(ReproError):
    """Tokenizer training or encoding failure."""


class CheckpointError(ReproError):
    """A checkpoint could not be saved, loaded, or validated."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class QuantizationError(ConfigError):
    """Misuse of the int8 quantized inference path.

    Raised when :func:`repro.nn.quantize_model` is asked to quantize an
    unmergeable model (unmerged LoRA adapters, no eligible layers, an
    unsupported dtype) and when a quantized layer is driven from a
    gradient-recording graph — quantization is inference-only.
    """


class DataError(ReproError):
    """Dataset generation or instruction-data construction failure."""


class InfluenceError(ReproError):
    """Influence estimation (TracInCP / TracSeq) failure."""


class EvaluationError(ReproError):
    """Benchmark or metric computation failure."""


class ObservabilityError(ReproError):
    """Metrics / tracing / event-sink misuse (never raised on hot paths)."""


class ResilienceError(ReproError):
    """Circuit breaker or fault-injection misuse."""


class PipelineError(ReproError):
    """Online-learning pipeline failure (state corruption, failed promote
    verification, unusable work directory)."""


class InjectedFault(ReproError):
    """The default exception raised at an armed fault point.

    Only ever raised when a :class:`repro.resilience.FaultInjector` is
    installed — production code paths never see it.
    """


class ServingError(ReproError):
    """Behavior Card serving failure."""


class QueueFullError(ServingError):
    """The serving engine's bounded request queue rejected an admission.

    Raised synchronously by :meth:`repro.serving.MicroBatchEngine.submit`
    so callers can shed load (backpressure) instead of queueing unboundedly.
    """


class DeadlineExceededError(ServingError):
    """A queued request's deadline passed before it could be scored."""


class ClusterError(ServingError):
    """Multi-replica serving cluster failure (supervisor / router / deploy)."""


class ReplicaCrashedError(ClusterError):
    """A replica died (process exit, RPC loss, or injected crash) mid-flight.

    The supervisor treats this error as *re-dispatchable*: requests that
    were queued or in flight on the dead replica are resubmitted to a
    healthy one (up to ``ClusterConfig.max_redispatch`` attempts) before
    the error is surfaced to the caller, so a replica crash never
    silently drops traffic.
    """


class ServingTimeout(ServingError):
    """``PendingResult.result(timeout=...)`` gave up waiting.

    Distinct from a scoring failure: the request is **still queued / in
    flight** and may complete later; callers that stop waiting should
    either retry :meth:`result` or treat the answer as abandoned.
    """
