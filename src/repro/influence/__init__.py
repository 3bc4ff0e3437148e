"""Training-data influence estimation behind one interface.

:class:`DataInfluence` is the abstract API (``influence()``,
``self_influence()``, ``token_influence()``, ``k_most_influential()``);
:class:`TracInCP`, :class:`TracSeq` and :class:`DataInf` are the
swappable estimators behind it.  Gradient work is cached in a
:class:`GradientStore` and optionally parallelized by a
:class:`ParallelInfluenceEngine` (see ``docs/influence.md``).
"""

from repro.influence.agent import AgentScorer
from repro.influence.api import DataInfluence, KMostInfluential, TokenInfluence
from repro.influence.datainf import DataInf
from repro.influence.engine import ParallelInfluenceEngine, projector_key
from repro.influence.store import GradientStore, TokenSet, example_content_hash
from repro.influence.gradients import (
    GradientProjector,
    flatten_grads,
    per_sample_gradient,
    per_token_examples,
    trainable_parameter_slices,
    trainable_parameters,
)
from repro.influence.selection import (
    bottom_k_indices,
    normalize_scores,
    select_top_k,
    stratified_top_k,
    top_k_indices,
)
from repro.influence.ppl import ppl_quality_scores, sample_losses
from repro.influence.tracin import TracInCP
from repro.influence.tracseq import TracSeq

ESTIMATORS: dict[str, type[DataInfluence]] = {
    "tracin": TracInCP,
    "tracseq": TracSeq,
    "datainf": DataInf,
}


def make_estimator(name: str, model, checkpoints, **kwargs) -> DataInfluence:
    """Build an influence estimator by name (CLI / serving factory).

    Estimator-specific knobs that don't apply to the chosen backend —
    ``gamma`` for non-TracSeq, ``lam`` / ``lam_scale`` for non-DataInf —
    are dropped rather than rejected, so one call site can carry a full
    knob set and let the name pick what matters.
    """
    from repro.errors import InfluenceError

    try:
        cls = ESTIMATORS[name]
    except KeyError:
        raise InfluenceError(
            f"unknown estimator {name!r}; choose from {sorted(ESTIMATORS)}"
        ) from None
    if name != "tracseq":
        kwargs.pop("gamma", None)
    if name != "datainf":
        kwargs.pop("lam", None)
        kwargs.pop("lam_scale", None)
    return cls(model, checkpoints, **kwargs)


__all__ = [
    "ESTIMATORS",
    "make_estimator",
    "DataInfluence",
    "KMostInfluential",
    "TokenInfluence",
    "TracInCP",
    "TracSeq",
    "DataInf",
    "AgentScorer",
    "GradientStore",
    "TokenSet",
    "ParallelInfluenceEngine",
    "example_content_hash",
    "projector_key",
    "GradientProjector",
    "per_sample_gradient",
    "per_token_examples",
    "flatten_grads",
    "trainable_parameters",
    "trainable_parameter_slices",
    "top_k_indices",
    "bottom_k_indices",
    "select_top_k",
    "stratified_top_k",
    "normalize_scores",
    "sample_losses",
    "ppl_quality_scores",
]
