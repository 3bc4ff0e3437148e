"""Neural network library: modules, layers and the MistralTiny causal LM."""

from repro.nn.module import Buffer, Module, ModuleList, Parameter
from repro.nn.layers import Embedding, Linear, RMSNorm
from repro.nn.rope import RotaryEmbedding
from repro.nn.attention import (
    MultiHeadAttention,
    fused_attention,
    rect_attention_mask,
)
from repro.nn.cache import KVCache, KVCacheSnapshot, LayerKVCache, PrefixCache, PrefixEntry
from repro.nn.mlp import SwiGLU
from repro.nn.transformer import MistralTiny, ModelConfig, TransformerBlock
from repro.nn.classifier import SequenceClassifier, pad_sequences
from repro.nn.flops import FlopsEstimate, count_parameters, estimate_decode_flops, estimate_flops
from repro.nn.quant import (
    QuantizedEmbedding,
    QuantizedLinear,
    is_quantized,
    quantize_model,
    quantize_weight,
    weight_bytes,
)
from repro.nn.generation import (
    GenerationConfig,
    generate,
    generate_batch,
    next_token_logits,
)
from repro.nn.continuous import (
    AdmissionPolicy,
    ContinuousScheduler,
    DecodeState,
    GenerationStream,
    generate_continuous,
)

__all__ = [
    "Module",
    "ModuleList",
    "Parameter",
    "Buffer",
    "Linear",
    "Embedding",
    "RMSNorm",
    "RotaryEmbedding",
    "MultiHeadAttention",
    "fused_attention",
    "rect_attention_mask",
    "KVCache",
    "KVCacheSnapshot",
    "LayerKVCache",
    "PrefixCache",
    "PrefixEntry",
    "SwiGLU",
    "ModelConfig",
    "TransformerBlock",
    "MistralTiny",
    "SequenceClassifier",
    "pad_sequences",
    "GenerationConfig",
    "DecodeState",
    "generate",
    "generate_batch",
    "next_token_logits",
    "AdmissionPolicy",
    "ContinuousScheduler",
    "GenerationStream",
    "generate_continuous",
    "FlopsEstimate",
    "count_parameters",
    "estimate_flops",
    "estimate_decode_flops",
    "QuantizedLinear",
    "QuantizedEmbedding",
    "quantize_model",
    "quantize_weight",
    "is_quantized",
    "weight_bytes",
]
