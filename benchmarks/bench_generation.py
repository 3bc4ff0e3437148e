"""P4: batched incremental decoding — sequential loop vs generate_batch.

Not a paper table; quantifies what the generation fast path buys for
CALM-style generative eval (the paper's Table-2 read-out is literally
"generate and parse the answer").  Three measurements:

* generative eval throughput: ``evaluate_generative`` driven by the
  per-example ``generate_answer`` loop vs one batched decode through
  ``generate_answer_batch`` — asserts the ISSUE-4 acceptance claim of a
  >= 3x speedup with **identical greedy outputs**;
* KV-cache step time: the preallocated append buffer
  (:class:`~repro.nn.cache.LayerKVCache`) vs a naive
  concatenate-per-step reference cache, at long contexts where the
  O(T^2) copying of the naive scheme dominates;
* prefix-cache effect: repeat-prompt eval with hit/saved-token counters
  rendered from the obs registry into the results file.
* continuous-batching saturation: a bimodal (short/long) burst of
  requests decoded by the iteration-level scheduler vs FIFO waves
  through ``generate_batch`` — asserts the ISSUE-8 acceptance claim of
  a >= 1.5x wall-clock win with bit-identical outputs.
* int8 quantized arm: a merged+quantized copy of the tuned model is
  held to 100% Behavior-Card decision parity with the float model, a
  ~4x weight-memory reduction is measured, and the saturation workload
  reports forced-length decode time for float vs int8 weights.  Both
  run the same fused inference kernel, so that ratio is the share of
  the decode speedup that int8 weights alone buy.

Run directly for a quick CI smoke: ``python bench_generation.py --smoke``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.baselines.lm import LMClassifier
from repro.eval.generative import evaluate_generative
from repro.obs import Observability, render_registry

from conftest import save_result, train_plain

N_EVAL = 32
RING_STEPS = 1024
RING_SHAPE = (1, 2, 16)  # (batch, kv heads, head dim) of each appended token


class ConcatLayerCache:
    """The naive reference: concatenate k/v on every append.

    Kept here (not in the library) purely as the benchmark baseline —
    every decode step reallocates and copies the whole cached history,
    so per-step cost grows linearly with context and total cost is
    O(T^2).  The library cache writes each step into a preallocated slot.
    """

    def __init__(self):
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def append(self, k: np.ndarray, v: np.ndarray):
        if self._k is None:
            self._k, self._v = k.copy(), v.copy()
        else:
            self._k = np.concatenate([self._k, k], axis=2)
            self._v = np.concatenate([self._v, v], axis=2)
        return self._k, self._v


def _time_cache_appends(cache, steps: int) -> float:
    batch, kv, hd = RING_SHAPE
    token_k = np.ones((batch, kv, 1, hd), dtype=np.float32)
    token_v = np.ones((batch, kv, 1, hd), dtype=np.float32)
    start = time.perf_counter()
    for _ in range(steps):
        cache.append(token_k, token_v)
    return time.perf_counter() - start


def ring_vs_concat(steps: int = RING_STEPS) -> dict[str, float]:
    """Total append time (s) for the preallocated vs the concat cache."""
    from repro.nn.cache import LayerKVCache

    return {
        "ring unwindowed": _time_cache_appends(LayerKVCache(), steps),
        "concat unwindowed": _time_cache_appends(ConcatLayerCache(), steps),
    }


def _build_eval(n_eval: int, epochs: int = 2):
    """A quickly tuned model plus generative-eval examples and choices."""
    from repro.data import build_classification_examples
    from repro.datasets import make_german

    dataset = make_german(n=max(n_eval, 24), seed=0)
    examples = build_classification_examples(dataset)
    zigong = train_plain(examples, epochs=epochs)
    choices = tuple(sorted({e.answer for e in examples}))
    return zigong, examples[:n_eval], choices


def _quantized_copy(zigong):
    """A merged+int8 copy of a tuned ZiGong's model; the source stays float."""
    from repro.lora.inject import apply_lora, merge_lora
    from repro.nn.quant import quantize_model
    from repro.nn.transformer import MistralTiny

    config = zigong.config
    model = MistralTiny(config.model, rng=config.seed)
    if getattr(zigong, "_lora_applied", False):
        apply_lora(model, config.lora, rng=config.seed)
    model.load_state_dict({k: v.copy() for k, v in zigong.model.state_dict().items()})
    merge_lora(model)
    quantize_model(model)
    return model


def _classifiers(zigong, obs):
    """(sequential baseline, batched) classifiers over the same weights.

    The baseline gets no prefix cache so it measures the pre-PR
    per-prompt path; the batched classifier reports its counters to
    ``obs``.
    """
    sequential = LMClassifier(zigong.model, zigong.tokenizer, prefix_cache_size=0)
    batched = LMClassifier(zigong.model, zigong.tokenizer, obs=obs)
    return sequential, batched


def run_generation_benchmark(
    n_eval: int = N_EVAL, ring_steps: int = RING_STEPS, min_speedup: float = 3.0
) -> tuple[str, dict, dict]:
    obs = Observability.create()
    zigong, examples, choices = _build_eval(n_eval)
    sequential, batched = _classifiers(zigong, obs)
    prompts = [e.prompt for e in examples]

    # Output parity first: greedy decoding must be bit-identical.
    seq_texts = [sequential.generate_answer(p) for p in prompts]
    batch_texts = batched.generate_answer_batch(prompts)
    assert batch_texts == seq_texts, "batched generation diverged from sequential"

    # Forced-length decode (no stop tokens): the tuned model emits EOS
    # almost immediately, which would leave the decode loop unmeasured —
    # this section times the actual one-token-per-step path.
    from repro.nn.generation import GenerationConfig, generate, generate_batch

    decode_config = GenerationConfig(max_new_tokens=8, stop_tokens=())
    rows = [batched._prompt_ids(p) for p in prompts]
    start = time.perf_counter()
    seq_out = [generate(zigong.model, r, decode_config) for r in rows]
    seq_decode = time.perf_counter() - start
    start = time.perf_counter()
    batch_out = generate_batch(zigong.model, rows, decode_config, obs=obs)
    batch_decode = time.perf_counter() - start
    assert [list(o) for o in batch_out] == [list(o) for o in seq_out], (
        "forced-length batched decode diverged from sequential"
    )
    decode_speedup = seq_decode / batch_decode

    start = time.perf_counter()
    seq_result = evaluate_generative(sequential.generate_answer, examples, choices)
    seq_time = time.perf_counter() - start

    batched.prefix_cache.clear()
    start = time.perf_counter()
    batch_result = evaluate_generative(
        sequential.generate_answer,
        examples,
        choices,
        generate_batch_fn=batched.generate_answer_batch,
    )
    batch_time = time.perf_counter() - start
    assert (batch_result.accuracy, batch_result.miss) == (
        seq_result.accuracy,
        seq_result.miss,
    ), "batched eval changed the metrics"
    speedup = seq_time / batch_time

    # Second pass over the same prompts: the prefix cache now serves
    # every prefill from its snapshots.
    start = time.perf_counter()
    evaluate_generative(
        sequential.generate_answer, examples, choices,
        generate_batch_fn=batched.generate_answer_batch,
    )
    repeat_time = time.perf_counter() - start

    ring = ring_vs_concat(ring_steps)

    # int8 quantized arm: Behavior-Card decision parity + weight memory +
    # forced-length decode time on the fused kernel.  The >= 1.5x decode
    # floor is asserted on the saturation workload (long decodes, where
    # per-call overhead amortizes); here the short forced decode is
    # reported alongside the parity and memory checks.
    from repro.nn.quant import weight_bytes

    qmodel = _quantized_copy(zigong)
    quant = LMClassifier(qmodel, zigong.tokenizer, prefix_cache_size=0)
    quant_texts = quant.generate_answer_batch(prompts)
    text_parity = sum(q == f for q, f in zip(quant_texts, seq_texts)) / len(prompts)

    pos_text, neg_text = (choices[1], choices[0]) if len(choices) == 2 else ("yes", "no")
    float_scores = [float(s) for s in sequential.score_batch(prompts, pos_text, neg_text)]
    quant_scores = [float(s) for s in quant.score_batch(prompts, pos_text, neg_text)]
    score_parity = sum(
        (fs >= 0.5) == (qs >= 0.5) for fs, qs in zip(float_scores, quant_scores)
    ) / len(prompts)

    bytes_float = weight_bytes(zigong.model)
    bytes_int8 = weight_bytes(qmodel)
    weight_ratio = bytes_float / bytes_int8

    start = time.perf_counter()
    generate_batch(qmodel, rows, decode_config)
    quant_decode = time.perf_counter() - start

    lines = [
        f"generative eval over {len(examples)} prompts "
        f"(max_new_tokens={batched.max_new_tokens}, greedy, identical outputs)",
        "",
        f"{'mode':>32}  {'time (s)':>9}  {'speedup':>8}",
        f"{'sequential generate_answer':>32}  {seq_time:>9.3f}  {1.0:>8.2f}x",
        f"{'generate_answer_batch':>32}  {batch_time:>9.3f}  {speedup:>8.2f}x",
        f"{'repeat (prefix-cache hits)':>32}  {repeat_time:>9.3f}  "
        f"{seq_time / repeat_time:>8.2f}x",
        "",
        f"forced-length decode ({decode_config.max_new_tokens} tokens/row, "
        "no stop tokens)",
        "",
        f"{'mode':>32}  {'time (s)':>9}  {'speedup':>8}",
        f"{'sequential generate':>32}  {seq_decode:>9.3f}  {1.0:>8.2f}x",
        f"{'generate_batch':>32}  {batch_decode:>9.3f}  {decode_speedup:>8.2f}x",
        "",
        f"KV-cache append micro-benchmark ({ring_steps} single-token steps, "
        f"shape {RING_SHAPE})",
        "",
        f"{'cache':>24}  {'total (s)':>10}  {'us/step':>8}",
    ]
    for label, total in ring.items():
        lines.append(f"{label:>24}  {total:>10.4f}  {total / ring_steps * 1e6:>8.1f}")
    lines += [
        "",
        "int8 quantized model (merged LoRA, fused inference kernel)",
        "",
        f"{'check':>32}  {'value':>14}",
        f"{'weight bytes (float)':>32}  {bytes_float:>14,}",
        f"{'weight bytes (int8)':>32}  {bytes_int8:>14,}",
        f"{'weight memory reduction':>32}  {weight_ratio:>13.2f}x",
        f"{'generated-answer parity':>32}  {text_parity:>13.0%}",
        f"{'score decision parity':>32}  {score_parity:>13.0%}",
        f"{'forced decode float (s)':>32}  {batch_decode:>14.3f}",
        f"{'forced decode int8 (s)':>32}  {quant_decode:>14.3f}",
        "",
        "observability counters (repro.obs registry):",
        "",
        render_registry(obs.metrics),
    ]
    text = "\n".join(lines)

    assert text_parity == 1.0, (
        f"quantized generated answers diverged from float on "
        f"{len(prompts) - int(text_parity * len(prompts))}/{len(prompts)} prompts"
    )
    assert score_parity == 1.0, (
        f"quantized score decisions diverged from float "
        f"(parity {score_parity:.0%})"
    )
    assert weight_ratio >= 3.0, (
        f"int8 weights only {weight_ratio:.2f}x smaller than float (need >= 3x)"
    )
    assert speedup >= min_speedup, (
        f"batched generative eval only {speedup:.2f}x sequential "
        f"(need >= {min_speedup}x)"
    )
    assert decode_speedup >= min_speedup, (
        f"batched decode loop only {decode_speedup:.2f}x sequential "
        f"(need >= {min_speedup}x)"
    )
    assert ring["ring unwindowed"] < ring["concat unwindowed"], (
        "ring buffer slower than concatenate-per-step at long context"
    )
    stats = batched.prefix_cache.stats
    assert stats.hits >= len(examples), "repeat pass did not hit the prefix cache"
    assert stats.tokens_saved > 0
    metrics = {
        "eval_sequential_s": seq_time,
        "eval_batched_s": batch_time,
        "eval_repeat_s": repeat_time,
        "eval_speedup": speedup,
        "decode_sequential_s": seq_decode,
        "decode_batched_s": batch_decode,
        "decode_speedup": decode_speedup,
        "ring_append_s": ring,
        "prefix_cache_hits": stats.hits,
        "prefix_cache_tokens_saved": stats.tokens_saved,
        "quant_weight_bytes_float": bytes_float,
        "quant_weight_bytes_int8": bytes_int8,
        "quant_weight_ratio": weight_ratio,
        "quant_text_parity": text_parity,
        "quant_score_parity": score_parity,
        "quant_decode_s": quant_decode,
    }
    config = {
        "n_eval": len(examples),
        "ring_steps": ring_steps,
        "min_speedup": min_speedup,
        "forced_decode_tokens": decode_config.max_new_tokens,
    }
    return text, metrics, config


def test_batched_generation_speedup():
    save_result("generation", *run_generation_benchmark())


SAT_POOL = 96
SAT_REQUESTS = 32
SAT_CAP = 8


def _saturation_workload(model, config, pool_size: int, n_requests: int):
    """A deterministic bimodal request mix plus its expected outputs.

    Greedy decoding with a large stop set gives genuinely ragged
    generation lengths (sampling would not: every row shares the same
    per-row RNG stream, so sampled lengths cluster).  A sequential
    ``generate`` pass over a prompt pool both measures each prompt's
    natural length and doubles as the parity reference; the workload
    then interleaves short requests (<= 8 tokens) with long stragglers
    (>= 32 tokens) so every FIFO wave of ``SAT_CAP`` is pinned by a
    couple of slow rows while the continuous scheduler backfills the
    retired slots.
    """
    from repro.nn.generation import generate

    rng = np.random.default_rng(0)
    pool = [
        rng.integers(64, model.config.vocab_size, size=int(rng.integers(4, 13)))
        for _ in range(pool_size)
    ]
    reference = [generate(model, p, config) for p in pool]
    lengths = [len(out) for out in reference]
    shorts = [i for i, n in enumerate(lengths) if n <= 8]
    longs = [i for i, n in enumerate(lengths) if n >= 32]
    assert shorts and longs, "pool produced no short/long split; retune the stop set"

    selected: list[int] = []
    li = si = 0
    max_longs = min(n_requests // 4, len(longs))
    for k in range(n_requests):
        if k % 4 == 3 and li < max_longs:
            selected.append(longs[li])
            li += 1
        else:
            selected.append(shorts[si % len(shorts)])
            si += 1
    prompts = [pool[i] for i in selected]
    expected = [list(reference[i]) for i in selected]
    return prompts, expected, lengths


def _wave_baseline(model, prompts, config, cap: int) -> list[list[int]]:
    """FIFO admission in waves of ``cap``: the pre-scheduler serving path."""
    from repro.nn.generation import generate_batch

    out: list[list[int]] = []
    for i in range(0, len(prompts), cap):
        out.extend(list(row) for row in generate_batch(model, prompts[i : i + cap], config))
    return out


def run_saturation_benchmark(
    n_requests: int = SAT_REQUESTS,
    pool_size: int = SAT_POOL,
    cap: int = SAT_CAP,
    trials: int = 3,
    min_speedup: float = 1.5,
) -> tuple[str, dict, dict]:
    """Continuous batching vs wave-batched FIFO on a bimodal burst."""
    from repro.nn import AdmissionPolicy, generate_continuous
    from repro.nn.generation import GenerationConfig
    from repro.nn.quant import quantize_model
    from repro.nn.transformer import MistralTiny, ModelConfig

    model = MistralTiny(
        ModelConfig(
            vocab_size=128, d_model=64, n_layers=2, n_heads=4, n_kv_heads=2,
            d_ff=128, max_seq_len=64, sliding_window=32,
        ),
        rng=0,
    )
    # Tokens below 64 terminate a row, so greedy decodes stop at
    # prompt-dependent ragged lengths instead of all running to the cap.
    config = GenerationConfig(max_new_tokens=48, stop_tokens=tuple(range(64)))
    prompts, expected, pool_lengths = _saturation_workload(
        model, config, pool_size, n_requests
    )
    policy = AdmissionPolicy(max_live_rows=cap, max_prefills_per_step=max(1, cap // 2))

    obs = Observability.create()
    base_times, cont_times = [], []
    for _ in range(trials):
        start = time.perf_counter()
        base_out = _wave_baseline(model, prompts, config, cap)
        base_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        cont_out = generate_continuous(model, prompts, config, policy=policy, obs=obs)
        cont_times.append(time.perf_counter() - start)
    assert base_out == expected, "wave baseline diverged from sequential generate"
    assert cont_out == expected, "continuous decode diverged from sequential generate"

    # Trickle arm: Poisson inter-arrival gaps in decode-step units.
    # The wave baseline has no decode-step clock to pace arrivals
    # against, so this arm is parity-checked and reported rather than
    # held to the speedup floor — trickle admission means many small
    # prefill cohorts, the regime where backfilling buys the least.
    gaps = np.random.default_rng(1).poisson(lam=2.0, size=n_requests)
    arrivals = [int(step) for step in np.cumsum(gaps)]
    start = time.perf_counter()
    poisson_out = generate_continuous(
        model, prompts, config, arrivals=arrivals, policy=policy, obs=obs
    )
    poisson_s = time.perf_counter() - start
    assert poisson_out == expected, (
        "Poisson-arrival decode diverged from sequential generate"
    )

    # Quantized arm: forced-length decode (no stop tokens) so the float
    # and int8 models do identical work per step regardless of which
    # tokens they emit.  Both run the fused inference kernel, so the
    # ratio isolates what int8 weights buy.  Entry-point parity is
    # asserted on the quantized model itself: the scheduler and the wave
    # baseline share the decode loop and the kernel.
    qmodel = MistralTiny(model.config, rng=0)
    qmodel.load_state_dict(model.state_dict())
    quantize_model(qmodel)
    forced = GenerationConfig(max_new_tokens=32, stop_tokens=())
    float_forced_times, quant_forced_times = [], []
    for _ in range(trials):
        start = time.perf_counter()
        float_forced = generate_continuous(model, prompts, forced, policy=policy, obs=obs)
        float_forced_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        quant_forced = generate_continuous(qmodel, prompts, forced, policy=policy, obs=obs)
        quant_forced_times.append(time.perf_counter() - start)
    quant_waves = _wave_baseline(qmodel, prompts, forced, cap)
    assert quant_forced == quant_waves, (
        "quantized continuous decode diverged from quantized wave baseline"
    )
    assert all(len(row) == forced.max_new_tokens for row in float_forced)
    float_forced_s, quant_forced_s = min(float_forced_times), min(quant_forced_times)
    quant_speedup = float_forced_s / quant_forced_s

    base_s, cont_s = min(base_times), min(cont_times)
    speedup = base_s / cont_s
    n_short = sum(len(out) <= 8 for out in expected)
    n_long = sum(len(out) >= 32 for out in expected)
    lines = [
        f"continuous-batching saturation: {n_requests} requests "
        f"({n_short} short / {n_long} long, burst arrival), "
        f"max_live_rows={cap}, greedy, identical outputs",
        f"pool: {pool_size} prompts, generation lengths "
        f"{min(pool_lengths)}..{max(pool_lengths)} tokens",
        "",
        f"{'mode':>32}  {'time (s)':>9}  {'speedup':>8}",
        f"{'FIFO waves (generate_batch)':>32}  {base_s:>9.3f}  {1.0:>8.2f}x",
        f"{'continuous scheduler':>32}  {cont_s:>9.3f}  {speedup:>8.2f}x",
        f"{'continuous, Poisson arrivals':>32}  {poisson_s:>9.3f}  "
        f"{base_s / poisson_s:>8.2f}x",
        "",
        f"float vs int8 weights on the fused kernel (continuous scheduler, "
        f"forced {forced.max_new_tokens} tokens/row)",
        "",
        f"{'mode':>32}  {'time (s)':>9}  {'speedup':>8}",
        f"{'float weights':>32}  {float_forced_s:>9.3f}  {1.0:>8.2f}x",
        f"{'int8 weights':>32}  {quant_forced_s:>9.3f}  {quant_speedup:>8.2f}x",
        "",
        "observability counters (repro.obs registry):",
        "",
        render_registry(obs.metrics),
    ]
    text = "\n".join(lines)

    assert speedup >= min_speedup, (
        f"continuous batching only {speedup:.2f}x the wave baseline "
        f"(need >= {min_speedup}x)"
    )
    metrics = {
        "wave_baseline_s": base_s,
        "continuous_s": cont_s,
        "continuous_speedup": speedup,
        "poisson_s": poisson_s,
        "poisson_speedup": base_s / poisson_s,
        "quant_float_forced_s": float_forced_s,
        "quant_int8_forced_s": quant_forced_s,
        "quant_decode_speedup": quant_speedup,
        "n_short": n_short,
        "n_long": n_long,
    }
    config = {
        "n_requests": n_requests,
        "pool_size": pool_size,
        "max_live_rows": cap,
        "trials": trials,
        "min_speedup": min_speedup,
        "forced_decode_tokens": forced.max_new_tokens,
    }
    return text, metrics, config


def test_continuous_saturation_speedup():
    save_result("generation_saturation", *run_saturation_benchmark())


def smoke(n_eval: int = 16, ring_steps: int = 512) -> None:
    """Small everything: exercises the full path in a few seconds.

    The speedup floor is relaxed to 2x at this batch size — the 3x
    acceptance claim is asserted at the full N_EVAL batch.  512 ring
    steps (not fewer) so the concat baseline's O(T^2) copying dominates
    timer noise; at 128 steps the ring-vs-concat assert was flaky.
    """
    text, _, _ = run_generation_benchmark(
        n_eval=n_eval, ring_steps=ring_steps, min_speedup=2.0
    )
    print(text)
    print()
    sat_text, _, _ = run_saturation_benchmark(trials=2, min_speedup=1.2)
    print(sat_text)
    print("\ngeneration smoke OK")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast run (CI): parity + speedup + ring-buffer asserts",
    )
    parser.add_argument("--n-eval", type=int, default=N_EVAL)
    parser.add_argument("--ring-steps", type=int, default=RING_STEPS)
    args = parser.parse_args(argv)
    if args.smoke:
        smoke()
    else:
        save_result("generation", *run_generation_benchmark(args.n_eval, args.ring_steps))
        save_result("generation_saturation", *run_saturation_benchmark())
    return 0


if __name__ == "__main__":
    sys.exit(main())
