"""Seeded traffic: applicant requests, refresh pools and the input report.

Everything a run feeds the program is derived here from ``--seed`` and a
stream name, so the same seed always gives the same requests.  The model
under test is not an input: it is trained from a fixed corpus
(:data:`MODEL_SEED`) so that every seed measures the same program on
different traffic.
"""

from __future__ import annotations

import statistics
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

MODEL_SEED = 0
N_PERIODS = 8


@dataclass(frozen=True)
class Applicant:
    """One request: a distinct applicant and their recent behavior history."""

    user_id: str
    depth: int  # periods of history in the text
    behavior_text: str


def _stream_rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def applicants(seed: int, stream: str, n: int, depths: tuple[int, int]) -> list[Applicant]:
    """``n`` distinct applicants with ``depths[0]..depths[1]`` periods of history.

    Each applicant is a different simulated user; the text is their most
    recent ``depth`` periods, oldest first, so prompt length follows the
    drawn depth.
    """
    from repro.datasets import make_behavior

    rng = _stream_rng(seed, stream)
    dataset = make_behavior(n_users=n, n_periods=N_PERIODS, seed=int(rng.integers(2**31)))
    drawn = rng.integers(depths[0], depths[1] + 1, size=n)
    out = []
    for user, depth in enumerate(int(d) for d in drawn):
        periods = range(N_PERIODS - depth, N_PERIODS)
        text = " ".join(dataset.row_text(user, p) for p in periods)
        out.append(Applicant(f"{stream}-{seed}-{user:06d}", depth, text))
    return out


def refresh_pool(seed: int, n_users: int, n_val: int):
    """``(train, val)`` instruction examples for one refresh job.

    Users are simulated afresh from the seed; one example per
    user-period, as the TracSeq pipeline consumes them.
    """
    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior

    rng = _stream_rng(seed, "refresh")
    examples = build_behavior_examples(
        make_behavior(n_users=n_users, n_periods=N_PERIODS, seed=int(rng.integers(2**31)))
    )
    order = rng.permutation(len(examples))
    val = [examples[i] for i in order[:n_val]]
    train = [examples[i] for i in order[n_val:]]
    return train, val


def _histogram(values, width: int) -> dict[str, int]:
    counts = Counter((v // width) * width for v in values)
    return {f"{lo}-{lo + width - 1}": counts[lo] for lo in sorted(counts)}


def input_report(
    requests: list[Applicant], prompt_tokens: list[int], output_tokens: list[int] | None = None
) -> dict:
    """Properties of the traffic a phase actually sent."""
    report = {
        "requests": len(requests),
        "distinct_applicant_share": len({r.behavior_text for r in requests}) / len(requests),
        "history_depth": dict(sorted(Counter(r.depth for r in requests).items())),
        "prompt_tokens": {
            "min": min(prompt_tokens),
            "median": statistics.median(prompt_tokens),
            "max": max(prompt_tokens),
            "histogram": _histogram(prompt_tokens, 8),
        },
    }
    if output_tokens is not None:
        report["output_tokens"] = {
            "min": min(output_tokens),
            "median": statistics.median(output_tokens),
            "max": max(output_tokens),
        }
    return report
