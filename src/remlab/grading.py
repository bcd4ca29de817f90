"""Composite episode reward: graded outcome plus a safety penalty.

    R = alpha * success + beta * r_struct + gamma * r_exec
        + delta * r_eff - lambda * unsafe

Components come from the episode's final attempt; success is the episode
verdict. The token-efficiency term rewards concise successful episodes
only: r_eff = max(0, 1 - tokens_total / TOKEN_BUDGET) when the episode
succeeded, else 0. The safety penalty applies regardless of outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from .loop import Episode
from .playbook import r_exec as trace_r_exec

TOKEN_BUDGET = 4096


@dataclass(frozen=True)
class RewardWeights:
    alpha: float = 1.0
    beta: float = 0.1
    gamma: float = 0.1
    delta: float = 0.5
    lam: float = 2.0

    @classmethod
    def from_csv(cls, text: str) -> "RewardWeights":
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 5:
            raise ValueError("weights must be 5 comma-separated numbers: a,b,g,d,l")
        return cls(*parts)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.lam)


@dataclass(frozen=True)
class RewardBreakdown:
    success: int
    r_struct: float
    r_exec: float
    r_eff: float
    unsafe: int
    total: float


def compute_reward(
    success: int,
    r_struct: float,
    r_exec: float,
    r_eff: float,
    unsafe: int,
    weights: RewardWeights,
) -> float:
    """The reward formula, exactly; no gating or clamping happens here."""
    return (
        weights.alpha * success
        + weights.beta * r_struct
        + weights.gamma * r_exec
        + weights.delta * r_eff
        - weights.lam * unsafe
    )


def grade(episode: Episode, weights: RewardWeights | None = None) -> RewardBreakdown:
    """Grade a completed episode from its final attempt."""
    weights = weights or RewardWeights()
    if not episode.attempts:
        return RewardBreakdown(0, 0.0, 0.0, 0.0, 0, 0.0)
    final = episode.attempts[-1]
    success = int(episode.success)
    r_struct = final.struct.r_struct
    r_exec = trace_r_exec(final.trace) if final.trace is not None else 0.0
    unsafe = int(final.safety.unsafe)
    tokens_total = episode.tokens_in + episode.tokens_out
    r_eff = max(0.0, 1.0 - tokens_total / TOKEN_BUDGET) if success else 0.0
    total = compute_reward(success, r_struct, r_exec, r_eff, unsafe, weights)
    return RewardBreakdown(
        success=success,
        r_struct=r_struct,
        r_exec=r_exec,
        r_eff=r_eff,
        unsafe=unsafe,
        total=total,
    )
