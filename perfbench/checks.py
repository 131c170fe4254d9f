"""Checks on one finished search, fed only by what the search reported.

A search reports its history (one row per evaluated design, as in
``history.csv``) and its best feasible design with that design's objective.
The checks compare those two paths with each other and with the reference
pricing in ``refmodel``; each returns a list of faults, empty when the search
passes.
"""

from __future__ import annotations

import math

import refmodel


def failed_count(rows) -> int:
    """Operations whose outcome was anomalous: decode or evaluate raised, or
    the design failed structural validation."""
    return sum(1 for r in rows if not r["valid"])


def is_feasible(row) -> bool:
    return bool(row["valid"]) and row["violation_sum"] == 0.0


def check_history(rows, best_objective, designs: int) -> list[str]:
    """Best-so-far never gets worse from one episode or generation to the
    next, the reported best equals the best feasible record, and the history
    holds one row per evaluated design."""
    faults = []
    if len(rows) != designs:
        faults.append(f"history has {len(rows)} rows for {designs} evaluated designs")
    best_by_episode = {}
    for r in rows:
        best_by_episode.setdefault(r["episode"], r["best_reward"])
    prev = math.nan
    for ep in sorted(best_by_episode):
        cur = best_by_episode[ep]
        if not math.isnan(prev) and not cur >= prev:
            faults.append(f"best-so-far fell from {prev!r} to {cur!r} at episode {ep}")
        prev = cur
    feasible = [-r["reward"] for r in rows if is_feasible(r)]
    if not feasible:
        faults.append("no feasible design in the history")
    elif best_objective != min(feasible):
        faults.append(
            f"reported best objective {best_objective!r} is not the best feasible "
            f"record {min(feasible)!r}"
        )
    return faults


def check_best(design: dict, best_objective, weights, space: refmodel.Space):
    """Re-price the reported best feasible design.

    Returns (latency in cycles, faults).
    """
    p = refmodel.price(design, space)
    if p.problems:
        return math.nan, [f"best design is malformed: {'; '.join(p.problems[:3])}"]
    faults = []
    if not p.feasible:
        faults.append("best design is not feasible under the reference pricing")
    ref = refmodel.objective(p, weights)
    if ref != best_objective:
        faults.append(f"reported objective {best_objective!r}, reference prices it {ref!r}")
    if p.latency < space.compute_floor():
        faults.append(f"latency {p.latency!r} is below the compute floor {space.compute_floor()!r}")
    return p.latency, faults


def check_search(rows, design: dict | None, best_objective, designs: int, weights, space):
    """All checks on one search; returns (best latency in cycles, faults)."""
    faults = check_history(rows, best_objective, designs)
    if design is None:
        return math.nan, faults + ["the search reported no best feasible design"]
    latency, more = check_best(design, best_objective, weights, space)
    return latency, faults + more
