"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run under ``pytest -s`` to watch
them).  Thresholds live here, pinned; the statistical suites run on fixed
master seeds so outcomes are deterministic.
"""

import math
import time

import scipy.stats

from cleb.families import PathSegment, RegularTree, wired_msa_sequence
from cleb.instances import load_fixture, load_fixture_meta
from cleb.oracle import enumerate_arborescences, msa_event_probability
from cleb.util import derive
from cleb.verify import SUITE_NAMES, run_suite
from cleb.walks import lcrw_run
from cleb.weights import Exponential, Uniform01

MASTER = 20250810


def _verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    result = run_suite("oracle-equivalence", seed=MASTER)
    elapsed = time.time() - t0
    ok = result.ok and elapsed < 60.0
    assert _verdict("1 oracle equivalence",
                    ok, f"{result.summary} in {elapsed:.1f}s (< 60s)")


def test_criterion_02_distribution_dependence():
    t0 = time.time()
    graph, _ = load_fixture("distribution_gap")
    meta = load_fixture_meta("distribution_gap")
    target_edges = set(meta["target_arborescence"])
    target = next(a for a in enumerate_arborescences(graph)
                  if a.edge_set() == target_edges)
    est_exp, se_exp = msa_event_probability(graph, target, Exponential(1.0),
                                            1_000_000, derive(MASTER, "dist-exp"))
    est_uni, se_uni = msa_event_probability(graph, target, Uniform01(),
                                            1_000_000, derive(MASTER, "dist-uni"))
    elapsed = time.time() - t0
    ok = (abs(est_exp - 1 / 9) <= 0.003 and abs(est_uni - 7 / 60) <= 0.003
          and est_exp < est_uni and elapsed < 600.0)
    assert _verdict(
        "2 distribution dependence", ok,
        f"exp {est_exp:.5f} (|d|={abs(est_exp - 1/9):.5f} <= 0.003), "
        f"uni {est_uni:.5f} (|d|={abs(est_uni - 7/60):.5f} <= 0.003), "
        f"exp < uni: {est_exp < est_uni}, {elapsed:.1f}s (< 600s)")


def test_criterion_03_colored_exposure_invariance():
    result = run_suite("color-invariance", seed=MASTER)
    assert _verdict("3 colored exposure invariance", result.ok, result.summary)


def test_criterion_04_invasion_equivalence():
    result = run_suite("invasion", seed=MASTER)
    assert _verdict("4 invasion equivalence", result.ok, result.summary)


def test_criterion_05_recovery_containment():
    import random

    from cleb.algorithms import cleb_walk, recover_branch
    from cleb.instances import random_instance
    from cleb.oracle import brute_force_msa

    good = 0
    n = 100
    for i in range(n):
        graph, assign = random_instance(derive(MASTER, "recovery", i))
        truth = brute_force_msa(graph, assign).edge_set()
        rng = random.Random(derive(MASTER, "recovery-start", i))
        start = rng.choice([v for v in graph.vertices if v not in graph.boundary])
        record = cleb_walk(graph, assign, start)
        gamma, _ = recover_branch(graph, record)
        into_boundary = [e for e in gamma.edge_set()
                         if graph.heads[e] in graph.boundary]
        if gamma.edge_set() <= truth and len(into_boundary) == 1:
            good += 1
    assert _verdict("5 recovery containment", good == n, f"{good}/{n} contained")


def test_criterion_06_escape_inequality():
    result = run_suite("escape", seed=MASTER)
    assert _verdict("6 escape inequality", result.ok, result.summary)


def _increments(trace):
    """Change of the live path length at every step of a walk."""
    out = []
    prev = 0
    for s in trace.steps:
        out.append(s.path_len - prev)
        prev = s.path_len
    return out


def _fair_step_counts(trace):
    """(up, down) counts over steps taken from a non-empty live path.

    From an empty path every outgoing edge extends, so the +1 there is
    forced; the fair-coin behaviour of the path length on the line is a
    statement about the remaining steps.
    """
    up = down = 0
    prev = 0
    for s in trace.steps:
        if prev > 0:
            if s.path_len > prev:
                up += 1
            elif s.path_len < prev:
                down += 1
        prev = s.path_len
    return up, down


def test_criterion_07_line_recurrence_signature():
    real = PathSegment().realize(100)  # wired segment of length 200
    start = real.probe_map[0]
    up = down = total = run = 0
    while total < 100_000:
        trace, _ = lcrw_run(real.graph, start, 100_000 - total,
                            derive(MASTER, "line", run))
        u, d = _fair_step_counts(trace)
        up += u
        down += d
        total += len(trace.steps)
        run += 1
        assert all(abs(inc) == 1 for inc in _increments(trace))
    chi2 = (up - down) ** 2 / (up + down)
    crit = scipy.stats.chi2.isf(0.01, 1)
    ok = chi2 <= crit
    assert _verdict("7 line recurrence", ok,
                    f"+1 x {up}, -1 x {down}, chi2={chi2:.3f} <= {crit:.3f}")


def test_criterion_08_wilson_sandwich():
    result = run_suite("sandwich", seed=MASTER)
    assert _verdict("8 wilson sandwich", result.ok, result.summary)


def test_criterion_09_connectivity_monotonicity():
    result = run_suite("monotonicity", seed=MASTER)
    assert _verdict("9 connectivity monotonicity", result.ok, result.summary)


def test_criterion_10_wired_limit_stabilization():
    fam = RegularTree(2)
    seeds = 200
    stable = 0
    for s in range(seeds):
        report = wired_msa_sequence(fam, Exponential(1.0), [8, 10, 12], [1],
                                    derive(MASTER, "wired", s))
        hist, = report.probes
        if len(set(hist.by_radius.values())) == 1:
            stable += 1
    ok = stable >= math.ceil(0.99 * seeds)
    assert _verdict("10 wired-limit stabilization", ok,
                    f"{stable}/{seeds} root edges agree across radii 8/10/12 (need >= 198)")


def test_criterion_11_perturbation_lemmas():
    result = run_suite("perturbation", seed=MASTER)
    assert _verdict("11 perturbation lemmas", result.ok, result.summary)


def test_criterion_12_reproducibility():
    mismatched = []
    for name in SUITE_NAMES:
        first = run_suite(name, seed=MASTER + 1, fast=True).report_text()
        second = run_suite(name, seed=MASTER + 1, fast=True).report_text()
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    assert _verdict("12 reproducibility", ok,
                    "all suites byte-identical on rerun" if ok
                    else f"mismatch: {mismatched}")
