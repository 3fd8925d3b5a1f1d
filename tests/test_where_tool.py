"""The wall-clock sampler (`tools/where.py`), at the perf smoke scale."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import where


def test_sampler_lands_in_repro_and_splits_the_runner_phases():
    # The packet storm is the tiny workload that runs long enough (~0.2 s of
    # CPU) for a few dozen samples.
    sampler = where.sample(where.build_workload("bulk-packet", 0, "tiny").replays)
    assert sampler.samples > 0
    assert any("/repro/" in code.co_filename for code in sampler.self_counts)
    assert sampler.phase_samples["advance"] > 0
    assert set(sampler.phase_wall_s) == {"build_spec", "start", "advance", "finalize"}
    text = where.report(sampler, "bulk-packet tiny")
    assert "netem.simulator" in text and f"top {where.TOP} by self share" in text


def test_unknown_scenario_names_the_choices():
    with pytest.raises(SystemExit, match="control-fleet.*fig2-roaming"):
        where.replays_of("no-such-scenario", 0)
