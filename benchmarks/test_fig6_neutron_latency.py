"""Fig. 6 — Neutron ports.json latency level shift under CPU surge."""

from conftest import full_scale

from repro.evaluation import fig6


def test_regenerate_fig6(character, save_result):
    if full_scale():
        result = fig6.run(character, concurrency=400, duration=60.0)
    else:
        result = fig6.run(character, concurrency=150, duration=40.0)
    save_result("fig6", fig6.format_report(result))
    # The level shift is detected during (not before) the surge, and
    # root cause analysis pins the CPU on the Neutron node.
    assert result.alarms
    assert result.alarms_in_window >= 1
    assert result.cpu_root_cause_found


def test_level_shift_detector_cost(benchmark):
    """Per-sample cost of the online LS detector."""
    import random

    from repro.core.streamstats import IncrementalLevelShiftDetector

    rng = random.Random(0)
    values = [0.01 + rng.uniform(0, 0.002) for _ in range(5000)]

    def run():
        detector = IncrementalLevelShiftDetector()
        for index, value in enumerate(values):
            detector.update(float(index), value)
        return detector

    detector = benchmark(run)
    assert detector.alarms == []
