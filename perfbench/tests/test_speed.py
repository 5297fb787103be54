import signal
from time import perf_counter

from speed import REFERENCE, SpeedProbe


def test_adjusted_scales_each_stretch_and_drops_probe_time():
    probe = SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    probe.costs = [REFERENCE] * 3 + [2 * REFERENCE] * 3
    probe.index()
    assert probe.scale == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
    assert abs(probe.adjusted(0.2, 0.4) - 0.2) < 1e-12
    # 1.3 s at full speed, 0.3 s at half speed, less the probe samples at 2.0 and 3.0
    assert abs(probe.adjusted(1.2, 3.8) - (1.3 + 0.65 - 2 * REFERENCE)) < 1e-12
    assert probe.speed() == 1.5


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.costs) >= 3
    assert 0 < probe.adjusted(probe.starts[0], probe.starts[-1])
