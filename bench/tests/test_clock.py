import signal
import time

import clock


def test_scale_uses_the_probes_inside_an_op_and_widens_for_a_short_one():
    sampler = clock.Sampler()
    sampler.times = [float(t) for t in range(20)]
    sampler.probes = [0.002] * 10 + [0.001] * 10
    assert sampler.scale(12.5, 19.5) == clock.REFERENCE_S / 0.001
    # No probe between 4.2 and 4.3: the nine nearest, 0..8, set the scale.
    assert sampler.scale(4.2, 4.3) == clock.REFERENCE_S / 0.002


def test_sampler_probes_while_entered_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with clock.Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 < len(sampler.probes) < 20
    assert 0.00001 < min(sampler.probes) < 0.01


def test_import_calibration_is_about_ten_milliseconds():
    assert 0.001 < min(clock.calibrate_import() for _ in range(5)) < 0.1
