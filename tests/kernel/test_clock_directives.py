"""Clock and directive validation unit tests."""

import pytest

from repro.kernel import Alloc, Clock, Compute, Free, Sleep, Wait
from repro.kernel.events import Event


class TestClock:
    def test_starts_at_zero(self):
        clock = Clock()
        assert clock.tick == 0
        assert clock.seconds == 0.0

    def test_advance(self):
        clock = Clock()
        clock.advance(150)
        assert clock.tick == 150
        assert clock.seconds == pytest.approx(1.5)

    def test_no_backwards(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_custom_hz(self):
        clock = Clock(hz=1000)
        clock.advance(500)
        assert clock.seconds == pytest.approx(0.5)


class TestDirectiveValidation:
    def test_compute_negative_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_compute_user_frac_range(self):
        with pytest.raises(ValueError):
            Compute(1, user_frac=1.5)
        with pytest.raises(ValueError):
            Compute(1, user_frac=-0.1)

    def test_compute_remaining_initialized(self):
        c = Compute(5.5)
        assert c.remaining == 5.5

    def test_sleep_negative_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-1)

    def test_wait_state_validated(self):
        ev = Event()
        assert Wait(ev).state == "S"
        assert Wait(ev, state="D").state == "D"
        with pytest.raises(ValueError):
            Wait(ev, state="R")

    def test_alloc_free_negative_rejected(self):
        with pytest.raises(ValueError):
            Alloc(-1)
        with pytest.raises(ValueError):
            Free(-1)

    def test_instant_flags(self):
        assert Alloc(1).instant
        assert Free(1).instant
        assert not Compute(1).instant
        assert not Sleep(1).instant
