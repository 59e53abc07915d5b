"""Unit tests for power-loss fault injection and device power state."""

import pytest

from repro.flash import (
    DeviceOffError,
    FlashGeometry,
    NandFlash,
    PowerLossError,
)
from repro.flash.fault import PowerFault


def make_chip():
    return NandFlash(FlashGeometry(num_blocks=4, pages_per_block=4))


class TestPowerFaultController:
    def test_unarmed_never_trips(self):
        f = PowerFault()
        for _ in range(100):
            assert not f.on_program()
        assert not f.tripped

    def test_arm_after_zero_trips_immediately(self):
        f = PowerFault()
        f.arm_after_programs(0)
        assert f.on_program()
        assert f.tripped

    def test_arm_after_n_allows_n_programs(self):
        f = PowerFault()
        f.arm_after_programs(3)
        results = [f.on_program() for _ in range(4)]
        assert results == [False, False, False, True]

    def test_erases_ignored_unless_counted(self):
        f = PowerFault()
        f.arm_after_programs(0)
        assert not f.on_erase()
        assert f.on_program()

    def test_arm_at_op_index_counts_erases(self):
        f = PowerFault()
        f.arm_at_op_index(1)
        assert not f.on_erase()
        assert f.on_program()

    def test_disarm(self):
        f = PowerFault()
        f.arm_after_programs(0)
        f.disarm()
        assert not f.on_program()

    def test_negative_rejected(self):
        f = PowerFault()
        with pytest.raises(ValueError):
            f.arm_after_programs(-1)


class TestChipPowerLoss:
    def test_program_raises_and_page_unwritten(self):
        chip = make_chip()
        chip.fault.arm_after_programs(1)
        chip.program_page(0, "first")
        with pytest.raises(PowerLossError):
            chip.program_page(1, "second")
        assert not chip.powered
        # The tripped program took no effect.
        assert chip.write_ptr[0] == 1

    def test_no_ops_while_off(self):
        chip = make_chip()
        chip.power_off()
        with pytest.raises(DeviceOffError):
            chip.read_page(0)
        with pytest.raises(DeviceOffError):
            chip.program_page(0, "x")
        with pytest.raises(DeviceOffError):
            chip.erase_block(0)

    def test_contents_survive_power_cycle(self):
        chip = make_chip()
        chip.program_page(0, "durable")
        chip.power_off()
        chip.power_on()
        data, _ = chip.read_page(0)
        assert data == "durable"

    def test_power_on_disarms_fault(self):
        chip = make_chip()
        chip.fault.arm_after_programs(0)
        with pytest.raises(PowerLossError):
            chip.program_page(0, "x")
        chip.power_on()
        chip.program_page(0, "x")  # must not raise again

    def test_erase_fault(self):
        chip = make_chip()
        chip.fault.arm_at_op_index(0)
        with pytest.raises(PowerLossError):
            chip.erase_block(0)
        assert chip.erase_count[0] == 0


class TestArmAtOpIndex:
    def test_trips_just_before_the_indexed_op(self):
        f = PowerFault()
        f.arm_at_op_index(2)
        assert not f.on_program()   # op 0
        assert not f.on_erase()     # op 1 (erases count too)
        assert f.on_program()       # would be op 2: cut here
        assert f.tripped
        assert f.trip_op_index == 2

    def test_index_zero_cuts_before_anything(self):
        f = PowerFault()
        f.arm_at_op_index(0)
        assert f.on_program()

    def test_negative_index_rejected(self):
        f = PowerFault()
        with pytest.raises(ValueError):
            f.arm_at_op_index(-1)

    def test_trip_site_reported(self):
        chip = make_chip()
        chip.fault.arm_at_op_index(1)
        chip.program_page(0, "a")
        with pytest.raises(PowerLossError):
            chip.program_page(1, "b")
        report = chip.fault.trip_report()
        assert "op index 1" in report
        assert "program of ppn 1" in report

    def test_erase_trip_site_reported(self):
        chip = make_chip()
        chip.program_page(0, "a")
        chip.fault.arm_at_op_index(0)
        with pytest.raises(PowerLossError):
            chip.erase_block(0)
        assert "erase of pbn 0" in chip.fault.trip_report()

    def test_trip_history_survives_power_on(self):
        """Recovery code powers the chip back on (which disarms the
        fault) and must still be able to read the trip report."""
        chip = make_chip()
        chip.fault.arm_at_op_index(0)
        with pytest.raises(PowerLossError):
            chip.program_page(0, "x")
        chip.power_on()
        assert chip.fault.tripped
        assert "op index 0" in chip.fault.trip_report()
        chip.program_page(0, "x")  # disarmed: no second trip

    def test_untripped_report_is_empty(self):
        f = PowerFault()
        assert f.trip_report() == ""
        f.arm_at_op_index(5)
        assert f.trip_report() == ""
