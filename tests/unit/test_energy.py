"""Unit tests for power metering, batteries, and drivers (repro.energy)."""

import pytest

from repro.energy import (
    AcpiDriver,
    Battery,
    PowerMeter,
    SmartBatteryDriver,
)


class TestPowerMeter:
    def test_integrates_constant_draw(self, sim):
        meter = PowerMeter(sim)
        meter.set_component("idle", 2.0)
        sim.run(until=10.0)
        assert meter.energy_consumed_joules() == pytest.approx(20.0)

    def test_piecewise_components(self, sim):
        meter = PowerMeter(sim)
        meter.set_component("idle", 1.0)
        sim.run(until=5.0)
        meter.set_component("cpu", 3.0)
        sim.run(until=10.0)
        meter.set_component("cpu", 0.0)
        sim.run(until=20.0)
        # 5s @ 1W + 5s @ 4W + 10s @ 1W = 5 + 20 + 10
        assert meter.energy_consumed_joules() == pytest.approx(35.0)

    def test_power_watts_sums_components(self, sim):
        meter = PowerMeter(sim)
        meter.set_component("a", 1.5)
        meter.set_component("b", 2.5)
        assert meter.power_watts == pytest.approx(4.0)

    def test_zero_component_removed(self, sim):
        meter = PowerMeter(sim)
        meter.set_component("a", 5.0)
        meter.set_component("a", 0.0)
        assert meter.power_watts == 0.0
        assert meter.component("a") == 0.0

    def test_negative_power_rejected(self, sim):
        with pytest.raises(ValueError):
            PowerMeter(sim).set_component("x", -1.0)

    def test_listener_sees_deltas(self, sim):
        meter = PowerMeter(sim)
        deltas = []
        meter.add_listener(lambda joules, now: deltas.append(joules))
        meter.set_component("idle", 2.0)
        sim.run(until=3.0)
        meter.energy_consumed_joules()
        assert sum(deltas) == pytest.approx(6.0)


class TestBattery:
    def test_drains_against_meter(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=100.0, meter=meter)
        meter.set_component("idle", 5.0)
        sim.run(until=10.0)
        assert battery.remaining_joules == pytest.approx(50.0)
        assert battery.fraction_remaining == pytest.approx(0.5)

    def test_clamps_at_empty(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=10.0, meter=meter)
        meter.set_component("idle", 5.0)
        sim.run(until=100.0)
        assert battery.remaining_joules == 0.0
        assert battery.empty

    def test_recharge(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=100.0, meter=meter)
        meter.set_component("idle", 10.0)
        sim.run(until=5.0)
        battery.recharge(20.0)
        assert battery.remaining_joules == pytest.approx(70.0)
        battery.recharge()
        assert battery.remaining_joules == pytest.approx(100.0)
        with pytest.raises(ValueError):
            battery.recharge(-1.0)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Battery(sim, capacity_joules=0.0)


class TestDrivers:
    def test_smart_battery_fine_quantization(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=1000.0, meter=meter)
        driver = SmartBatteryDriver(battery, meter, resolution_joules=3.6)
        meter.set_component("idle", 1.0)
        sim.run(until=5.0)
        reading = driver.remaining_capacity_joules()
        assert reading <= 995.0
        # quantized: an integer multiple of the resolution (float-safe)
        steps = reading / 3.6
        assert steps == pytest.approx(round(steps), abs=1e-6)

    def test_smart_battery_reports_current(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=1000.0, meter=meter)
        driver = SmartBatteryDriver(battery, meter, voltage=4.0)
        meter.set_component("cpu", 8.0)
        assert driver.instantaneous_current_amps() == pytest.approx(2.0)
        assert driver.instantaneous_power_watts() == pytest.approx(8.0)

    def test_acpi_coarser_than_smart(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=1000.0, meter=meter)
        acpi = AcpiDriver(battery, resolution_joules=36.0)
        smart = SmartBatteryDriver(battery, meter, resolution_joules=3.6)
        meter.set_component("idle", 1.0)
        sim.run(until=10.0)  # 990 J truly remaining
        acpi_reading = acpi.remaining_capacity_joules()
        smart_reading = smart.remaining_capacity_joules()
        assert 990.0 - 36.0 <= acpi_reading <= 990.0
        assert 990.0 - 3.6 <= smart_reading <= 990.0
        assert smart_reading >= acpi_reading  # finer resolution

    def test_full_capacity_reported(self, sim):
        meter = PowerMeter(sim)
        battery = Battery(sim, capacity_joules=500.0, meter=meter)
        assert AcpiDriver(battery).full_capacity_joules() == 500.0
