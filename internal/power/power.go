// Package power implements the electrical side of the paper's methodology:
// activity-based power models for the processor and main memory, and the
// physical measurement chain — sense resistors in series with the supply
// rails, voltage sensing, and ADC quantization — through which the DAQ
// observes them (Section IV-D).
package power

import (
	"fmt"

	"jvmpower/internal/units"
)

// CPUModel maps core activity to processor power. The model follows the
// utilization correlation the paper cites (Section VI-C): a running core
// burns a floor of dynamic power in the clock tree and front end even when
// stalled, plus an IPC-proportional term. This is why the garbage
// collector — stalled on L2 misses much of the time, IPC ≈ 0.55 — measures
// as the least power-hungry component while compute-dense application code
// at IPC ≈ 0.8+ sets the power peaks.
type CPUModel struct {
	// Idle is the measured idle power (4.5 W for the P6 board's Pentium M,
	// ~70 mW for the PXA255).
	Idle units.Power
	// ActiveMax is the additional power at sustained peak IPC.
	ActiveMax units.Power
	// UtilFloor is the fraction of ActiveMax burned whenever the core is
	// executing at all, regardless of IPC.
	UtilFloor float64
	// IPCMax normalizes IPC into utilization.
	IPCMax float64
}

// Validate checks the model's parameters.
func (m CPUModel) Validate() error {
	if m.Idle < 0 || m.ActiveMax <= 0 || m.IPCMax <= 0 {
		return fmt.Errorf("power: CPU model has non-positive parameters: %+v", m)
	}
	if m.UtilFloor < 0 || m.UtilFloor > 1 {
		return fmt.Errorf("power: CPU model UtilFloor %v out of [0,1]", m.UtilFloor)
	}
	return nil
}

// Power returns instantaneous processor power at the given IPC.
func (m CPUModel) Power(ipc float64) units.Power {
	u := m.UtilFloor + (1-m.UtilFloor)*ipc/m.IPCMax
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return m.Idle + units.Power(float64(m.ActiveMax)*u)
}

// MemoryModel maps DRAM activity to main-memory power: a standby term plus
// per-access energy.
type MemoryModel struct {
	// Idle is standby/refresh power (≈250 mW for the P6 board's SDRAM,
	// ≈5 mW for the DBPXA255).
	Idle units.Power
	// EnergyPerAccess is the energy of one DRAM burst (row activate +
	// transfer + precharge).
	EnergyPerAccess units.Energy
}

// Validate checks the model's parameters.
func (m MemoryModel) Validate() error {
	if m.Idle < 0 || m.EnergyPerAccess < 0 {
		return fmt.Errorf("power: memory model has negative parameters: %+v", m)
	}
	return nil
}

// Power returns instantaneous memory power at the given access rate.
func (m MemoryModel) Power(accessesPerSecond float64) units.Power {
	return m.Idle + units.Power(float64(m.EnergyPerAccess)*accessesPerSecond)
}
