// Package units defines the physical quantities used throughout the
// characterization infrastructure: energy (Joules), power (Watts),
// simulated time (seconds held as nanoseconds), and byte sizes.
//
// All simulation components exchange these types rather than bare float64s
// so that unit errors (e.g. adding Joules to Watts) are caught at compile
// time wherever the quantities differ in type.
package units

import (
	"fmt"
	"time"
)

// Energy is an amount of energy in Joules.
type Energy float64

// Power is a rate of energy consumption in Watts.
type Power float64

// Duration is simulated time. It reuses time.Duration (nanoseconds) so the
// standard library's formatting and arithmetic apply.
type Duration = time.Duration

// ByteSize is a memory size in bytes.
type ByteSize int64

// Common byte sizes.
const (
	KB ByteSize = 1 << 10
	MB ByteSize = 1 << 20
	GB ByteSize = 1 << 30
)

// Over returns the average power of consuming e over d.
// It returns 0 for non-positive durations.
func (e Energy) Over(d Duration) Power {
	if d <= 0 {
		return 0
	}
	return Power(float64(e) / d.Seconds())
}

// For returns the energy consumed at power p over duration d.
func (p Power) For(d Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// EDP is an energy-delay product in Joule-seconds, the combined
// energy/performance metric of Gonzalez and Horowitz used throughout the
// paper's evaluation (Section III-A).
type EDP float64

// EnergyDelay computes the energy-delay product of consuming e over d.
func EnergyDelay(e Energy, d Duration) EDP {
	return EDP(float64(e) * d.Seconds())
}

// String implements fmt.Stringer with an engineering-friendly unit.
func (e Energy) String() string {
	switch {
	case e < 0:
		return "-" + (-e).String()
	case e >= 1:
		return fmt.Sprintf("%.3f J", float64(e))
	case e >= 1e-3:
		return fmt.Sprintf("%.3f mJ", float64(e)*1e3)
	default:
		return fmt.Sprintf("%.3f µJ", float64(e)*1e6)
	}
}

// String implements fmt.Stringer with an engineering-friendly unit.
func (p Power) String() string {
	switch {
	case p < 0:
		return "-" + (-p).String()
	case p >= 1:
		return fmt.Sprintf("%.3f W", float64(p))
	case p >= 1e-3:
		return fmt.Sprintf("%.1f mW", float64(p)*1e3)
	default:
		return fmt.Sprintf("%.1f µW", float64(p)*1e6)
	}
}

// String implements fmt.Stringer.
func (b ByteSize) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// String implements fmt.Stringer.
func (e EDP) String() string { return fmt.Sprintf("%.4g J·s", float64(e)) }
