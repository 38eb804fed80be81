// Package trace exports measurement traces in analysis-friendly formats:
// the raw 40 µs power samples the DAQ acquires (the data behind every
// figure) and windowed per-component power series for plotting — the
// equivalent of the CSV files a physical DAQ card's software would write.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"jvmpower/internal/component"
	"jvmpower/internal/daq"
	"jvmpower/internal/units"
)

// WriteCSV writes samples as CSV: time_us, cpu_w, mem_w, component.
func WriteCSV(w io.Writer, samples []daq.Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "cpu_w", "mem_w", "component"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatFloat(float64(s.Time.Microseconds()), 'f', -1, 64),
			strconv.FormatFloat(float64(s.CPU), 'f', 6, 64),
			strconv.FormatFloat(float64(s.Mem), 'f', 6, 64),
			s.Component.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WindowPoint is one point of a windowed power series.
type WindowPoint struct {
	// Start of the window since acquisition start.
	Start units.Duration
	// AvgCPU and PeakCPU over the window; AvgMem likewise.
	AvgCPU  units.Power
	PeakCPU units.Power
	AvgMem  units.Power
	// ComponentShare is each component's fraction of the window's samples.
	ComponentShare [component.N]float64
}

// Window aggregates samples into fixed windows (e.g. 10 ms) — the form the
// paper's time-series figures plot. It returns an error for a non-positive
// window.
func Window(samples []daq.Sample, window units.Duration) ([]WindowPoint, error) {
	if window <= 0 {
		return nil, fmt.Errorf("trace: window %v must be positive", window)
	}
	var out []WindowPoint
	var cur *WindowPoint
	var n int
	var counts [component.N]int
	flush := func() {
		if cur == nil || n == 0 {
			return
		}
		cur.AvgCPU = units.Power(float64(cur.AvgCPU) / float64(n))
		cur.AvgMem = units.Power(float64(cur.AvgMem) / float64(n))
		for i := range counts {
			cur.ComponentShare[i] = float64(counts[i]) / float64(n)
		}
		out = append(out, *cur)
	}
	for _, s := range samples {
		start := s.Time / window * window
		if cur == nil || start != cur.Start {
			flush()
			cur = &WindowPoint{Start: start}
			n = 0
			counts = [component.N]int{}
		}
		cur.AvgCPU += s.CPU
		cur.AvgMem += s.Mem
		if s.CPU > cur.PeakCPU {
			cur.PeakCPU = s.CPU
		}
		counts[s.Component]++
		n++
	}
	flush()
	return out, nil
}

// WriteWindowCSV writes a windowed series as CSV with one share column per
// monitored component.
func WriteWindowCSV(w io.Writer, points []WindowPoint) error {
	cw := csv.NewWriter(w)
	header := []string{"start_us", "avg_cpu_w", "peak_cpu_w", "avg_mem_w"}
	for id := component.ID(0); id < component.N; id++ {
		header = append(header, "share_"+id.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			strconv.FormatInt(p.Start.Microseconds(), 10),
			strconv.FormatFloat(float64(p.AvgCPU), 'f', 4, 64),
			strconv.FormatFloat(float64(p.PeakCPU), 'f', 4, 64),
			strconv.FormatFloat(float64(p.AvgMem), 'f', 4, 64),
		}
		for id := component.ID(0); id < component.N; id++ {
			rec = append(rec, strconv.FormatFloat(p.ComponentShare[id], 'f', 4, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
