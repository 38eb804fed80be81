package units

import (
	"math"
	"testing"
	"time"
)

func TestEnergyOverPower(t *testing.T) {
	e := Energy(10)
	p := e.Over(2 * time.Second)
	if p != 5 {
		t.Fatalf("10 J over 2 s = %v W, want 5", float64(p))
	}
	if got := e.Over(0); got != 0 {
		t.Fatalf("energy over zero duration = %v, want 0", got)
	}
	if got := e.Over(-time.Second); got != 0 {
		t.Fatalf("energy over negative duration = %v, want 0", got)
	}
}

func TestPowerFor(t *testing.T) {
	p := Power(4.5)
	e := p.For(2 * time.Second)
	if math.Abs(float64(e)-9) > 1e-12 {
		t.Fatalf("4.5 W for 2 s = %v J, want 9", float64(e))
	}
}

func TestEnergyDelay(t *testing.T) {
	edp := EnergyDelay(Energy(10), 3*time.Second)
	if math.Abs(float64(edp)-30) > 1e-9 {
		t.Fatalf("EDP = %v, want 30 J·s", float64(edp))
	}
}

func TestRoundTripPowerEnergy(t *testing.T) {
	for _, watts := range []float64{0.07, 4.5, 12.8, 17.5} {
		for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Second} {
			e := Power(watts).For(d)
			back := e.Over(d)
			if math.Abs(float64(back)-watts) > 1e-9*watts {
				t.Errorf("round trip %v W over %v: got %v", watts, d, back)
			}
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := map[ByteSize]string{
		512:        "512B",
		2 * KB:     "2KB",
		32 * MB:    "32MB",
		GB:         "1GB",
		1500:       "1500B",
		3 * KB / 2: "1536B", // not an exact KB multiple, falls back to bytes
	}
	for b, want := range cases {
		if got := b.String(); got != want {
			t.Errorf("%d bytes: got %q want %q", int64(b), got, want)
		}
	}
}

func TestEnergyString(t *testing.T) {
	cases := map[Energy]string{
		1.5:   "1.500 J",
		0.002: "2.000 mJ",
		2e-6:  "2.000 µJ",
		-1.5:  "-1.500 J",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("%v J: got %q want %q", float64(e), got, want)
		}
	}
}

func TestPowerString(t *testing.T) {
	cases := map[Power]string{
		12.84:  "12.840 W",
		0.270:  "270.0 mW",
		0.0002: "200.0 µW",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%v W: got %q want %q", float64(p), got, want)
		}
	}
}
