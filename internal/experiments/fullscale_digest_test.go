package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// fullScaleDigests holds the SHA-256 of the full-scale output of the
// figures that price one VM run through several meters, keyed
// "figure/seed", for seeds 1 and 2.
var fullScaleDigests = map[string]string{
	"dvfs/1":              "66363a8f0f24d95833b47dc711b577d17fed8a792fd3158e67d612c908316762",
	"ablation-sampling/1": "250b4769eee1366888f4d14e1b45a7264c5a4c22010c0f9a2d78d6d44b97bb0b",
	"ablation-mlp/1":      "4564ac659cb5433ed4a32e907b3ffb4205c66192b1c6e29077c9b5af029bc0e5",
	"dvfs/2":              "f56f308514d511e1f11c852e208a62fe007c934c54121be7ff16c882aa2d3f74",
	"ablation-sampling/2": "710527bc82dd2479769b6d9bb4fedbe90683f65b70216f9074e4333af90775d9",
	"ablation-mlp/2":      "23dc675d566b404a4a6e0c773727b5d9d298f03ea2c6fb50df787d8b5fc4f0a3",
}

// TestFullScaleDigests pins the full-scale bytes of dvfs,
// ablation-sampling and ablation-mlp, which TestFigureDigests checks only
// at quick scale. None of them reads another figure's points, so each runs
// on a fresh Runner.
func TestFullScaleDigests(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, name := range []string{"dvfs", "ablation-sampling", "ablation-mlp"} {
			var out strings.Builder
			r := NewRunner(&out)
			r.Seed = seed
			if err := r.RunFigure(name); err != nil {
				t.Fatalf("%s at seed %d: %v", name, seed, err)
			}
			sum := sha256.Sum256([]byte(out.String()))
			key := fmt.Sprintf("%s/%d", name, seed)
			if got, want := hex.EncodeToString(sum[:]), fullScaleDigests[key]; got != want {
				t.Errorf("%s at seed %d: full-scale output has SHA-256 %s, recorded %s.\n"+
					"A change that means to move this figure updates its digest in fullScaleDigests and says so in CHANGES.md.",
					name, seed, got, want)
			}
		}
	}
}
