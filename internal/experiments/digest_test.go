package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// figureDigests holds the SHA-256 of every registry figure's quick output,
// keyed "figure/seed", for seeds 1 and 2.
var figureDigests = map[string]string{
	"fig1/1":              "360037cf19ae8e33ccfe541b164c6a220bf58384cf071331c953429fe78173cf",
	"fig5/1":              "27b95b5353a5e359366469ee3b8f62128cabb556cbf4ea17f8e6552dc57f4f42",
	"fig6/1":              "8af8d84d1f31bcab5f67fcbd28fb2b69c4a4f47f693f99175c56b161685e4e38",
	"fig7/1":              "3ae19eb4b742ca9352e8f3576bb859c79a11a5dc858f621214c30e0d8389a2e9",
	"fig8/1":              "1e975490ab9e8c577713e1f08d8d73e20e3d7ccf944e3329601da60c40dc3440",
	"mem/1":               "a2f3102e10eee48b0dbed58d4b1e291e32618f88fcefc2e930e696a576d4ed64",
	"fig9/1":              "5b63f2cd8794bdc3ac13874fdb67df8f41f6ced7235af4b5fdf1130d16e7dd2a",
	"fig10/1":             "611d2a7c5e7761eb4db74af61d29e2ae044980ef01dac0aefaed242a00317768",
	"fig11/1":             "08c2199a77b222de5a3d71f18635b247977347c629705ff87c20a6fea6cd1b34",
	"ablation-sampling/1": "b215d94e0aa61e0ae78277cfaf755bf81d17cd153c7829a99641b10b23371067",
	"ablation-mlp/1":      "22856f17bdfc38022d6d037e07fb50a939c750abdffea00cbc3d8b7da53e9f3a",
	"dvfs/1":              "39c06c61cad53004e83dc2207751ac3b08638403706ad79f45a8ada89e646f0e",
	"thermal-gc/1":        "bbdc9224c9d881d43b94dbd8dc433e121143305fdac8bddd2f1da3cf0e16f606",
	"hpm-power/1":         "6db60218b57f5079a045af0cf249fb35605173e205280ed225b621ce71c5d3f3",
	"dwell/1":             "82c5e14ffd125fe7f1e7afc489b8c9a8e7e59f65bd7c4212ca909055536f7d7e",
	"fig1/2":              "360037cf19ae8e33ccfe541b164c6a220bf58384cf071331c953429fe78173cf",
	"fig5/2":              "27b95b5353a5e359366469ee3b8f62128cabb556cbf4ea17f8e6552dc57f4f42",
	"fig6/2":              "6b6a84708d68c2eaadc3c28735bc44eaecfa5c88a68e028b0731df331a2d6e4c",
	"fig7/2":              "1e67a1e326a2f160c32a76b8f35bd6657596c344d88c2bb2de17db07dbfc773e",
	"fig8/2":              "c586bcf07635516bb136b51cd61383eda6d57f33ec22ea0d2d46c113f6655edb",
	"mem/2":               "a2f3102e10eee48b0dbed58d4b1e291e32618f88fcefc2e930e696a576d4ed64",
	"fig9/2":              "a5ec1ed7d2629fa5ae31f3cfb2c52f7db31eb05f8dcca3666fe64f74c35e4e31",
	"fig10/2":             "8f10a28c722f12af8970a2ce7b693240651ba820249d2bc0a58ac08050443cbb",
	"fig11/2":             "ee3d560130ef82cc57f2f3a30c587690f72b99fd6c7002a5016021f353801c64",
	"ablation-sampling/2": "c5d98488d7bc3bff3ef9aa6d4b9e28e51734b5a2fc8b54215ff6e6973f2cf09c",
	"ablation-mlp/2":      "2f5983292e24f9718e83a80be35cf0cc9b4c2de4daa7728b532e3671e60c373f",
	"dvfs/2":              "f21f4ec2cd218152c07648df9c191c8b915ec6316dc73bcab0f0a7ff2a4edb39",
	"thermal-gc/2":        "bbdc9224c9d881d43b94dbd8dc433e121143305fdac8bddd2f1da3cf0e16f606",
	"hpm-power/2":         "097bd58dde1097dbe676b07982557594aabdaf5cfecd62c391ac0c5300b6e6fc",
	"dwell/2":             "c675171fe73d46dd5eeb5a88287d5360684e5a00055ef48caf03159c2422518b",
}

// TestFigureDigests pins every figure's bytes: one quick Runner per seed
// runs the registry in order, one RunFigure at a time (later figures reuse
// earlier figures' points), and each figure's output is hashed on its own.
// A refactor that claims byte identity passes unchanged; a change that
// moves a figure fails here until its digest is updated. RunEverything on
// a fresh Runner, which dispatches every figure's work at once, must print
// exactly those figures one after another.
func TestFigureDigests(t *testing.T) {
	if n, want := len(figureDigests), 2*len(figures); n != want {
		t.Errorf("%d recorded digests, want %d (two seeds per registry figure)", n, want)
	}
	for _, seed := range []uint64{1, 2} {
		var out, figs strings.Builder
		r := quickRunner(&out)
		r.Seed = seed
		for _, f := range figures {
			out.Reset()
			if err := r.RunFigure(f.name); err != nil {
				t.Fatalf("%s at seed %d: %v", f.name, seed, err)
			}
			figs.WriteString(out.String())
			sum := sha256.Sum256([]byte(out.String()))
			key := fmt.Sprintf("%s/%d", f.name, seed)
			if got, want := hex.EncodeToString(sum[:]), figureDigests[key]; got != want {
				t.Errorf("%s at seed %d: quick output has SHA-256 %s, recorded %s.\n"+
					"A change that means to move this figure updates its digest in figureDigests and says so in CHANGES.md.",
					f.name, seed, got, want)
			}
		}
		var all strings.Builder
		r = quickRunner(&all)
		r.Seed = seed
		if err := r.RunEverything(); err != nil {
			t.Fatalf("RunEverything at seed %d: %v", seed, err)
		}
		if all.String() != figs.String() {
			t.Errorf("RunEverything at seed %d printed %d bytes that differ from its %d figures' %d, one at a time",
				seed, all.Len(), len(figures), figs.Len())
		}
	}
}
