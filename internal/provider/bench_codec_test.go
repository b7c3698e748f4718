package provider

import (
	"fmt"
	"testing"
)

// BenchmarkCodecEncode measures the cost of encoding full dispatch batches
// (defaultBatchMax tasks each) as binary task-batch frames. Each op encodes
// codecEncodeRounds batches so the single-shot CI run (-benchtime=1x)
// measures real work rather than timer noise.
func BenchmarkCodecEncode(b *testing.B) {
	const codecEncodeRounds = 100
	specs := make([]*RemoteSpec, defaultBatchMax)
	for i := range specs {
		spec, err := NewEchoSpec(map[string]any{
			"task":  i,
			"value": fmt.Sprintf("payload-%d", i),
			"args":  []any{"alpha", "beta", float64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = spec
	}

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for round := 0; round < codecEncodeRounds; round++ {
				records := make([][]byte, 0, len(specs))
				for id, spec := range specs {
					records = append(records, appendBinaryTask(nil, int64(id), spec.Kind, spec.Payload, "", nil))
				}
				if frame := binBatchFrame(binKindTaskBatch, records); len(frame) == 0 {
					b.Fatal("empty frame")
				}
			}
		}
	})
}
