package pap

import (
	"bytes"
	"testing"
)

// TestStreamWriteAllocs pins Stream.Write at zero allocations per call at
// steady state on a quiet stream — the regime where the backend's
// baseline-skip fast path is doing all the work. A warmed stream owns
// every buffer it needs; the batch kernel and the skip scan must not add
// any.
func TestStreamWriteAllocs(t *testing.T) {
	a, err := Compile("t", []string{"attack", "GET /admin"})
	if err != nil {
		t.Fatal(err)
	}
	quiet := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog. "), 64)
	for _, k := range []EngineKind{EngineAuto, EngineBit} {
		t.Run(k.String(), func(t *testing.T) {
			s := a.NewStream(WithEngine(k))
			s.Write(quiet) // warm-up: lazy tables, buffers, skip scanner
			allocs := testing.AllocsPerRun(100, func() { s.Write(quiet) })
			if allocs != 0 {
				t.Fatalf("%v: Write allocates %.1f objects per call, want 0", k, allocs)
			}
			if s.EngineInfo().BaselineSkippedBytes == 0 {
				t.Fatalf("%v: baseline-skip fast path never engaged on a quiet stream", k)
			}
		})
	}
}
