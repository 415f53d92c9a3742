package pbio

import (
	"sync"
	"testing"

	"openmeta/internal/machine"
)

// A format's program is compiled on first use, and first use may come from
// several goroutines at once (a broker's connections share formats): every
// caller must get a working program, and after the race there is one.
func TestProgramCompiledOnceUnderConcurrentFirstUse(t *testing.T) {
	f := mixedFormat(t, machine.Sparc64)
	v := mixedValue()
	want, err := mixedFormat(t, machine.Sparc64).Encode(v.record())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	programs := make([]*program, 8)
	for g := range programs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := f.Encode(v.record())
			if err != nil || string(got) != string(want) {
				t.Errorf("goroutine %d: Encode err %v, %d bytes, want %d", g, err, len(got), len(want))
			}
			if _, err := f.Decode(got); err != nil {
				t.Errorf("goroutine %d: Decode: %v", g, err)
			}
			programs[g] = f.compiled()
		}(g)
	}
	wg.Wait()
	for g, p := range programs {
		if p != programs[0] || p == nil {
			t.Fatalf("goroutine %d saw program %p, goroutine 0 saw %p", g, p, programs[0])
		}
	}
}
