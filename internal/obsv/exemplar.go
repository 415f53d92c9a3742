// Exemplars link latency histograms to real traces: alongside its bucket
// counts, a histogram remembers, per power-of-two bucket, the last sampled
// observation that arrived with a TraceID — value, TraceID and wall-clock
// timestamp. A p99 excursion on /metrics is then not just a number: the bucket
// the p99 falls in carries the ID of an actual request that landed there,
// whose spans the /debug/trace rings of the processes it crossed hold under
// that id.
//
// The recording path shares the histogram hot-path contract: ObserveExemplar
// performs no allocation after the slot array exists (it is created once, on
// the first sampled observation) and takes no locks. Each bucket slot is a
// seqlock — a writer that loses the CAS on the sequence word simply skips
// (exemplars are best-effort samples; dropping one under contention is
// fine), so writers never spin, and readers retry a bounded number of times.
package obsv

import (
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sync/atomic"
	"time"
)

// exemplarsEnabled is the process-wide exemplar switch (daemons expose it as
// -exemplars). Disabled, ObserveExemplar degrades to plain Observe.
var exemplarsEnabled atomic.Bool

func init() { exemplarsEnabled.Store(true) }

// SetExemplars enables or disables exemplar capture process-wide. Recording
// sites keep calling ObserveExemplar; with capture off only the histogram
// counts are updated.
func SetExemplars(on bool) { exemplarsEnabled.Store(on) }

// exemplarSlot is one bucket's seqlocked exemplar: an odd seq means a write
// is in flight, and seq==0 means the slot has never been written. The TraceID
// is split across two words so the whole record stays plain atomics.
type exemplarSlot struct {
	seq   atomic.Uint64
	value atomic.Int64
	tidHi atomic.Uint64
	tidLo atomic.Uint64
	ts    atomic.Int64
}

// store publishes one exemplar. A concurrent writer makes the CAS fail and
// the sample is dropped — best-effort by design, so the hot path never spins.
func (s *exemplarSlot) store(v int64, hi, lo uint64, ts int64) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.value.Store(v)
	s.tidHi.Store(hi)
	s.tidLo.Store(lo)
	s.ts.Store(ts)
	s.seq.Store(seq + 2)
}

// load returns a consistent exemplar snapshot, or ok=false if the slot is
// empty or a writer kept it busy across every retry.
func (s *exemplarSlot) load() (v int64, hi, lo uint64, ts int64, ok bool) {
	for range 4 {
		seq := s.seq.Load()
		if seq == 0 {
			return
		}
		if seq&1 != 0 {
			continue
		}
		v = s.value.Load()
		hi = s.tidHi.Load()
		lo = s.tidLo.Load()
		ts = s.ts.Load()
		if s.seq.Load() == seq {
			ok = true
			return
		}
	}
	return 0, 0, 0, 0, false
}

// ObserveExemplar records one sample like Observe and, when tid is non-zero
// and exemplars are enabled, stamps it as the exemplar of the bucket it lands
// in. tid is an unnamed [16]byte so trace.TraceID values pass directly
// without this package importing the trace package; the zero TraceID
// (unsampled request) short-circuits to a plain observation.
func (h *Histogram) ObserveExemplar(v int64, tid [16]byte) {
	if h == nil {
		return
	}
	h.Observe(v)
	if tid == ([16]byte{}) || !exemplarsEnabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	slots := h.ex.Load()
	if slots == nil {
		// One-time lazy allocation so exemplar-free histograms stay as small
		// as before; losing the CAS means another observer installed it.
		slots = new([histBuckets]exemplarSlot)
		if !h.ex.CompareAndSwap(nil, slots) {
			slots = h.ex.Load()
		}
	}
	hi := binary.BigEndian.Uint64(tid[0:8])
	lo := binary.BigEndian.Uint64(tid[8:16])
	slots[bucketIndex(v)].store(v, hi, lo, time.Now().UnixNano())
}

// Exemplar is one bucket's exported exemplar: the bucket index (the sample
// lies in [2^(bucket-1), 2^bucket), i.e. under the le=2^bucket-1 bound the
// Prometheus exposition uses), the sampled value, the hex TraceID and the
// capture time.
type Exemplar struct {
	Bucket     int
	Value      int64
	TraceID    string
	TimeUnixNS int64
}

// Exemplars returns every populated bucket exemplar, lowest bucket first.
// Nil for a nil or exemplar-free histogram.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	slots := h.ex.Load()
	if slots == nil {
		return nil
	}
	var out []Exemplar
	for i := range slots {
		if ex, ok := readExemplar(&slots[i], i); ok {
			out = append(out, ex)
		}
	}
	return out
}

// exemplarFor returns the exemplar for one bucket, if populated.
func (h *Histogram) exemplarFor(bucket int) (Exemplar, bool) {
	if h == nil || bucket < 0 || bucket >= histBuckets {
		return Exemplar{}, false
	}
	slots := h.ex.Load()
	if slots == nil {
		return Exemplar{}, false
	}
	return readExemplar(&slots[bucket], bucket)
}

func readExemplar(s *exemplarSlot, bucket int) (Exemplar, bool) {
	v, hi, lo, ts, ok := s.load()
	if !ok {
		return Exemplar{}, false
	}
	var tid [16]byte
	binary.BigEndian.PutUint64(tid[0:8], hi)
	binary.BigEndian.PutUint64(tid[8:16], lo)
	return Exemplar{Bucket: bucket, Value: v, TraceID: hex.EncodeToString(tid[:]), TimeUnixNS: ts}, true
}

// FindHistogram returns the histogram registered under name without creating
// it — nil if the name is unknown.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hists[name]
}

// bucketIndex returns the histogram bucket a (non-negative) sample lands in —
// the same power-of-two rule Observe uses.
func bucketIndex(v int64) int { return bits.Len64(uint64(v)) }
