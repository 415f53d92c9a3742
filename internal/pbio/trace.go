package pbio

import (
	"time"

	"openmeta/internal/trace"
)

// EncodeCtx is Encode with tracing and latency accounting: the encode is
// timed into the pbio.encode_ns histogram, and when tc is sampled it is also
// recorded as a pbio.encode child span naming the format, with the TraceID
// stamped onto the histogram bucket as its exemplar. The eventbus publisher
// uses this so a sampled record's encode cost appears as the first stage of
// its end-to-end trace — and so the histogram's tail buckets name real
// traces. The plain Encode stays untimed for the codec microbenchmarks.
func (f *Format) EncodeCtx(tc trace.Ctx, rec Record) ([]byte, error) {
	start := time.Now()
	if !tc.Sampled() {
		data, err := f.Encode(rec)
		f.obs.encNS.Observe(time.Since(start).Nanoseconds())
		return data, err
	}
	sp := tc.Child(trace.KindEncode)
	data, err := f.Encode(rec)
	f.obs.encNS.ObserveExemplar(time.Since(start).Nanoseconds(), tc.Trace())
	sp.Finish(f.Name)
	return data, err
}

// DecodeCtx is Decode with tracing and latency accounting, mirroring
// EncodeCtx on the subscriber side: decodes are timed into pbio.decode_ns,
// and a sampled decode links into the span tree started at the publisher
// while stamping its TraceID as the bucket exemplar.
func (f *Format) DecodeCtx(tc trace.Ctx, data []byte) (Record, error) {
	start := time.Now()
	if !tc.Sampled() {
		rec, err := f.Decode(data)
		f.obs.decNS.Observe(time.Since(start).Nanoseconds())
		return rec, err
	}
	sp := tc.Child(trace.KindDecode)
	rec, err := f.Decode(data)
	f.obs.decNS.ObserveExemplar(time.Since(start).Nanoseconds(), tc.Trace())
	sp.Finish(f.Name)
	return rec, err
}
