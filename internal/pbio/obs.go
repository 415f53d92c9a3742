package pbio

import "openmeta/internal/obsv"

// obsMetrics bundles the instruments a Context (and the formats it owns)
// reports into. It is held by value so a zero obsMetrics — e.g. on a Format
// built by UnmarshalMeta that has not been adopted into a context — is a
// set of nil, no-op instruments.
type obsMetrics struct {
	registered  *obsv.Counter // formats registered locally
	adopted     *obsv.Counter // formats adopted from remote peers
	encodeCalls *obsv.Counter
	encodeBytes *obsv.Counter
	decodeCalls *obsv.Counter
	decodeBytes *obsv.Counter

	// Codec latency histograms, observed by the EncodeCtx/DecodeCtx wrappers
	// (the plain Encode/Decode hot paths stay untimed). A sampled request's
	// TraceID rides along as the bucket exemplar, so a p99 excursion in
	// pbio.encode_ns points at a resolvable trace.
	encNS *obsv.Histogram // pbio.encode_ns
	decNS *obsv.Histogram // pbio.decode_ns

	// Labeled per-format families. Children are resolved once per format at
	// adopt time (see formatMetrics), so the codec hot paths never touch the
	// vector maps.
	encRecVec  *obsv.CounterVec // pbio.format.encoded.records{format}
	encByteVec *obsv.CounterVec // pbio.format.encoded.bytes{format}
	decRecVec  *obsv.CounterVec // pbio.format.decoded.records{format}
	decByteVec *obsv.CounterVec // pbio.format.decoded.bytes{format}
}

// formatMetrics is one format's resolved slice of the labeled families: the
// per-format children the Encode/Decode hot paths add to directly. Zero (all
// nil, no-op) for formats not adopted into a context.
type formatMetrics struct {
	encRecords *obsv.Counter
	encBytes   *obsv.Counter
	decRecords *obsv.Counter
	decBytes   *obsv.Counter
}

// formatMetrics resolves the labeled children for one format name.
func (m obsMetrics) formatMetrics(name string) formatMetrics {
	return formatMetrics{
		encRecords: m.encRecVec.With(name),
		encBytes:   m.encByteVec.With(name),
		decRecords: m.decRecVec.With(name),
		decBytes:   m.decByteVec.With(name),
	}
}

// noteEncode and noteDecode are the one accounting point of the codec: every
// successful encode or decode, generic or bound, lands in the context's
// aggregate counters and in the format's labeled children.
func (f *Format) noteEncode(n int) {
	f.obs.encodeCalls.Add(1)
	f.obs.encodeBytes.Add(int64(n))
	f.facct.encRecords.Add(1)
	f.facct.encBytes.Add(int64(n))
}

func (f *Format) noteDecode(n int) {
	f.obs.decodeCalls.Add(1)
	f.obs.decodeBytes.Add(int64(n))
	f.facct.decRecords.Add(1)
	f.facct.decBytes.Add(int64(n))
}

func contextMetrics(r *obsv.Registry) obsMetrics {
	s := r.Scope("pbio")
	return obsMetrics{
		registered:  s.Counter("formats.registered"),
		adopted:     s.Counter("formats.adopted"),
		encodeCalls: s.Counter("encode.calls"),
		encodeBytes: s.Counter("encode.bytes"),
		decodeCalls: s.Counter("decode.calls"),
		decodeBytes: s.Counter("decode.bytes"),
		encNS:       s.Histogram("encode_ns"),
		decNS:       s.Histogram("decode_ns"),
		encRecVec:   s.CounterVec("format.encoded.records", "format"),
		encByteVec:  s.CounterVec("format.encoded.bytes", "format"),
		decRecVec:   s.CounterVec("format.decoded.records", "format"),
		decByteVec:  s.CounterVec("format.decoded.bytes", "format"),
	}
}

// Package-level instruments on the default registry. Created at init so the
// metric names are present (zero-valued) in the default registry from
// process start, and shared by every Context that does not bring its own registry.
var (
	defaultMetrics = contextMetrics(obsv.Default())

	metaMarshals   = obsv.Default().Counter("pbio.meta.marshals")
	metaUnmarshals = obsv.Default().Counter("pbio.meta.unmarshals")

	// metaBytesVec attributes metadata bytes crossing the wire to the format
	// they describe; counted in MarshalMeta/UnmarshalMeta, which are package
	// functions, so the family lives on the default registry regardless of
	// which context later adopts the format.
	metaBytesVec = obsv.Default().CounterVec("pbio.format.meta.bytes", "format")
)

// ContextOption configures a Context at construction.
type ContextOption func(*Context)

// WithObserver directs the context's metrics (format registrations and
// adoptions, encode/decode calls and bytes) into r instead of the process
// default registry.
func WithObserver(r *obsv.Registry) ContextOption {
	return func(c *Context) { c.obs = contextMetrics(r) }
}
