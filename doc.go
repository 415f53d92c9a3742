// Package openmeta is an open-metadata communication library for
// heterogeneous distributed systems, reproducing the system described in
// "Open Metadata Formats: Efficient XML-Based Communication for
// Heterogeneous Distributed Systems" (Widener, Schwan, Eisenhauer;
// Georgia Tech GIT-CC-00-21 / ICDCS 2001).
//
// The library separates the three steps every binary communication
// mechanism performs:
//
//   - Discovery: message formats are described in XML Schema documents that
//     can live in source code, on the file system, or on a remote metadata
//     repository (with compiled-in fallback for fault tolerance).
//   - Binding: xml2wire converts a discovered schema into native PBIO
//     format metadata for the local architecture — field sizes from
//     sizeof-equivalents, offsets with compiler padding — and registers it
//     at run time, so formats can change without recompiling anything.
//   - Marshaling: records travel in NDR (Natural Data Representation), the
//     sender's own memory layout plus compact metadata; receivers convert
//     only when representations differ, using conversion programs compiled
//     once per format pair.
//
// # Quick start
//
//	ctx, _ := openmeta.New()
//	set, _ := openmeta.RegisterSchemaDocument(ctx, schemaXML)
//	f, _ := set.Lookup("ASDOffEvent")
//	wire, _ := f.Encode(openmeta.Record{"fltNum": 1842, "dest": "MCO"})
//	rec, _ := f.Decode(wire)
//
// Constructors take functional options: New(WithArch(ArchSparc64)) lays
// formats out for a simulated peer, ListenBroker(addr, WithQueueDepth(64))
// bounds subscriber queues, NewPlanCache(WithPlanCacheLimit(128)) bounds
// plan memoization.
//
// # Registering formats
//
// A Context accepts formats from three metadata sources:
//
//   - RegisterIOFields: explicit PBIO field descriptors (name, type, size,
//     offset), for layouts already known byte-for-byte.
//   - RegisterSpecs: portable field declarations laid out for the context's
//     architecture, the way a compiler would.
//   - RegisterSchema / RegisterSchemaDocument / RegisterSchemaFile /
//     RegisterSchemaURL: XML Schema documents through the xml2wire pipeline
//     — the paper's open-metadata path.
//
// # Observability
//
// Every layer reports counters and latency histograms into a process-wide
// registry: Stats returns a snapshot keyed by stable metric names
// (pbio.encode.calls, dcg.plan_cache.hits, eventbus.delivered, ...), and
// DebugHandler serves the registry at /metrics next to traces, health and
// pprof — the daemons mount it behind their -debug-addr flag.
// Components accept a private registry via WithObserver (and the broker and
// plan-cache equivalents) when isolation matters; Broker.Stats gives a
// typed per-broker view. The hot-path instruments are allocation-free.
//
// Failures surface as wrapped sentinel errors (ErrUnknownFormat,
// ErrFieldMismatch, ErrSlowSubscriber, ...) so callers branch with
// errors.Is.
//
// See examples/ for runnable programs: a quickstart, the paper's airline
// operational information system on the event backbone, format evolution
// without recompilation, and cross-architecture exchange.
package openmeta
