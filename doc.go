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
// New(WithArch(ArchSparc)) lays formats out for a simulated peer. The
// package holds only what the programs in examples/ call; the daemons and
// tools under cmd/ use the internal packages directly.
//
// See examples/ for runnable programs: a quickstart, the paper's airline
// operational information system on the event backbone, format evolution
// without recompilation, and cross-architecture exchange.
package openmeta
