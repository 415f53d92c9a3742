package pbio

import "sync/atomic"

// XMLTextSizer reports the XML-text wire size of rec encoded under f — what
// an XML-RPC-era system would have put on the wire for the same record. The
// hook exists so pbio can publish a live NDR-vs-XML-text expansion ratio per
// format without importing the xmlwire package (which imports pbio);
// xmlwire registers its encoder here from an init function.
type XMLTextSizer func(f *Format, rec Record) (int, error)

var xmlSizer atomic.Pointer[XMLTextSizer]

// SetXMLTextSizer installs the sizer used for expansion-ratio probes.
// Passing nil disables probing.
func SetXMLTextSizer(fn XMLTextSizer) {
	if fn == nil {
		xmlSizer.Store(nil)
		return
	}
	xmlSizer.Store(&fn)
}

// expansionProbeFirst is the encode count of the second probe. The first
// encode of a format is probed (so the gauge appears as soon as traffic
// flows), then the 1024th, 2048th, 4096th, ...: text-encoding a record costs
// thousands of allocations, and at doubling counts its amortized share of the
// NDR hot path goes to zero while the gauge still follows a drifting mix.
const expansionProbeFirst = 1024

// maybeProbeExpansion updates the format's xml.expansion_pct gauge — the
// XML-text size of this record as a percentage of its NDR size (642 = the
// paper's 6.42x) — on the first successful encode and at doubling counts
// from expansionProbeFirst on.
func (f *Format) maybeProbeExpansion(rec Record, ndrBytes int) {
	if f.facct.expansion == nil || ndrBytes <= 0 {
		return
	}
	n := f.encProbes.Add(1)
	if n != 1 && (n < expansionProbeFirst || n&(n-1) != 0) {
		return
	}
	fn := xmlSizer.Load()
	if fn == nil {
		return
	}
	if xmlLen, err := (*fn)(f, rec); err == nil && xmlLen > 0 {
		f.facct.expansion.Set(int64(xmlLen) * 100 / int64(ndrBytes))
	}
}
